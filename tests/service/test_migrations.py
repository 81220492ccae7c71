"""Schema migration coverage (satellite of the fleet PR).

Builds stores at historical layouts (v1: pre-tracing, v2: pre-lease)
with raw SQL, opens them through the library, and asserts the whole
chain runs: the version is stamped, the new columns exist, and — the
important part — the pre-existing rows survive bit-for-bit.  The chain
runs on SQLite files and again through the Postgres dialect, over the
stand-in driver of :mod:`tests.service.pg_standin` on the same kind of
file, with the layouts stamped in that dialect's ``runs_schema`` version
table.  A store cut short at any byte either fails to open with a typed
error or opens holding only fixture rows, each of which it can look up
and claim; those cases are SQLite-only, since the byte layout is
SQLite's.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.exceptions import ServiceError
from repro.service.backends import PostgresBackend
from repro.service.store import SCHEMA_VERSION, RunStore
from tests.service.pg_standin import StandInDriver

V1_SCHEMA = """
CREATE TABLE runs (
    run_id       TEXT PRIMARY KEY,
    kind         TEXT NOT NULL,
    params       TEXT NOT NULL,
    state        TEXT NOT NULL,
    created_at   REAL NOT NULL,
    updated_at   REAL NOT NULL,
    attempts     INTEGER NOT NULL DEFAULT 0,
    max_attempts INTEGER NOT NULL DEFAULT 3,
    not_before   REAL NOT NULL DEFAULT 0,
    error        TEXT,
    result       TEXT
)
"""

# One row per state the service can leave behind, with awkward values
# on purpose: unicode, embedded quotes, float precision, NULLs.
V1_ROWS = [
    ("aaa", "sleep", '{"seconds": 0.25}', "done",
     1_000.125, 1_001.5, 1, 3, 0.0, None, '{"slept": 0.25}'),
    ("bbb", "campaign", '{"name": "émile\'s"}', "failed",
     2_000.0, 2_060.0, 3, 3, 0.0, "boom: «quoted»", None),
    ("ccc", "simulate", "{}", "queued",
     3_000.0, 3_000.0, 0, 5, 3_600.5, None, None),
    ("ddd", "sleep", "{}", "running",
     4_000.0, 4_000.0, 2, 3, 0.0, "transient", None),
]


def _stamp_pragma(conn: sqlite3.Connection, version: int) -> None:
    """The SQLite dialect's version stamp."""
    conn.execute(f"PRAGMA user_version = {version}")


def _stamp_runs_schema(conn: sqlite3.Connection, version: int) -> None:
    """The Postgres dialect's version stamp: a one-row table."""
    conn.execute("CREATE TABLE IF NOT EXISTS runs_schema (version INTEGER)")
    conn.execute("DELETE FROM runs_schema")
    conn.execute("INSERT INTO runs_schema (version) VALUES (?)", (version,))


def _build_v1(path, stamp=_stamp_pragma) -> None:
    conn = sqlite3.connect(path)
    conn.execute(V1_SCHEMA)
    conn.executemany(
        "INSERT INTO runs VALUES (?,?,?,?,?,?,?,?,?,?,?)", V1_ROWS
    )
    stamp(conn, 1)
    conn.commit()
    conn.close()


def _build_v2(path, stamp=_stamp_pragma) -> None:
    _build_v1(path, stamp)
    conn = sqlite3.connect(path)
    conn.execute("ALTER TABLE runs ADD COLUMN trace_id TEXT")
    conn.execute("UPDATE runs SET trace_id = 'trace-' || run_id")
    stamp(conn, 2)
    conn.commit()
    conn.close()


def _dump(path, columns: str) -> list[tuple]:
    conn = sqlite3.connect(path)
    rows = conn.execute(
        f"SELECT {columns} FROM runs ORDER BY run_id"
    ).fetchall()
    conn.close()
    return rows


V1_COLUMNS = (
    "run_id, kind, params, state, created_at, updated_at,"
    " attempts, max_attempts, not_before, error, result"
)


class TestMigrationChain:
    """The v1 -> v3 chain on SQLite files."""

    stamp = staticmethod(_stamp_pragma)

    def open(self, path) -> RunStore:
        return RunStore(path)

    @pytest.mark.parametrize("build", [_build_v1, _build_v2])
    def test_old_rows_survive_bit_for_bit(self, tmp_path, build) -> None:
        path = tmp_path / "runs.db"
        build(path, self.stamp)
        before = _dump(path, V1_COLUMNS)

        with self.open(path) as store:
            assert store.schema_version() == SCHEMA_VERSION == 3

        # Every pre-existing column value is unchanged, byte for byte.
        assert _dump(path, V1_COLUMNS) == before
        # The new lease columns exist and are NULL for old rows.
        leases = _dump(path, "owner_id, lease_expires_at, heartbeat_at")
        assert leases == [(None, None, None)] * len(V1_ROWS)

    def test_v1_gets_null_trace_ids(self, tmp_path) -> None:
        path = tmp_path / "runs.db"
        _build_v1(path, self.stamp)
        with self.open(path):
            pass
        assert _dump(path, "trace_id") == [(None,)] * len(V1_ROWS)

    def test_v2_keeps_trace_ids(self, tmp_path) -> None:
        path = tmp_path / "runs.db"
        _build_v2(path, self.stamp)
        with self.open(path):
            pass
        assert _dump(path, "trace_id") == [
            ("trace-aaa",), ("trace-bbb",), ("trace-ccc",), ("trace-ddd",),
        ]

    def test_migrated_store_is_fully_usable(self, tmp_path) -> None:
        path = tmp_path / "runs.db"
        _build_v2(path, self.stamp)
        with self.open(path) as store:
            # The old running row can be recovered and re-claimed with
            # a lease — proof the ALTERed columns are live, not vestigial.
            assert store.recover_interrupted() == 1
            claimed = store.claim_next(
                now=5_000.0, owner_id="w1", lease_seconds=15.0
            )
            assert claimed.run_id == "ccc"  # oldest eligible queued row
            record = store.get(claimed.run_id)
            assert record.owner_id == "w1"
            assert record.lease_expires_at == 5_015.0

    def test_migration_idempotent_across_reopens(self, tmp_path) -> None:
        path = tmp_path / "runs.db"
        _build_v1(path, self.stamp)
        for _ in range(3):
            with self.open(path) as store:
                assert store.schema_version() == SCHEMA_VERSION
        assert _dump(path, V1_COLUMNS) == sorted(V1_ROWS)


class TestMigrationChainPostgres(TestMigrationChain):
    """The same chain through the Postgres dialect on the stand-in driver."""

    stamp = staticmethod(_stamp_runs_schema)

    def open(self, path) -> RunStore:
        return RunStore(
            PostgresBackend("postgres://stand-in", driver=StandInDriver(path))
        )

    def test_version_lives_in_runs_schema(self, tmp_path) -> None:
        path = tmp_path / "runs.db"
        _build_v1(path, self.stamp)
        self.open(path).close()
        conn = sqlite3.connect(path)
        assert conn.execute("SELECT version FROM runs_schema").fetchall() == [
            (SCHEMA_VERSION,)
        ]
        assert conn.execute("PRAGMA user_version").fetchone() == (0,)
        conn.close()


class TestVersionGate:
    def test_newer_version_refused_with_exact_message(self, tmp_path) -> None:
        path = tmp_path / "runs.db"
        RunStore(path).close()
        conn = sqlite3.connect(path)
        future = SCHEMA_VERSION + 4
        conn.execute(f"PRAGMA user_version = {future}")
        conn.commit()
        conn.close()

        with pytest.raises(ServiceError) as exc:
            RunStore(path)
        assert exc.value.code == "schema-version"
        assert str(exc.value) == (
            f"run store {str(path)!r} has schema version {future}, newer"
            f" than this library's {SCHEMA_VERSION}; upgrade the library"
            " instead of downgrading the data"
        )

    def test_refusal_leaves_data_untouched(self, tmp_path) -> None:
        path = tmp_path / "runs.db"
        _build_v1(path)
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        conn.commit()
        conn.close()
        before = _dump(path, V1_COLUMNS)
        with pytest.raises(ServiceError):
            RunStore(path)
        assert _dump(path, V1_COLUMNS) == before
        conn = sqlite3.connect(path)
        version = conn.execute("PRAGMA user_version").fetchone()[0]
        conn.close()
        assert version == SCHEMA_VERSION + 1


#: SQLite's default page size: the fixtures are whole pages of it.
PAGE_SIZE = 4096


def _cuts(size: int) -> list[int]:
    """Every 16th byte, plus each page boundary and its two neighbours."""
    boundaries = (
        page + delta
        for page in range(0, size + 1, PAGE_SIZE)
        for delta in (-1, 0, 1)
    )
    return sorted(
        {*range(0, size, 16), *(cut for cut in boundaries if 0 <= cut <= size)}
    )


class TestTruncatedStore:
    @pytest.mark.parametrize("build", [_build_v1, _build_v2])
    def test_cut_store_fails_typed_or_keeps_fixture_rows(
        self, tmp_path, build
    ) -> None:
        full = tmp_path / "full.db"
        build(full)
        data = full.read_bytes()
        traced = build is _build_v2
        expected = {
            row[0]: (*row[:2], json.loads(row[2]), *row[3:],
                     f"trace-{row[0]}" if traced else None)
            for row in V1_ROWS
        }
        opened = refused = 0
        for cut in _cuts(len(data)):
            path = tmp_path / f"cut-{cut}.db"
            path.write_bytes(data[:cut])
            try:
                store = RunStore(path)
            except ServiceError as exc:
                assert exc.code == "internal"
                assert str(path) in str(exc)
                refused += 1
                continue
            with store:
                records = store.list_runs(limit=len(V1_ROWS) + 1)
                # Lookups agree with the listing: a damaged index that
                # loses rows must not open.
                for r in records:
                    assert store.get(r.run_id) == r, cut
                queued = [r.run_id for r in records if r.state == "queued"]
                if queued:
                    claimed = store.claim_next(now=5_000.0)
                    assert claimed is not None, cut
                    assert claimed.run_id in queued, cut
            opened += 1
            for r in records:
                assert (
                    r.run_id, r.kind, r.params, r.state, r.created_at,
                    r.updated_at, r.attempts, r.max_attempts, r.not_before,
                    r.error, r.result, r.trace_id,
                ) == expected[r.run_id], cut
        # Both outcomes occur: the cut list reaches past the header.
        assert opened and refused

    def test_empty_file_opens_as_a_fresh_store(self, tmp_path) -> None:
        path = tmp_path / "runs.db"
        path.write_bytes(b"")
        with RunStore(path) as store:
            assert store.schema_version() == SCHEMA_VERSION
            assert store.list_runs() == []
            run_id = store.submit("sleep", {"seconds": 0})
            assert store.get(run_id).state == "queued"
