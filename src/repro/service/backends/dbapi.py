"""Generic DB-API 2.0 implementation of the storage contract.

Everything SQL about the run store lives here once:
:class:`SQLRunBackend` issues portable statements through a small set
of dialect hooks (parameter placeholder, float column type, version
stamping, exclusive-transaction opener) that
:class:`~repro.service.backends.sqlite.SQLiteBackend` and
:class:`~repro.service.backends.postgres.PostgresBackend` fill in.

Concurrency model: the connection runs in **autocommit** — every
single-statement write is atomic on its own, and the two multi-step
primitives (claim-with-lease, lease expiry) open an explicit
exclusive transaction first (``BEGIN IMMEDIATE`` on SQLite,
``BEGIN`` + ``FOR UPDATE SKIP LOCKED`` on Postgres), so two claimants
— threads *or processes* — can never take the same row.  A
process-local re-entrant lock additionally serializes statements from
threads sharing one connection.
"""

from __future__ import annotations

import json
import threading
from dataclasses import replace
from typing import Any, Sequence

from repro.exceptions import ServiceError
from repro.service.backends.base import (
    RUN_STATES,
    SCHEMA_VERSION,
    LeaseView,
    RunRecord,
    StorageBackend,
    expired_lease_outcome,
    params_to_json,
)

__all__ = ["SQLRunBackend"]

#: Column order used by every SELECT — positional row decoding keeps
#: the backend independent of driver row factories.
_COLUMNS: tuple[str, ...] = (
    "run_id",
    "kind",
    "params",
    "state",
    "created_at",
    "updated_at",
    "attempts",
    "max_attempts",
    "not_before",
    "error",
    "result",
    "trace_id",
    "owner_id",
    "lease_expires_at",
    "heartbeat_at",
)

_SELECT = f"SELECT {', '.join(_COLUMNS)} FROM runs"


def _row_to_record(row: Sequence[Any]) -> RunRecord:
    data = dict(zip(_COLUMNS, row, strict=True))
    data["params"] = json.loads(data["params"])
    return RunRecord(**data)


class SQLRunBackend(StorageBackend):
    """The shared SQL storage logic (see module docstring).

    Subclasses supply the connection (:meth:`_connect`) and the four
    dialect hooks; everything else — schema chain, claims, leases,
    transitions, queries — is identical across engines, which is what
    the storage-contract suite asserts.
    """

    #: DB-API parameter placeholder (``?`` for sqlite3, ``%s`` for
    #: psycopg).
    placeholder = "?"

    #: SQL column type for float timestamps.
    float_type = "REAL"

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._conn = self._connect()
        self.migrate()

    # -- dialect hooks -----------------------------------------------------

    def _connect(self) -> Any:
        """Open the DB-API connection in autocommit mode."""
        raise NotImplementedError

    def _read_version(self) -> int:
        """The stored schema version (0 when the store is fresh)."""
        raise NotImplementedError

    def _write_version(self, version: int) -> None:
        """Stamp the schema version."""
        raise NotImplementedError

    def _begin_exclusive(self) -> None:
        """Open a transaction that excludes concurrent claimants."""
        raise NotImplementedError

    def _claim_select_suffix(self) -> str:
        """Row-locking clause appended to the claim SELECT (dialect)."""
        return ""

    # -- plumbing ----------------------------------------------------------

    def _sql(self, statement: str) -> str:
        """Translate the canonical ``?`` placeholders to the dialect's."""
        if self.placeholder == "?":
            return statement
        return statement.replace("?", self.placeholder)

    def _execute(self, statement: str, args: tuple = ()) -> Any:
        return self._conn.execute(self._sql(statement), args)

    def _commit(self) -> None:
        self._conn.execute("COMMIT")

    def _rollback(self) -> None:
        self._conn.execute("ROLLBACK")

    # -- schema ------------------------------------------------------------

    def migrate(self) -> None:
        """Create or upgrade the runs table; refuse newer layouts."""
        with self._lock:
            version = self._read_version()
            if version > SCHEMA_VERSION:
                raise ServiceError(
                    f"run store {self.url!r} has schema version {version}, "
                    f"newer than this library's {SCHEMA_VERSION}; "
                    f"upgrade the library instead of downgrading the data",
                    code="schema-version",
                )
            if version == SCHEMA_VERSION:
                return
            if version == 0:
                self._create_fresh()
                self._write_version(SCHEMA_VERSION)
                return
            # In-place upgrade chain: each step only appends columns,
            # so existing rows survive bit-for-bit and old rows read
            # back with NULL in the new columns.
            if version == 1:
                # v1 -> v2: the trace correlation column.
                self._execute("ALTER TABLE runs ADD COLUMN trace_id TEXT")
                version = 2
            if version == 2:
                # v2 -> v3: the worker-fleet lease columns.  The
                # ``attempts`` counter has existed since v1 and keeps
                # serving as the per-run attempt count.
                self._execute("ALTER TABLE runs ADD COLUMN owner_id TEXT")
                self._execute(
                    f"ALTER TABLE runs ADD COLUMN lease_expires_at "
                    f"{self.float_type}"
                )
                self._execute(
                    f"ALTER TABLE runs ADD COLUMN heartbeat_at "
                    f"{self.float_type}"
                )
                version = 3
            self._write_version(SCHEMA_VERSION)

    def _create_fresh(self) -> None:
        real = self.float_type
        self._execute(
            f"""
            CREATE TABLE IF NOT EXISTS runs (
                run_id           TEXT PRIMARY KEY,
                kind             TEXT NOT NULL,
                params           TEXT NOT NULL,
                state            TEXT NOT NULL,
                created_at       {real} NOT NULL,
                updated_at       {real} NOT NULL,
                attempts         INTEGER NOT NULL DEFAULT 0,
                max_attempts     INTEGER NOT NULL DEFAULT 3,
                not_before       {real} NOT NULL DEFAULT 0,
                error            TEXT,
                result           TEXT,
                trace_id         TEXT,
                owner_id         TEXT,
                lease_expires_at {real},
                heartbeat_at     {real}
            )
            """
        )
        self._execute(
            "CREATE INDEX IF NOT EXISTS runs_by_state "
            "ON runs (state, not_before, created_at)"
        )

    def schema_version(self) -> int:
        """The stored schema version stamp."""
        with self._lock:
            return self._read_version()

    # -- writes ------------------------------------------------------------

    def insert(self, record: RunRecord) -> None:
        """Persist a brand-new queued run."""
        with self._lock:
            self._execute(
                "INSERT INTO runs (run_id, kind, params, state, created_at,"
                " updated_at, attempts, max_attempts, not_before, trace_id)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    record.run_id,
                    record.kind,
                    params_to_json(record.params),
                    record.state,
                    record.created_at,
                    record.updated_at,
                    record.attempts,
                    record.max_attempts,
                    record.not_before,
                    record.trace_id,
                ),
            )

    def claim_next(
        self,
        now: float,
        *,
        owner_id: str | None = None,
        lease_expires_at: float | None = None,
    ) -> RunRecord | None:
        """Atomically claim the oldest eligible queued run."""
        with self._lock:
            self._begin_exclusive()
            try:
                cursor = self._execute(
                    f"{_SELECT} WHERE state = 'queued' AND not_before <= ?"
                    f" ORDER BY created_at, run_id LIMIT 1"
                    f"{self._claim_select_suffix()}",
                    (now,),
                )
                row = cursor.fetchone()
                if row is None:
                    self._rollback()
                    return None
                run_id = row[0]
                updated = self._execute(
                    "UPDATE runs SET state = 'running',"
                    " attempts = attempts + 1, updated_at = ?,"
                    " owner_id = ?, lease_expires_at = ?, heartbeat_at = ?"
                    " WHERE run_id = ? AND state = 'queued'",
                    (
                        now,
                        owner_id,
                        lease_expires_at,
                        now if owner_id is not None else None,
                        run_id,
                    ),
                ).rowcount
                if updated != 1:  # pragma: no cover - excluded by BEGIN
                    self._rollback()
                    return None
                self._commit()
            except BaseException:
                self._rollback()
                raise
        return self.fetch(run_id)

    def heartbeat(
        self,
        run_id: str,
        owner_id: str,
        *,
        now: float,
        lease_expires_at: float,
    ) -> bool:
        """Renew a live lease; ``False`` when no longer held."""
        with self._lock:
            cursor = self._execute(
                "UPDATE runs SET heartbeat_at = ?, lease_expires_at = ?,"
                " updated_at = ?"
                " WHERE run_id = ? AND state = 'running' AND owner_id = ?",
                (now, lease_expires_at, now, run_id, owner_id),
            )
            return cursor.rowcount == 1

    def transition(
        self,
        run_id: str,
        expect: str,
        state: str,
        *,
        now: float,
        result: str | None = None,
        error: str | None = None,
        not_before: float = 0.0,
        owner_id: str | None = None,
        clear_lease: bool = False,
    ) -> bool:
        """Compare-and-set one row from ``expect`` to ``state``."""
        statement = (
            "UPDATE runs SET state = ?, updated_at = ?, not_before = ?,"
            " result = COALESCE(?, result), error = COALESCE(?, error)"
        )
        args: list[Any] = [state, now, not_before, result, error]
        if clear_lease:
            statement += (
                ", owner_id = NULL, lease_expires_at = NULL,"
                " heartbeat_at = NULL"
            )
        statement += " WHERE run_id = ? AND state = ?"
        args += [run_id, expect]
        if owner_id is not None:
            statement += " AND owner_id = ?"
            args.append(owner_id)
        with self._lock:
            cursor = self._execute(statement, tuple(args))
            return cursor.rowcount == 1

    def expire_leases(self, now: float) -> list[RunRecord]:
        """Requeue (or, on the last attempt, fail) expired leases."""
        with self._lock:
            self._begin_exclusive()
            try:
                rows = self._execute(
                    f"{_SELECT} WHERE state = 'running'"
                    f" AND owner_id IS NOT NULL AND lease_expires_at <= ?"
                    f" ORDER BY lease_expires_at, run_id"
                    f"{self._claim_select_suffix()}",
                    (now,),
                ).fetchall()
                expired = []
                for row in rows:
                    record = _row_to_record(row)
                    state, error = expired_lease_outcome(record)
                    self._execute(
                        "UPDATE runs SET state = ?, error = ?,"
                        " not_before = 0, owner_id = NULL,"
                        " lease_expires_at = NULL, heartbeat_at = NULL,"
                        " updated_at = ? WHERE run_id = ?"
                        " AND state = 'running' AND owner_id = ?",
                        (state, error, now, record.run_id, record.owner_id),
                    )
                    expired.append(replace(record, state=state, error=error))
                self._commit()
            except BaseException:
                self._rollback()
                raise
        return expired

    def recover_interrupted(self, now: float) -> int:
        """Requeue ownerless running rows (unleased claims)."""
        with self._lock:
            cursor = self._execute(
                "UPDATE runs SET state = 'queued', not_before = 0,"
                " updated_at = ? WHERE state = 'running'"
                " AND owner_id IS NULL",
                (now,),
            )
            return cursor.rowcount

    # -- reads -------------------------------------------------------------

    def fetch(self, run_id: str) -> RunRecord | None:
        """One record, or ``None`` when unknown."""
        with self._lock:
            row = self._execute(
                f"{_SELECT} WHERE run_id = ?", (run_id,)
            ).fetchone()
        return None if row is None else _row_to_record(row)

    def next_eligible_at(self) -> float | None:
        """Earliest ``not_before`` among queued runs."""
        with self._lock:
            row = self._execute(
                "SELECT MIN(not_before) FROM runs WHERE state = 'queued'"
            ).fetchone()
        return None if row is None or row[0] is None else float(row[0])

    def list_runs(
        self, state: str | None = None, *, limit: int = 100
    ) -> list[RunRecord]:
        """Runs newest-first, optionally filtered by state."""
        query = _SELECT
        args: tuple = ()
        if state is not None:
            query += " WHERE state = ?"
            args = (state,)
        query += " ORDER BY created_at DESC, run_id LIMIT ?"
        with self._lock:
            rows = self._execute(query, (*args, limit)).fetchall()
        return [_row_to_record(row) for row in rows]

    def counts_by_state(self) -> dict[str, int]:
        """``{state: count}`` over every known state (zeros included)."""
        with self._lock:
            rows = self._execute(
                "SELECT state, COUNT(*) FROM runs GROUP BY state"
            ).fetchall()
        counts = {state: 0 for state in RUN_STATES}
        for state, n in rows:
            counts[state] = n
        return counts

    def unfinished(self) -> list[RunRecord]:
        """Every run not yet terminal, oldest first."""
        with self._lock:
            rows = self._execute(
                f"{_SELECT} WHERE state IN ('queued', 'running')"
                f" ORDER BY created_at, run_id"
            ).fetchall()
        return [_row_to_record(row) for row in rows]

    def live_leases(self, now: float) -> list[LeaseView]:
        """Leases still live at ``now``, oldest heartbeat first."""
        with self._lock:
            rows = self._execute(
                "SELECT run_id, owner_id, lease_expires_at, heartbeat_at"
                " FROM runs WHERE state = 'running'"
                " AND owner_id IS NOT NULL AND lease_expires_at > ?"
                " ORDER BY heartbeat_at, run_id",
                (now,),
            ).fetchall()
        return [LeaseView(*row) for row in rows]

    # -- plumbing ----------------------------------------------------------

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        with self._lock:
            self._conn.close()
