"""The run store on its SQLite file: schema, WAL, lifecycle rules.

Leases, expiry and the other behaviour every dialect shares are also
asserted in the contract suite of test_backends.py.
"""

from __future__ import annotations

import sqlite3
import time

import pytest

from repro.exceptions import ServiceError
from repro.service.store import RUN_STATES, SCHEMA_VERSION, RunStore
from tests.service.conftest import FakeClock


@pytest.fixture
def store(tmp_path) -> RunStore:
    with RunStore(tmp_path / "runs.db") as s:
        yield s


class TestSchema:
    def test_wal_mode(self, store) -> None:
        # WAL persists in the file, so any connection can observe it.
        conn = sqlite3.connect(store.path)
        mode = conn.execute("PRAGMA journal_mode").fetchone()[0]
        conn.close()
        assert mode == "wal"

    def test_user_version_stamped(self, store) -> None:
        assert store.schema_version() == SCHEMA_VERSION

    def test_reopen_existing(self, tmp_path) -> None:
        path = tmp_path / "runs.db"
        with RunStore(path) as first:
            run_id = first.submit("sleep", {"seconds": 0})
        with RunStore(path) as second:
            assert second.get(run_id).kind == "sleep"

    def test_newer_schema_refused(self, tmp_path) -> None:
        path = tmp_path / "runs.db"
        RunStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        conn.commit()
        conn.close()
        with pytest.raises(ServiceError) as exc:
            RunStore(path)
        assert exc.value.code == "schema-version"

    def test_v1_store_migrates_to_current(self, tmp_path) -> None:
        # A pre-tracing (v1) store: same runs table minus trace_id and
        # the lease columns.  Opening it must walk the whole migration
        # chain, stamp the current version, and leave the old rows
        # readable with trace_id None.
        path = tmp_path / "runs.db"
        conn = sqlite3.connect(path)
        conn.execute(
            """
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
        )
        conn.execute(
            "INSERT INTO runs (run_id, kind, params, state, created_at,"
            " updated_at, attempts, max_attempts, not_before)"
            " VALUES ('old1', 'sleep', '{}', 'done', 1.0, 2.0, 1, 3, 0)"
        )
        conn.execute("PRAGMA user_version = 1")
        conn.commit()
        conn.close()

        with RunStore(path) as store:
            assert store.schema_version() == SCHEMA_VERSION == 3
            old = store.get("old1")
            assert old.trace_id is None
            assert old.owner_id is None and old.lease_expires_at is None
            assert old.summary()["trace_id"] is None
            # New rows use the column immediately.
            new_id = store.submit(
                "sleep", {"seconds": 0}, trace_id="t" * 16
            )
            assert store.get(new_id).trace_id == "t" * 16

        # Migration is idempotent across reopens.
        with RunStore(path) as store:
            assert store.get("old1").trace_id is None

    def test_concurrent_reader_sees_committed_rows(self, tmp_path) -> None:
        # WAL's point: a second connection reads while the store writes.
        path = tmp_path / "runs.db"
        with RunStore(path) as writer:
            run_id = writer.submit("sleep", {"seconds": 0})
            with RunStore(path) as reader:
                assert reader.get(run_id).state == "queued"
                writer.claim_next()
                assert reader.get(run_id).state == "running"


class TestLifecycle:
    def test_submit_and_get(self, store) -> None:
        run_id = store.submit("campaign", {"clusters": 2}, max_attempts=5)
        record = store.get(run_id)
        assert record.state == "queued"
        assert record.kind == "campaign"
        assert record.params == {"clusters": 2}
        assert record.attempts == 0
        assert record.max_attempts == 5
        assert not record.finished

    def test_get_unknown(self, store) -> None:
        with pytest.raises(ServiceError) as exc:
            store.get("nope")
        assert exc.value.code == "unknown-run"

    def test_submit_rejects_zero_attempts(self, store) -> None:
        with pytest.raises(ServiceError):
            store.submit("sleep", {}, max_attempts=0)

    def test_claim_is_fifo_and_bumps_attempts(self, store) -> None:
        first = store.submit("sleep", {"n": 1})
        second = store.submit("sleep", {"n": 2})
        claimed = store.claim_next()
        assert claimed.run_id == first
        assert claimed.state == "running"
        assert claimed.attempts == 1
        assert store.claim_next().run_id == second
        assert store.claim_next() is None

    def test_claim_honours_backoff_deadline(self, store) -> None:
        run_id = store.submit("sleep", {})
        store.claim_next()
        store.requeue_for_retry(
            run_id, "boom", not_before=time.time() + 60.0
        )
        assert store.claim_next() is None  # still backing off
        assert store.claim_next(now=time.time() + 61.0).run_id == run_id

    def test_done_roundtrips_result(self, store) -> None:
        run_id = store.submit("sleep", {})
        store.claim_next()
        store.mark_done(run_id, '{"x": 1}')
        record = store.get(run_id)
        assert record.state == "done"
        assert record.result == '{"x": 1}'
        assert record.finished

    def test_failed_records_error(self, store) -> None:
        run_id = store.submit("sleep", {})
        store.claim_next()
        store.mark_failed(run_id, "exploded")
        record = store.get(run_id)
        assert record.state == "failed"
        assert record.error == "exploded"

    def test_illegal_transition(self, store) -> None:
        run_id = store.submit("sleep", {})
        with pytest.raises(ServiceError) as exc:
            store.mark_done(run_id, "{}")  # queued, not running
        assert exc.value.code == "bad-transition"

    def test_cancel_only_queued(self, store) -> None:
        run_id = store.submit("sleep", {})
        assert store.cancel(run_id).state == "cancelled"
        running = store.submit("sleep", {})
        store.claim_next()
        with pytest.raises(ServiceError) as exc:
            store.cancel(running)
        assert exc.value.code == "not-cancellable"

    def test_recover_interrupted(self, store) -> None:
        ids = [store.submit("sleep", {}) for _ in range(3)]
        store.claim_next()
        store.claim_next()
        assert store.recover_interrupted() == 2
        states = {store.get(run_id).state for run_id in ids}
        assert states == {"queued"}
        # The interrupted attempts stay counted.
        assert store.get(ids[0]).attempts == 1


class TestQueries:
    def test_counts_by_state(self, store) -> None:
        store.submit("sleep", {})
        store.submit("sleep", {})
        store.claim_next()
        counts = store.counts_by_state()
        assert counts["running"] == 1
        assert counts["queued"] == 1
        assert set(counts) == set(RUN_STATES)
        assert store.queue_depth() == 1
        assert len(store.unfinished()) == 2
    def test_list_runs_filter_and_limit(self, store) -> None:
        for _ in range(5):
            store.submit("sleep", {})
        assert len(store.list_runs(limit=3)) == 3
        assert len(store.list_runs("queued")) == 5
        assert store.list_runs("done") == []
        with pytest.raises(ServiceError):
            store.list_runs("bogus")

    def test_summary_projection(self, store) -> None:
        run_id = store.submit("campaign", {"clusters": 2})
        summary = store.get(run_id).summary()
        assert summary["run_id"] == run_id
        assert summary["state"] == "queued"
        assert "result" not in summary


class TestInjectedClock:
    """Retry/backoff semantics exercised without touching real time."""

    @pytest.fixture
    def ticking(self, tmp_path):
        clock = FakeClock()
        with RunStore(tmp_path / "runs.db", clock=clock) as s:
            yield s, clock

    def test_timestamps_come_from_the_injected_clock(self, ticking) -> None:
        store, clock = ticking
        run_id = store.submit("sleep", {})
        record = store.get(run_id)
        assert record.created_at == clock.now == 1_000.0
        clock.advance(7.5)
        store.claim_next()
        assert store.get(run_id).updated_at == 1_007.5

    def test_backoff_elapses_in_fake_time_only(self, ticking) -> None:
        store, clock = ticking
        run_id = store.submit("sleep", {})
        store.claim_next()
        store.requeue_for_retry(run_id, "boom", not_before=clock.now + 60.0)
        # Real wall-clock time is irrelevant: only the fake clock gates
        # eligibility, so the deadline can be crossed instantly.
        assert store.claim_next() is None
        clock.advance(59.9)
        assert store.claim_next() is None
        clock.advance(0.2)
        assert store.claim_next().run_id == run_id

    def test_recovery_stamps_fake_time(self, ticking) -> None:
        store, clock = ticking
        run_id = store.submit("sleep", {})
        store.claim_next()
        clock.advance(123.0)
        assert store.recover_interrupted() == 1
        record = store.get(run_id)
        assert record.state == "queued"
        assert record.updated_at == 1_123.0
