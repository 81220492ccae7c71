"""The storage contract: the run store behaves identically on every dialect.

Every :class:`~repro.service.store.RunStore` operation runs against
the SQLite file dialect, the in-memory one, and the Postgres dialect
over a stand-in driver (:mod:`tests.service.pg_standin`), on a fake
clock: claim order, lease stamps, owner-checked compare-and-set,
expiry outcomes and sticky result/error.  Also here: URL dispatch,
the psycopg gating of the Postgres backend, and the statements only a
real Postgres server can test.
"""

from __future__ import annotations

import concurrent.futures
import sys

import pytest

from repro.exceptions import ServiceError
from repro.service.backends import (
    RUN_STATES,
    SCHEMA_VERSION,
    MemoryBackend,
    PostgresBackend,
    SQLiteBackend,
    backend_from_url,
)
from repro.service.backends.postgres import load_driver
from repro.service.store import RunStore
from tests.service.conftest import FakeClock
from tests.service.pg_standin import StandInDriver


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock(0.0)


@pytest.fixture(params=["sqlite", "memory", "postgres"])
def store(request, tmp_path, clock) -> RunStore:
    if request.param == "sqlite":
        backend = SQLiteBackend(tmp_path / "contract.db")
    elif request.param == "memory":
        backend = MemoryBackend()
    else:
        backend = PostgresBackend(
            "postgres://stand-in", driver=StandInDriver()
        )
    with RunStore(backend, clock=clock) as made:
        yield made


def _submit(store: RunStore, clock: FakeClock, at: float, **kwargs) -> str:
    clock.now = at
    return store.submit("sleep", {"seconds": 0}, **kwargs)


def _backing_off(
    store: RunStore, clock: FakeClock, at: float, until: float
) -> str:
    """A queued run created at ``at`` whose backoff lasts until ``until``."""
    run_id = _submit(store, clock, at)
    store.claim_next(at)
    store.requeue_for_retry(run_id, "boom", not_before=until)
    return run_id


class TestContract:
    def test_schema_version(self, store) -> None:
        assert store.schema_version() == SCHEMA_VERSION

    def test_insert_fetch_roundtrip(self, store, clock) -> None:
        run_id = _submit(store, clock, 100.0, trace_id="trace-r1")
        got = store.get(run_id)
        assert got.run_id == run_id
        assert got.params == {"seconds": 0}
        assert (got.state, got.attempts, got.max_attempts) == ("queued", 0, 3)
        assert got.created_at == got.updated_at == 100.0
        assert got.trace_id == "trace-r1"
        assert got.owner_id is None
        assert got.lease_expires_at is None
        assert got.heartbeat_at is None
        with pytest.raises(ServiceError) as exc:
            store.get("ghost")
        assert exc.value.code == "unknown-run"

    def test_claim_oldest_eligible_first(self, store, clock) -> None:
        waiting = _backing_off(store, clock, 50.0, until=999.0)
        late = _submit(store, clock, 200.0)
        early = _submit(store, clock, 100.0)
        claimed = store.claim_next(300.0)
        assert claimed.run_id == early
        assert claimed.state == "running"
        assert claimed.attempts == 1
        assert store.claim_next(300.0).run_id == late
        assert store.claim_next(300.0) is None
        assert store.claim_next(999.0).run_id == waiting

    def test_legacy_claim_has_no_lease(self, store, clock) -> None:
        _submit(store, clock, 100.0)
        claimed = store.claim_next(150.0)
        assert claimed.owner_id is None
        assert claimed.lease_expires_at is None
        assert claimed.heartbeat_at is None

    def test_leased_claim_stamps_owner(self, store, clock) -> None:
        _submit(store, clock, 100.0)
        claimed = store.claim_next(150.0, owner_id="w1", lease_seconds=15.0)
        assert claimed.owner_id == "w1"
        assert claimed.lease_expires_at == 165.0
        assert claimed.heartbeat_at == 150.0

    @pytest.mark.parametrize("owner", [None, "w1"])
    def test_claimed_record_is_the_stored_row(self, store, owner) -> None:
        # The claim builds its record from the row it selected, with no
        # second read; it must match a fresh read exactly.
        run_id = store.submit("sleep", {"seconds": 0}, max_attempts=2)
        lease = None if owner is None else 15.0
        claimed = store.claim_next(
            300.0, owner_id=owner, lease_seconds=lease
        )
        assert claimed == store.get(run_id)
        assert claimed.attempts == 1

    def test_claim_none_when_nothing_eligible(self, store, clock) -> None:
        assert store.claim_next(100.0) is None
        assert store.next_eligible_at() is None
        _backing_off(store, clock, 50.0, until=500.0)
        assert store.claim_next(100.0) is None
        assert store.next_eligible_at() == 500.0

    def test_heartbeat_owner_checked(self, store, clock) -> None:
        run_id = _submit(store, clock, 90.0)
        store.claim_next(100.0, owner_id="w1", lease_seconds=15.0)
        assert store.heartbeat(run_id, "w1", lease_seconds=15.0, now=110.0)
        got = store.get(run_id)
        assert got.lease_expires_at == 125.0
        assert got.heartbeat_at == 110.0
        # Wrong owner, unknown run, and non-running rows all refuse.
        for owner, target in (("w2", run_id), ("w1", "ghost")):
            assert not store.heartbeat(
                target, owner, lease_seconds=15.0, now=111.0
            )
        store.mark_done(run_id, "{}")
        assert not store.heartbeat(
            run_id, "w1", lease_seconds=15.0, now=113.0
        )

    def test_transition_owner_checked_and_clears_lease(
        self, store, clock
    ) -> None:
        run_id = _submit(store, clock, 90.0)
        store.claim_next(100.0, owner_id="w1", lease_seconds=15.0)
        with pytest.raises(ServiceError) as exc:
            store.mark_done(run_id, "{}", owner_id="w2")
        assert exc.value.code == "lease-lost"
        assert store.get(run_id).state == "running"
        store.mark_done(run_id, "{}", owner_id="w1")
        got = store.get(run_id)
        assert got.state == "done"
        assert got.owner_id is None
        assert got.lease_expires_at is None
        assert got.heartbeat_at is None

    def test_expire_leases_only_past_deadline(self, store, clock) -> None:
        expired_id = _submit(store, clock, 90.0)
        live_id = _submit(store, clock, 91.0)
        legacy_id = _submit(store, clock, 92.0)
        store.claim_next(100.0, owner_id="w1", lease_seconds=10.0)
        store.claim_next(100.0, owner_id="w2", lease_seconds=100.0)
        store.claim_next(100.0)  # legacy claim, no lease
        expired = store.expire_leases(150.0)
        assert [r.run_id for r in expired] == [expired_id]
        # The returned record still names its lost owner.
        assert expired[0].owner_id == "w1"
        assert store.get(expired_id).state == "queued"
        assert store.get(expired_id).owner_id is None
        assert store.get(live_id).state == "running"
        assert store.get(legacy_id).state == "running"

    def test_recover_interrupted_respects_live_leases(
        self, store, clock
    ) -> None:
        # The start-up pass requeues only ownerless rows: leased ones,
        # live or expired, belong to the reaper.
        legacy_id = _submit(store, clock, 90.0)
        expired_id = _submit(store, clock, 91.0)
        live_id = _submit(store, clock, 92.0)
        store.claim_next(100.0)  # legacy
        store.claim_next(100.0, owner_id="w1", lease_seconds=10.0)
        store.claim_next(100.0, owner_id="w2", lease_seconds=400.0)
        clock.now = 200.0
        assert store.recover_interrupted() == 1
        legacy = store.get(legacy_id)
        assert legacy.state == "queued"
        # The interrupted attempt stays counted.
        assert legacy.attempts == 1
        expired = store.get(expired_id)
        assert (expired.state, expired.owner_id) == ("running", "w1")
        live = store.get(live_id)
        assert live.state == "running"
        assert live.owner_id == "w2"

    def test_expire_leases_fails_runs_on_their_last_attempt(
        self, store, clock
    ) -> None:
        # The reaper honours the attempt budget: an expired lease on the
        # final attempt fails the run instead of requeueing it.
        spent_id = _submit(store, clock, 90.0, max_attempts=1)
        spare_id = _submit(store, clock, 91.0, max_attempts=2)
        store.claim_next(100.0, owner_id="w1", lease_seconds=10.0)
        store.claim_next(100.0, owner_id="w2", lease_seconds=10.0)
        expired = store.expire_leases(150.0)
        # The reaper reads each outcome off the returned records, which
        # still name the owner that lost them.
        assert {r.run_id: (r.state, r.owner_id) for r in expired} == {
            spent_id: ("failed", "w1"),
            spare_id: ("queued", "w2"),
        }
        spent = store.get(spent_id)
        assert spent.state == "failed"
        assert spent.error == "lease expired on final attempt"
        assert spent.owner_id is None
        spare = store.get(spare_id)
        assert spare.state == "queued"
        assert spare.error is None

    def test_live_leases_view(self, store, clock) -> None:
        a = _submit(store, clock, 90.0)
        b = _submit(store, clock, 91.0)
        store.claim_next(100.0, owner_id="w1", lease_seconds=100.0)
        store.claim_next(105.0, owner_id="w2", lease_seconds=100.0)
        views = store.live_leases(150.0)
        assert [(v.run_id, v.owner_id) for v in views] == [
            (a, "w1"), (b, "w2"),
        ]
        assert views[0].age(150.0) == 50.0
        assert store.live_leases(201.0) == views[1:]

    def test_counts_and_listing(self, store, clock) -> None:
        r1 = _submit(store, clock, 100.0)
        r2 = _submit(store, clock, 200.0)
        store.claim_next(300.0)
        counts = store.counts_by_state()
        assert set(counts) == set(RUN_STATES)
        assert counts["queued"] == 1
        assert counts["running"] == 1
        assert counts["cancelled"] == 0
        assert store.queue_depth() == 1
        newest_first = store.list_runs()
        assert [r.run_id for r in newest_first] == [r2, r1]
        assert [r.run_id for r in store.list_runs("queued")] == [r2]
        assert [r.run_id for r in store.unfinished()] == [r1, r2]

    def test_result_and_error_are_sticky(self, store, clock) -> None:
        # COALESCE semantics: a transition without result/error keeps
        # the stored values (the retry path preserves the last error).
        run_id = _submit(store, clock, 90.0)
        store.claim_next(100.0)
        store.requeue_for_retry(run_id, "attempt 1 broke", not_before=0.0)
        store.claim_next(120.0)
        store.mark_done(run_id, "{}")
        got = store.get(run_id)
        assert got.error == "attempt 1 broke"
        assert got.result == "{}"

    def test_cancel_racing_a_claim_is_not_cancellable(
        self, store, clock
    ) -> None:
        # A worker claims the run just before the cancel writes: the
        # cancel is one compare-and-set, so the client hears
        # not-cancellable, never an internal bad-transition.
        run_id = _submit(store, clock, 90.0)
        claims = []

        def racing_clock() -> float:
            if not claims:
                claims.append(store.claim_next(100.0))
            return 100.0

        with pytest.raises(ServiceError) as exc:
            RunStore(store.backend, clock=racing_clock).cancel(run_id)
        assert exc.value.code == "not-cancellable"
        assert claims[0].run_id == run_id
        assert store.get(run_id).state == "running"
        with pytest.raises(ServiceError) as exc:
            store.cancel("ghost")
        assert exc.value.code == "unknown-run"


class TestSQLiteConcurrency:
    def test_parallel_claims_never_double_claim(self, tmp_path) -> None:
        # Many claimants over *separate connections* to one file — the
        # cross-process topology of a worker fleet on one host.  Every
        # claim must land on a distinct run.
        path = tmp_path / "race.db"
        clock = FakeClock(0.0)
        seed_store = RunStore(SQLiteBackend(path), clock=clock)
        run_ids = [_submit(seed_store, clock, float(i)) for i in range(12)]
        stores = [
            RunStore(SQLiteBackend(path), clock=FakeClock(1000.0))
            for _ in range(4)
        ]

        def claim_all(index: int) -> list[str]:
            claimed = []
            while True:
                record = stores[index].claim_next(
                    owner_id=f"w{index}", lease_seconds=1000.0
                )
                if record is None:
                    return claimed
                claimed.append(record.run_id)

        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(claim_all, range(4)))
        flat = [run_id for chunk in results for run_id in chunk]
        assert sorted(flat) == sorted(run_ids)
        assert len(set(flat)) == 12
        for each in [seed_store, *stores]:
            each.close()


class TestPostgresStandIn:
    def test_only_the_row_locks_need_a_server(self) -> None:
        # Submit, claim, heartbeat, done, expiry and cancel through the
        # Postgres dialect: every statement runs on the stand-in, and
        # the only ones it had to rewrite are the SKIP LOCKED claim and
        # expiry SELECTs.
        driver = StandInDriver()
        backend = PostgresBackend("postgres://stand-in", driver=driver)
        with RunStore(backend, clock=FakeClock(100.0)) as store:
            assert store.schema_version() == SCHEMA_VERSION == 3
            done = store.submit("sleep", {})
            store.claim_next(owner_id="w1", lease_seconds=10.0)
            assert store.heartbeat(done, "w1", lease_seconds=10.0)
            store.mark_done(done, "{}", owner_id="w1")
            lost = store.submit("sleep", {})
            store.claim_next(owner_id="w1", lease_seconds=10.0)
            assert [r.run_id for r in store.expire_leases(200.0)] == [lost]
            assert store.cancel(lost).state == "cancelled"
            assert store.get(done).state == "done"
        claim = (
            "WHERE state = 'queued' AND not_before <= %s"
            " ORDER BY created_at, run_id LIMIT 1"
        )
        expiry = (
            "WHERE state = 'running' AND owner_id IS NOT NULL"
            " AND lease_expires_at <= %s ORDER BY lease_expires_at, run_id"
        )
        assert [sql.split(" FROM runs ")[1] for sql in driver.rewrites] == [
            claim, claim, expiry,
        ]


class TestBackendFromUrl:
    def test_plain_path_is_sqlite(self, tmp_path) -> None:
        backend = backend_from_url(tmp_path / "runs.db")
        assert isinstance(backend, SQLiteBackend)
        assert backend.name == "sqlite"
        backend.close()

    def test_sqlite_url_forms(self, tmp_path) -> None:
        backend = backend_from_url(f"sqlite:{tmp_path / 'a.db'}")
        assert isinstance(backend, SQLiteBackend)
        assert backend.path == str(tmp_path / "a.db")
        backend.close()
        backend = backend_from_url(f"sqlite://{tmp_path / 'b.db'}")
        assert backend.path == str(tmp_path / "b.db")
        backend.close()

    def test_memory_url(self) -> None:
        backend = backend_from_url("memory://")
        assert isinstance(backend, MemoryBackend)
        assert backend.url == "memory://"
        backend.close()

    def test_postgres_url_dispatches(self, monkeypatch) -> None:
        # Dispatch reaches the Postgres backend; without a driver the
        # construction fails with the typed gating error.
        monkeypatch.setitem(sys.modules, "psycopg", None)
        monkeypatch.setitem(sys.modules, "psycopg2", None)
        with pytest.raises(ServiceError) as exc:
            backend_from_url("postgres://user@host/db")
        assert exc.value.code == "backend-unavailable"


class TestPostgresGating:
    def test_load_driver_error_is_typed(self, monkeypatch) -> None:
        monkeypatch.setitem(sys.modules, "psycopg", None)
        monkeypatch.setitem(sys.modules, "psycopg2", None)
        with pytest.raises(ServiceError) as exc:
            load_driver()
        assert exc.value.code == "backend-unavailable"
        assert "psycopg" in str(exc.value)

    def test_backend_class_attributes(self) -> None:
        # The dialect hooks that differ from SQLite are declared even
        # when no driver is installed (class-level contract).
        assert PostgresBackend.placeholder == "%s"
        assert PostgresBackend.float_type == "DOUBLE PRECISION"
        assert PostgresBackend.name == "postgres"
