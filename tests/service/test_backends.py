"""The storage-contract suite: every backend behaves identically.

Runs the same assertions against the SQLite backend and the in-memory
fake (the ISSUE's acceptance criterion), plus URL dispatch and the
psycopg gating of the Postgres backend.  Lease semantics are exercised
at the backend level here; policy-level behavior (typed errors, clock
injection) lives in test_store.py / test_fleet.py.
"""

from __future__ import annotations

import concurrent.futures
import sys

import pytest

from repro.exceptions import ServiceError
from repro.service.backends import (
    SCHEMA_VERSION,
    MemoryBackend,
    PostgresBackend,
    SQLiteBackend,
    StorageBackend,
    backend_from_url,
)
from repro.service.backends.base import RunRecord
from repro.service.backends.postgres import load_driver
from repro.service.store import RunStore


def _record(run_id: str, created_at: float = 100.0, **overrides) -> RunRecord:
    defaults = dict(
        run_id=run_id,
        kind="sleep",
        params={"seconds": 0},
        state="queued",
        created_at=created_at,
        updated_at=created_at,
        attempts=0,
        max_attempts=3,
        not_before=0.0,
        error=None,
        result=None,
        trace_id=f"trace-{run_id}",
    )
    defaults.update(overrides)
    return RunRecord(**defaults)


@pytest.fixture(params=["sqlite", "memory"])
def backend(request, tmp_path) -> StorageBackend:
    if request.param == "sqlite":
        made = SQLiteBackend(tmp_path / "contract.db")
    else:
        made = MemoryBackend()
    yield made
    made.close()


class TestContract:
    def test_schema_version(self, backend) -> None:
        assert backend.schema_version() == SCHEMA_VERSION

    def test_insert_fetch_roundtrip(self, backend) -> None:
        backend.insert(_record("r1"))
        got = backend.fetch("r1")
        assert got.run_id == "r1"
        assert got.params == {"seconds": 0}
        assert got.trace_id == "trace-r1"
        assert got.owner_id is None
        assert got.lease_expires_at is None
        assert got.heartbeat_at is None
        assert backend.fetch("ghost") is None

    def test_claim_oldest_eligible_first(self, backend) -> None:
        backend.insert(_record("late", created_at=200.0))
        backend.insert(_record("early", created_at=100.0))
        backend.insert(_record("waiting", created_at=50.0, not_before=999.0))
        claimed = backend.claim_next(300.0)
        assert claimed.run_id == "early"
        assert claimed.state == "running"
        assert claimed.attempts == 1

    def test_legacy_claim_has_no_lease(self, backend) -> None:
        backend.insert(_record("r1"))
        claimed = backend.claim_next(150.0)
        assert claimed.owner_id is None
        assert claimed.lease_expires_at is None
        assert claimed.heartbeat_at is None

    def test_leased_claim_stamps_owner(self, backend) -> None:
        backend.insert(_record("r1"))
        claimed = backend.claim_next(
            150.0, owner_id="w1", lease_expires_at=165.0
        )
        assert claimed.owner_id == "w1"
        assert claimed.lease_expires_at == 165.0
        assert claimed.heartbeat_at == 150.0

    @pytest.mark.parametrize("owner", [None, "w1"])
    def test_claimed_record_is_the_stored_row(self, backend, owner) -> None:
        # The claim builds its record from the row it selected, with no
        # second read; it must match a fresh read exactly.
        store = RunStore(backend)
        run_id = store.submit("sleep", {"seconds": 0}, max_attempts=2)
        lease = None if owner is None else 15.0
        claimed = store.claim_next(
            300.0, owner_id=owner, lease_seconds=lease
        )
        assert claimed == store.get(run_id)
        assert claimed.attempts == 1

    def test_claim_none_when_nothing_eligible(self, backend) -> None:
        assert backend.claim_next(100.0) is None
        backend.insert(_record("r1", not_before=500.0))
        assert backend.claim_next(100.0) is None
        assert backend.next_eligible_at() == 500.0

    def test_heartbeat_owner_checked(self, backend) -> None:
        backend.insert(_record("r1"))
        backend.claim_next(100.0, owner_id="w1", lease_expires_at=115.0)
        assert backend.heartbeat(
            "r1", "w1", now=110.0, lease_expires_at=125.0
        )
        got = backend.fetch("r1")
        assert got.lease_expires_at == 125.0
        assert got.heartbeat_at == 110.0
        # Wrong owner, unknown run, and non-running rows all refuse.
        assert not backend.heartbeat(
            "r1", "w2", now=111.0, lease_expires_at=126.0
        )
        assert not backend.heartbeat(
            "ghost", "w1", now=111.0, lease_expires_at=126.0
        )
        backend.transition("r1", "running", "done", now=112.0, result="{}")
        assert not backend.heartbeat(
            "r1", "w1", now=113.0, lease_expires_at=128.0
        )

    def test_transition_owner_checked_and_clears_lease(self, backend) -> None:
        backend.insert(_record("r1"))
        backend.claim_next(100.0, owner_id="w1", lease_expires_at=115.0)
        assert not backend.transition(
            "r1", "running", "done", now=110.0, result="{}", owner_id="w2"
        )
        assert backend.fetch("r1").state == "running"
        assert backend.transition(
            "r1", "running", "done",
            now=110.0, result="{}", owner_id="w1", clear_lease=True,
        )
        got = backend.fetch("r1")
        assert got.state == "done"
        assert got.owner_id is None
        assert got.lease_expires_at is None
        assert got.heartbeat_at is None

    def test_expire_leases_only_past_deadline(self, backend) -> None:
        backend.insert(_record("expired", created_at=90.0))
        backend.insert(_record("live", created_at=91.0))
        backend.insert(_record("legacy", created_at=92.0))
        backend.claim_next(100.0, owner_id="w1", lease_expires_at=110.0)
        backend.claim_next(100.0, owner_id="w2", lease_expires_at=200.0)
        backend.claim_next(100.0)  # legacy claim, no lease
        expired = backend.expire_leases(150.0)
        assert [r.run_id for r in expired] == ["expired"]
        # The returned record still names its lost owner.
        assert expired[0].owner_id == "w1"
        assert backend.fetch("expired").state == "queued"
        assert backend.fetch("expired").owner_id is None
        assert backend.fetch("live").state == "running"
        assert backend.fetch("legacy").state == "running"

    def test_recover_interrupted_respects_live_leases(self, backend) -> None:
        # The start-up pass requeues only ownerless rows: leased ones,
        # live or expired, belong to the reaper.
        backend.insert(_record("legacy", created_at=90.0))
        backend.insert(_record("expired", created_at=91.0))
        backend.insert(_record("live", created_at=92.0))
        backend.claim_next(100.0)  # legacy
        backend.claim_next(100.0, owner_id="w1", lease_expires_at=110.0)
        backend.claim_next(100.0, owner_id="w2", lease_expires_at=500.0)
        recovered = backend.recover_interrupted(200.0)
        assert recovered == 1
        assert backend.fetch("legacy").state == "queued"
        expired = backend.fetch("expired")
        assert (expired.state, expired.owner_id) == ("running", "w1")
        live = backend.fetch("live")
        assert live.state == "running"
        assert live.owner_id == "w2"

    def test_expire_leases_fails_runs_on_their_last_attempt(
        self, backend
    ) -> None:
        # The reaper honours the attempt budget: an expired lease on the
        # final attempt fails the run instead of requeueing it.
        backend.insert(_record("spent", created_at=90.0, max_attempts=1))
        backend.insert(_record("spare", created_at=91.0, max_attempts=2))
        backend.claim_next(100.0, owner_id="w1", lease_expires_at=110.0)
        backend.claim_next(100.0, owner_id="w2", lease_expires_at=110.0)
        expired = backend.expire_leases(150.0)
        # The reaper reads each outcome off the returned records, which
        # still name the owner that lost them.
        assert {r.run_id: (r.state, r.owner_id) for r in expired} == {
            "spent": ("failed", "w1"),
            "spare": ("queued", "w2"),
        }
        spent = backend.fetch("spent")
        assert spent.state == "failed"
        assert spent.error == "lease expired on final attempt"
        assert spent.owner_id is None
        spare = backend.fetch("spare")
        assert spare.state == "queued"
        assert spare.error is None

    def test_live_leases_view(self, backend) -> None:
        backend.insert(_record("a", created_at=90.0))
        backend.insert(_record("b", created_at=91.0))
        backend.claim_next(100.0, owner_id="w1", lease_expires_at=200.0)
        backend.claim_next(105.0, owner_id="w2", lease_expires_at=205.0)
        views = backend.live_leases(150.0)
        assert [(v.run_id, v.owner_id) for v in views] == [
            ("a", "w1"), ("b", "w2"),
        ]
        assert views[0].age(150.0) == 50.0
        assert backend.live_leases(201.0) == views[1:]

    def test_counts_and_listing(self, backend) -> None:
        backend.insert(_record("r1", created_at=100.0))
        backend.insert(_record("r2", created_at=200.0))
        backend.claim_next(300.0)
        counts = backend.counts_by_state()
        assert counts["queued"] == 1
        assert counts["running"] == 1
        assert counts["cancelled"] == 0
        newest_first = backend.list_runs()
        assert [r.run_id for r in newest_first] == ["r2", "r1"]
        assert [r.run_id for r in backend.list_runs("queued")] == ["r2"]
        assert [r.run_id for r in backend.unfinished()] == ["r1", "r2"]

    def test_result_and_error_are_sticky(self, backend) -> None:
        # COALESCE semantics: a transition without result/error keeps
        # the stored values (the retry path preserves the last error).
        backend.insert(_record("r1"))
        backend.claim_next(100.0)
        backend.transition(
            "r1", "running", "queued", now=110.0, error="attempt 1 broke"
        )
        backend.claim_next(120.0)
        backend.transition("r1", "running", "done", now=130.0, result="{}")
        got = backend.fetch("r1")
        assert got.error == "attempt 1 broke"
        assert got.result == "{}"


class TestSQLiteConcurrency:
    def test_parallel_claims_never_double_claim(self, tmp_path) -> None:
        # Many claimants over *separate connections* to one file — the
        # cross-process topology of a worker fleet on one host.  Every
        # claim must land on a distinct run.
        path = tmp_path / "race.db"
        seed_backend = SQLiteBackend(path)
        for index in range(12):
            seed_backend.insert(
                _record(f"r{index:02d}", created_at=float(index))
            )
        backends = [SQLiteBackend(path) for _ in range(4)]

        def claim_all(backend: SQLiteBackend) -> list[str]:
            claimed = []
            while True:
                record = backend.claim_next(
                    1000.0,
                    owner_id=f"w{id(backend) % 97}",
                    lease_expires_at=2000.0,
                )
                if record is None:
                    return claimed
                claimed.append(record.run_id)

        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(claim_all, backends))
        flat = [run_id for chunk in results for run_id in chunk]
        assert sorted(flat) == [f"r{i:02d}" for i in range(12)]
        assert len(set(flat)) == 12
        for backend in [seed_backend, *backends]:
            backend.close()


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
