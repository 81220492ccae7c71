"""Unit tests for the fleet worker: leases, heartbeats, outcomes.

The multi-worker kill matrix lives in tests/faults/test_fleet_chaos.py;
here each lease mechanism is exercised in isolation on a fake clock,
plus the satellite regression: a restarting server must not requeue a
run whose lease is live on a healthy worker.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.exceptions import ServiceError
from repro.service.backends import MemoryBackend
from repro.service.client import ServiceClient
from repro.service import fleet
from repro.service.fleet import (
    FleetWorker,
    WorkerConfig,
    mint_owner_id,
)
from repro.service.server import serve_in_thread
from repro.service.store import RunStore


class FakeClock:
    def __init__(self, start: float = 1_000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture
def store(clock) -> RunStore:
    with RunStore(MemoryBackend(), clock=clock) as s:
        yield s


def _worker(store, clock, owner="w1", **config) -> FleetWorker:
    return FleetWorker(
        store,
        WorkerConfig(**config),
        owner_id=owner,
        clock=clock,
        sleep=lambda _s: None,
    )


def _run_in_thread(worker: FleetWorker) -> tuple[threading.Thread, list]:
    """Start ``worker.run_once()`` on a thread; the list gets its outcome."""
    outcome: list = []
    thread = threading.Thread(target=lambda: outcome.append(worker.run_once()))
    thread.start()
    return thread, outcome


def _await_running(store, run_id: str) -> None:
    deadline = time.monotonic() + 30.0
    while store.get(run_id).state != "running":
        assert time.monotonic() < deadline, "run never claimed"
        time.sleep(0.01)


class TestWorkerConfig:
    def test_defaults_are_valid(self) -> None:
        config = WorkerConfig()
        assert config.heartbeat_interval < config.lease_seconds / 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lease_seconds": 0.0},
            {"lease_seconds": -1.0},
            {"heartbeat_interval": 0.0},
            {"lease_seconds": 10.0, "heartbeat_interval": 5.0},  # == /2
            {"lease_seconds": 10.0, "heartbeat_interval": 9.0},
            {"job_timeout": 0.0},
        ],
    )
    def test_bad_tunables_rejected(self, kwargs) -> None:
        with pytest.raises(ServiceError) as exc:
            WorkerConfig(**kwargs)
        assert exc.value.code == "bad-request"

    def test_mint_owner_id_shape_and_uniqueness(self) -> None:
        ids = {mint_owner_id() for _ in range(32)}
        assert len(ids) == 32
        assert all(owner.startswith("worker-") for owner in ids)


class TestRunOnce:
    def test_idle_returns_none(self, store, clock) -> None:
        worker = _worker(store, clock)
        assert worker.run_once() is None
        assert worker.stats["claims"] == 0

    def test_done_path_clears_lease(self, store, clock) -> None:
        run_id = store.submit("sleep", {"seconds": 0})
        worker = _worker(store, clock)
        assert worker.run_once() == "done"
        record = store.get(run_id)
        assert record.state == "done"
        assert record.owner_id is None
        assert record.lease_expires_at is None
        assert worker.stats == {
            "claims": 1, "done": 1, "retried": 0, "failed": 0,
            "lease-lost": 0, "heartbeats": 0,
        }

    def test_claim_stamps_lease_from_fake_clock(self, store, clock) -> None:
        run_id = store.submit("sleep", {"seconds": 0.3})
        worker = _worker(store, clock, lease_seconds=15.0)
        thread, outcome = _run_in_thread(worker)
        _await_running(store, run_id)
        mid = store.get(run_id)
        thread.join(timeout=30.0)
        assert outcome == ["done"]
        assert mid.owner_id == "w1"
        assert mid.lease_expires_at == clock.now + 15.0
        assert mid.heartbeat_at == clock.now

    def test_failure_requeues_with_backoff(self, store, clock) -> None:
        run_id = store.submit(
            "sleep", {"seconds": 0, "fail": True}, max_attempts=3
        )
        worker = _worker(
            store, clock, backoff_base=2.0, backoff_cap=2.0, seed=7
        )
        assert worker.run_once() == "retried"
        record = store.get(run_id)
        assert record.state == "queued"
        assert record.owner_id is None
        assert "injected" in record.error or "fail" in record.error
        assert clock.now < record.not_before <= clock.now + 2.0
        # Not eligible until the backoff elapses on the fake clock.
        assert worker.run_once() is None
        clock.advance(2.1)
        assert worker.run_once() == "retried"

    def test_final_attempt_fails_terminally(self, store, clock) -> None:
        run_id = store.submit(
            "sleep", {"seconds": 0, "fail": True}, max_attempts=1
        )
        worker = _worker(store, clock)
        assert worker.run_once() == "failed"
        record = store.get(run_id)
        assert record.state == "failed"
        assert record.owner_id is None

    def test_heartbeat_now_renews_and_counts(self, store, clock) -> None:
        run_id = store.submit("sleep", {"seconds": 0})
        worker = _worker(store, clock, lease_seconds=15.0)
        store.claim_next(owner_id="w1", lease_seconds=15.0)
        clock.advance(10.0)
        assert worker.heartbeat_now(run_id)
        record = store.get(run_id)
        assert record.lease_expires_at == clock.now + 15.0
        assert record.heartbeat_at == clock.now
        assert worker.stats["heartbeats"] == 1


class TestLeaseLost:
    def _race(self, store, clock, worker, run_id, finish_as_w2: bool):
        """Steal the lease while ``worker`` executes; returns its outcome."""
        thread, outcome = _run_in_thread(worker)
        _await_running(store, run_id)
        # The reaper fires while w1 executes: lease expires, the run is
        # reassigned to w2 ...
        clock.advance(100.0)
        assert [r.run_id for r in store.expire_leases()] == [run_id]
        store.claim_next(owner_id="w2", lease_seconds=15.0)
        if finish_as_w2:
            # ... who finishes it before w1 comes back.
            store.mark_done(run_id, '{"by": "w2"}', owner_id="w2")
        thread.join(timeout=30.0)
        return outcome[0]

    def test_result_discarded_when_still_running_elsewhere(
        self, store, clock
    ) -> None:
        run_id = store.submit("sleep", {"seconds": 0.5})
        worker = _worker(store, clock, lease_seconds=15.0)
        assert self._race(store, clock, worker, run_id, False) == "lease-lost"
        record = store.get(run_id)
        assert record.state == "running"
        assert record.owner_id == "w2"
        assert worker.stats["lease-lost"] == 1

    def test_result_discarded_when_finished_elsewhere(
        self, store, clock
    ) -> None:
        # Exactly-once: w2's result must not be overwritten by w1's.
        run_id = store.submit("sleep", {"seconds": 0.5})
        worker = _worker(store, clock, lease_seconds=15.0)
        assert self._race(store, clock, worker, run_id, True) == "lease-lost"
        record = store.get(run_id)
        assert record.state == "done"
        assert record.result == '{"by": "w2"}'


class TestHeartbeatPump:
    def test_pump_renews_during_long_job(self, tmp_path) -> None:
        # Real clock on purpose: renewals happen while the worker waits
        # on a real child.  The job outlasts several heartbeat
        # intervals; the lease must be renewed while the job runs.
        with RunStore(tmp_path / "runs.db") as store:
            run_id = store.submit("sleep", {"seconds": 0.45})
            worker = FleetWorker(
                store,
                WorkerConfig(lease_seconds=1.0, heartbeat_interval=0.1),
                owner_id="w1",
            )
            claimed_at = time.time()
            assert worker.run_once() == "done"
            assert worker.stats["heartbeats"] >= 2
            record = store.get(run_id)
            assert record.state == "done"
            assert time.time() - claimed_at < 5.0  # pump stopped promptly


class TestJobChild:
    @pytest.mark.parametrize(
        "default", multiprocessing.get_all_start_methods()
    )
    def test_job_runs_whatever_the_default_start_method(
        self, tmp_path, default
    ) -> None:
        # The child's parent-watch holds only for a forked child, whose
        # parent is the worker; under a forkserver default (Linux from
        # Python 3.14) an unpinned child's parent is the fork server,
        # and it would exit before running the job.
        previous = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method(default, force=True)
        try:
            with RunStore(tmp_path / "runs.db") as store:
                run_id = store.submit("sleep", {"seconds": 0.3})
                worker = FleetWorker(store, WorkerConfig(), owner_id="w1")
                try:
                    assert worker.run_once() == "done"
                    os.kill(worker.child_pid, 0)  # it outlived its job
                finally:
                    worker.close()
                assert store.get(run_id).state == "done"
        finally:
            multiprocessing.set_start_method(previous, force=True)

    def test_child_of_an_already_dead_worker_exits_at_once(self) -> None:
        # A worker SIGKILLed between starting its child and the child's
        # initializer has re-parented the child before it can look: it
        # must still exit rather than wait on a job nobody will collect.
        gone = subprocess.Popen([sys.executable, "-c", "pass"])
        gone.wait()
        pool = ProcessPoolExecutor(
            max_workers=1,
            mp_context=fleet._MP_CONTEXT,
            initializer=fleet._child_init,
            initargs=(gone.pid,),
        )
        try:
            with pytest.raises(BrokenProcessPool):
                pool.submit(time.sleep, 30.0).result(timeout=10.0)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)


class TestRunForever:
    def test_max_jobs_drains_and_stops(self, store, clock) -> None:
        for _ in range(3):
            store.submit("sleep", {"seconds": 0})
        worker = _worker(store, clock, max_jobs=2)
        stats = worker.run_forever()
        assert stats["done"] == 2
        assert store.counts_by_state()["queued"] == 1

    def test_stop_event_breaks_idle_loop(self, store, clock) -> None:
        stop = threading.Event()
        sleeps: list[float] = []

        def sleeper(seconds: float) -> None:
            sleeps.append(seconds)
            if len(sleeps) >= 4:
                stop.set()

        worker = FleetWorker(
            store,
            WorkerConfig(seed=11, poll_base=0.05, poll_cap=1.0),
            owner_id="w1",
            clock=clock,
            sleep=sleeper,
        )
        stats = worker.run_forever(stop)
        assert stats["claims"] == 0
        assert len(sleeps) == 4
        # Idle polling backs off (jittered, bounded by the cap).
        assert all(0 <= s <= 1.0 for s in sleeps)

    def test_idle_sleep_capped_at_next_retry(self, store, clock) -> None:
        # A run waiting out its retry backoff is claimed the moment it
        # becomes eligible: the idle sleep never overshoots its deadline.
        run_id = store.submit("sleep", {"seconds": 0})
        store.claim_next(owner_id="w0", lease_seconds=15.0)
        store.requeue_for_retry(
            run_id, "boom", not_before=clock.now + 0.02, owner_id="w0"
        )
        sleeps: list[float] = []

        def sleeper(seconds: float) -> None:
            sleeps.append(seconds)
            clock.advance(seconds)

        worker = FleetWorker(
            store,
            WorkerConfig(poll_base=5.0, poll_cap=5.0, seed=3, max_jobs=1),
            owner_id="w1",
            clock=clock,
            sleep=sleeper,
        )
        assert worker.run_forever()["done"] == 1
        assert sleeps and all(s <= 0.02 for s in sleeps)


class TestServerRestartAgreement:
    """A restart leaves leases to the reaper.

    A server restart must not steal a run whose lease is live on a
    healthy worker — and its reaper must still reclaim one whose lease
    has expired.
    """

    def test_restart_keeps_live_lease_and_reaps_dead_one(
        self, tmp_path
    ) -> None:
        db_path = str(tmp_path / "runs.db")
        with RunStore(db_path) as seed:
            healthy = seed.submit("sleep", {"seconds": 0})
            orphaned = seed.submit("sleep", {"seconds": 0})
            # A healthy worker holds `healthy` with an hour of lease.
            seed.claim_next(owner_id="w-alive", lease_seconds=3_600.0)
            # A dying worker holds `orphaned`; its last heartbeat buys
            # ~1.5s, after which it will never renew again (SIGKILL).
            claimed = seed.claim_next(owner_id="w-dying", lease_seconds=1.5)
            assert claimed.run_id == orphaned

        # "Restart": a fresh server opens the same store.  Its start-up
        # pass touches no leased row; only the reaper — once w-dying's
        # lease lapses — may requeue `orphaned`.
        handle = serve_in_thread(db_path, workers=1, reap_interval=0.05)
        try:
            with ServiceClient("127.0.0.1", handle.port) as client:
                deadline = time.time() + 10.0
                while time.time() < deadline:
                    if client.status(orphaned)["state"] == "done":
                        break
                    time.sleep(0.05)
                # The orphaned run was reaped, requeued, and executed
                # by the restarted server's own pool ...
                final = client.status(orphaned)
                assert final["state"] == "done"
                assert final["attempts"] == 2
                # ... while the healthy worker's run was left alone:
                # still running, still leased, attempt count untouched.
                kept = client.status(healthy)
                assert kept["state"] == "running"
                assert kept["attempts"] == 1
                health = client.health()
                assert health["fleet"]["live_workers"] == 1
                assert health["fleet"]["leased_jobs"] == 1
                assert health["fleet"]["leases_reassigned"] >= 1
        finally:
            handle.stop()
        with RunStore(db_path) as check:
            assert check.get(healthy).owner_id == "w-alive"


class TestFleetOnlyTopology:
    def test_workers_zero_leaves_execution_to_the_fleet(
        self, tmp_path
    ) -> None:
        # workers=0 is the dedicated-server topology from
        # docs/DEPLOYMENT.md: the server serves, recovers, and reaps,
        # but never executes — only fleet workers do.
        db_path = str(tmp_path / "runs.db")
        handle = serve_in_thread(db_path, workers=0, reap_interval=0.05)
        try:
            with ServiceClient("127.0.0.1", handle.port) as client:
                run_id = client.submit("sleep", {"seconds": 0})
                time.sleep(0.3)
                # No in-process pool: the job just sits there.
                assert client.status(run_id)["state"] == "queued"
                with RunStore(db_path) as store:
                    worker = FleetWorker(
                        store,
                        WorkerConfig(max_jobs=1),
                        owner_id="w-fleet",
                    )
                    assert worker.run_forever()["done"] == 1
                assert client.status(run_id)["state"] == "done"
                assert client.health()["workers"] == 0
        finally:
            handle.stop()
