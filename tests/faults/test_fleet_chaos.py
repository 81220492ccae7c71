"""The multi-worker kill matrix: no run is lost, none runs twice.

Deterministic scenarios on a fake clock cover each cell of the matrix
(kill mid-job, kill during heartbeat, kill the reaper's server,
partition a worker from the store, a job that kills every worker),
including the acceptance proof: a SIGKILLed worker's job is reassigned
exactly once within one lease interval, with the original
``trace_id`` surviving into the final Chrome trace.  The
``chaos``-marked tests at the bottom race a real 3-worker fleet
(threads, then real processes under SIGKILL).
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import obs
from repro.exceptions import ServiceError
from repro.faults.chaos import (
    CHAOS_ACTIONS,
    POOL_ACTIONS,
    PROCESS_ACTIONS,
    ChaosConfig,
    ChaosMonkey,
)
from repro.service.backends import MemoryBackend
from repro.service.fleet import FleetWorker, WorkerConfig, WorkerKilled
from repro.service.store import RunStore


class FakeClock:
    def __init__(self, start: float = 1_000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _worker(store, clock, owner, **kwargs) -> FleetWorker:
    kwargs.setdefault("config", WorkerConfig(lease_seconds=15.0))
    return FleetWorker(
        store,
        kwargs.pop("config"),
        owner_id=owner,
        clock=clock,
        sleep=lambda _s: None,
        chaos=kwargs.pop("chaos", None),
    )


def _killer(seed: int = 1, **rates: float) -> ChaosConfig:
    return ChaosConfig(seed=seed, **rates)


class TestFleetChaosConfig:
    def test_rejects_bad_rates(self) -> None:
        with pytest.raises(ServiceError):
            ChaosConfig(kill_rate=-0.1)
        with pytest.raises(ServiceError):
            ChaosConfig(kill_rate=0.6, partition_rate=0.5)
        with pytest.raises(ServiceError):
            ChaosConfig(crash_rate=0.6, kill_heartbeat_rate=0.5)

    def test_storm_splits_rate(self) -> None:
        config = ChaosConfig.storm(seed=4, rate=0.6, actions=PROCESS_ACTIONS)
        assert config.seed == 4
        assert config.total_rate == pytest.approx(0.6)
        assert config.kill_heartbeat_rate == pytest.approx(0.2)
        assert config.crash_rate == config.error_rate == 0.0

    def test_actions_cover_the_matrix(self) -> None:
        assert PROCESS_ACTIONS == ("kill", "kill-heartbeat", "partition")
        assert CHAOS_ACTIONS == POOL_ACTIONS + PROCESS_ACTIONS


class TestFleetChaosMonkey:
    def test_decisions_are_deterministic(self) -> None:
        monkey = ChaosMonkey(
            ChaosConfig.storm(seed=5, rate=0.9, actions=PROCESS_ACTIONS)
        )
        keys = [(f"r{i}", a) for i in range(10) for a in (1, 2)]
        first = [monkey.decide(*k) for k in keys]
        assert first == [monkey.decide(*k) for k in keys]
        assert any(d is not None for d in first)
        assert set(first) <= {None, *PROCESS_ACTIONS}

    def test_one_stream_serves_every_mode(self) -> None:
        # One decision stream: the same seed and rate hit the same
        # executions whichever mode the rate is put on.
        pool = ChaosMonkey(ChaosConfig(seed=7, crash_rate=0.5))
        process = ChaosMonkey(ChaosConfig(seed=7, kill_rate=0.5))
        keys = [(f"r{i}", 1) for i in range(64)]
        pool_hits = [pool.decide(*k) is not None for k in keys]
        process_hits = [process.decide(*k) is not None for k in keys]
        assert pool_hits == process_hits
        assert any(pool_hits) and not all(pool_hits)

    def test_certain_rate_picks_the_only_action(self) -> None:
        monkey = ChaosMonkey(ChaosConfig(partition_rate=1.0))
        assert all(
            monkey.decide(f"r{i}", 1) == "partition" for i in range(8)
        )


class TestKillMatrix:
    """One deterministic scenario per cell, on a fake clock."""

    def test_kill_mid_job_reassigned_exactly_once(self) -> None:
        # The ISSUE's acceptance proof, end to end: w1 claims, is
        # SIGKILLed (simulated), the lease expires after exactly one
        # lease interval, w2 finishes the job — once — and the
        # original trace_id flows into the final Chrome trace.
        clock = FakeClock()
        with obs.session() as (registry, tracer), RunStore(
            MemoryBackend(), clock=clock
        ) as store:
            run_id = store.submit(
                "sleep", {"seconds": 0}, trace_id="feedface00000001"
            )
            w1 = _worker(
                store, clock, "w1",
                chaos=_killer(kill_rate=1.0),
            )
            with pytest.raises(WorkerKilled):
                w1.run_once()

            # The dead worker's claim is visible but untouchable: the
            # run stays running under w1's live lease.
            record = store.get(run_id)
            assert record.state == "running"
            assert record.owner_id == "w1"
            claim_time = clock.now

            # A healthy worker cannot steal it while the lease lives.
            w2 = _worker(store, clock, "w2")
            assert w2.run_once() is None

            # One lease interval later the reaper's sweep frees it.
            clock.advance(15.0)
            assert clock.now - claim_time == 15.0  # exactly one interval
            expired = store.expire_leases()
            assert [r.run_id for r in expired] == [run_id]
            assert store.expire_leases() == []  # exactly once

            assert w2.run_once() == "done"
            final = store.get(run_id)
            assert final.state == "done"
            assert final.attempts == 2
            assert final.trace_id == "feedface00000001"

            # The trace survives the handoff into the Chrome export,
            # and w2's execution span carries it.
            chrome = tracer.to_chrome_json()
            assert "feedface00000001" in chrome
            spans = [s for s in tracer.spans if s.name == "service.job"]
            assert len(spans) == 1  # w1 died before executing
            claims = registry.as_dict()["counters"]["service.fleet_claims"]
            assert sum(series["value"] for series in claims) == 2

    def test_kill_during_heartbeat_expires_from_renewed_lease(self) -> None:
        # Dying right after a renewal is the worst case: the lease is
        # as fresh as it can be, so reassignment takes a full interval
        # from the *renewal*, not the claim.
        clock = FakeClock()
        with RunStore(MemoryBackend(), clock=clock) as store:
            run_id = store.submit("sleep", {"seconds": 0})
            w1 = _worker(
                store, clock, "w1",
                chaos=_killer(kill_heartbeat_rate=1.0),
            )
            with pytest.raises(WorkerKilled):
                w1.run_once()
            record = store.get(run_id)
            assert record.heartbeat_at == clock.now
            assert record.lease_expires_at == clock.now + 15.0
            assert w1.stats["heartbeats"] == 1
            clock.advance(14.9)
            assert store.expire_leases() == []
            clock.advance(0.2)
            assert [r.run_id for r in store.expire_leases()] == [run_id]
            w2 = _worker(store, clock, "w2")
            assert w2.run_once() == "done"
            assert store.get(run_id).attempts == 2

    def test_kill_reapers_server_recovery_on_restart(self, tmp_path) -> None:
        # The reaper's own host dies next: nothing sweeps the dead
        # worker's lease... until a replacement server opens the store.
        # Its start-up pass leaves leased rows alone; its reaper — the
        # only recovery path for leases — requeues the expired one.
        clock = FakeClock()
        path = tmp_path / "runs.db"
        with RunStore(path, clock=clock) as store:
            run_id = store.submit("sleep", {"seconds": 0})
            w1 = _worker(store, clock, "w1", chaos=_killer(kill_rate=1.0))
            with pytest.raises(WorkerKilled):
                w1.run_once()
        # No server, no reaper; the lease quietly expires on disk.
        clock.advance(30.0)
        with RunStore(path, clock=clock) as restarted:
            assert restarted.recover_interrupted() == 0
            assert [r.run_id for r in restarted.expire_leases()] == [run_id]
            assert restarted.expire_leases() == []  # exactly once
            record = restarted.get(run_id)
            assert record.state == "queued"
            assert record.owner_id is None
            assert record.attempts == 1  # the lost attempt stays counted

    def test_partitioned_worker_cannot_clobber_reassigned_run(self) -> None:
        # Partition: w1 keeps executing but its heartbeats stop
        # reaching the store.  The run is reassigned and finished by
        # w2; when w1 reconnects at its completion write, the
        # owner-checked CAS refuses it — w2's result stands.
        clock = FakeClock()
        with RunStore(MemoryBackend(), clock=clock) as store:
            run_id = store.submit("sleep", {"seconds": 0.5})
            w1 = _worker(store, clock, "w1", chaos=_killer(partition_rate=1.0))
            w2 = _worker(store, clock, "w2")
            outcome: list = []
            racer = threading.Thread(target=lambda: outcome.append(w1.run_once()))
            racer.start()
            deadline = time.monotonic() + 30.0
            while store.get(run_id).state != "running":
                assert time.monotonic() < deadline, "w1 never claimed"
                time.sleep(0.01)
            # w1 arms the partition only after its claim returns.
            while not w1._partitioned:
                assert time.monotonic() < deadline, "w1 never partitioned"
                time.sleep(0.01)
            # w1's execution straddles its own lease expiry.
            assert w1._partitioned  # heartbeats are being dropped
            assert w1.heartbeat_now(run_id)  # ... and go nowhere
            assert store.get(run_id).heartbeat_at == clock.now
            clock.advance(20.0)
            assert [r.run_id for r in store.expire_leases()] == [run_id]
            assert w2.run_once() == "done"
            racer.join(timeout=30.0)
            assert outcome == ["lease-lost"]
            final = store.get(run_id)
            assert final.state == "done"
            assert final.attempts == 2
            assert final.owner_id is None
            assert w1.stats["lease-lost"] == 1
            assert w1.stats["heartbeats"] == 0  # none reached the store
            assert w2.stats["done"] == 1

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_job_that_kills_every_worker_fails_on_budget(
        self, backend, tmp_path
    ) -> None:
        # A job that SIGKILLs every worker claiming it must not be
        # reassigned forever: the reaper fails it once the expired
        # attempt was the last — after exactly max_attempts claims.
        clock = FakeClock()
        url = MemoryBackend() if backend == "memory" else tmp_path / "r.db"
        with RunStore(url, clock=clock) as store:
            run_id = store.submit("sleep", {"seconds": 0}, max_attempts=2)
            claims = 0
            for incarnation in range(10):
                if store.get(run_id).finished:
                    break
                worker = _worker(
                    store, clock, f"w{incarnation}", chaos=_killer(kill_rate=1.0)
                )
                with pytest.raises(WorkerKilled):
                    worker.run_once()
                claims += worker.stats["claims"]
                clock.advance(15.0)
                assert [r.run_id for r in store.expire_leases()] == [run_id]
            final = store.get(run_id)
            assert claims == 2
            assert final.state == "failed"
            assert final.attempts == 2
            assert final.error == "lease expired on final attempt"
            assert final.owner_id is None


@pytest.mark.chaos
class TestFleetStorm:
    """3 workers, one store, seeded kills, supervisor restarts."""

    def test_no_run_lost_or_duplicated(self, tmp_path) -> None:
        jobs = 15
        with RunStore(tmp_path / "storm.db") as store:
            run_ids = [
                store.submit("sleep", {"seconds": 0.01}, max_attempts=10)
                for _ in range(jobs)
            ]
            stop = threading.Event()
            deaths = []

            def reaper() -> None:
                with RunStore(tmp_path / "storm.db") as own:
                    while not stop.is_set():
                        own.expire_leases()
                        time.sleep(0.05)

            def supervised(slot: int) -> None:
                # A supervisor loop: when chaos SIGKILLs the worker, a
                # fresh one (new owner identity) takes its slot.
                incarnation = 0
                while not stop.is_set():
                    incarnation += 1
                    worker = FleetWorker(
                        store,
                        WorkerConfig(
                            lease_seconds=0.5,
                            heartbeat_interval=0.1,
                            backoff_base=0.01,
                            backoff_cap=0.02,
                            seed=slot,
                        ),
                        owner_id=f"w{slot}.{incarnation}",
                        chaos=ChaosConfig.storm(
                            seed=slot, rate=0.25, actions=PROCESS_ACTIONS
                        ),
                    )
                    try:
                        worker.run_forever(stop)
                    except WorkerKilled:
                        deaths.append(worker.owner_id)

            threads = [
                threading.Thread(target=reaper, daemon=True),
                *(
                    threading.Thread(
                        target=supervised, args=(slot,), daemon=True
                    )
                    for slot in range(3)
                ),
            ]
            for thread in threads:
                thread.start()
            deadline = time.time() + 60.0
            try:
                while time.time() < deadline:
                    counts = store.counts_by_state()
                    if counts["done"] + counts["failed"] == jobs:
                        break
                    time.sleep(0.1)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=10.0)

            counts = store.counts_by_state()
            # Nothing lost: every run reached a terminal state.
            assert counts["done"] + counts["failed"] == jobs
            assert counts["queued"] == counts["running"] == 0
            # Nothing duplicated: each run holds exactly one terminal
            # result, written by the single worker that won the CAS.
            for run_id in run_ids:
                record = store.get(run_id)
                assert record.finished
                assert 1 <= record.attempts <= 10


@pytest.mark.chaos
class TestRealProcessKill:
    """An actual ``repro-oa worker`` process under an actual SIGKILL."""

    def _spawn(self, store_path: Path, *extra: str) -> subprocess.Popen:
        env = dict(os.environ)
        root = Path(__file__).resolve().parents[2]
        env["PYTHONPATH"] = str(root / "src")
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "worker",
                "--store", str(store_path),
                "--lease-seconds", "1.0",
                "--heartbeat-interval", "0.25",
                *extra,
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def test_sigkill_mid_job_is_reassigned(self, tmp_path) -> None:
        store_path = tmp_path / "fleet.db"
        with RunStore(store_path) as store:
            run_id = store.submit(
                "sleep", {"seconds": 3.0}, trace_id="cafe000000000002"
            )
            victim = self._spawn(store_path)
            try:
                deadline = time.time() + 15.0
                while time.time() < deadline:
                    if store.get(run_id).state == "running":
                        break
                    time.sleep(0.05)
                claimed = store.get(run_id)
                assert claimed.state == "running"
                assert claimed.owner_id is not None
                # kill -9, mid-job: no cleanup, no final heartbeat.
                victim.kill()
                victim.wait(timeout=10.0)

                # Within ~one lease interval the lease lapses ...
                deadline = time.time() + 5.0
                expired = []
                while time.time() < deadline and not expired:
                    expired = store.expire_leases()
                    time.sleep(0.05)
                assert [r.run_id for r in expired] == [run_id]

                # ... and a healthy worker picks the job up and runs
                # it to completion, trace intact.
                rescuer = self._spawn(store_path, "--max-jobs", "1")
                assert rescuer.wait(timeout=30.0) == 0
                final = store.get(run_id)
                assert final.state == "done"
                assert final.attempts == 2
                assert final.trace_id == "cafe000000000002"
                assert final.owner_id is None
            finally:
                if victim.poll() is None:
                    victim.kill()
