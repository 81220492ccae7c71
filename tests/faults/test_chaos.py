"""Service chaos testing: seeded storms against the execution routine."""

from __future__ import annotations

import random
import time
import uuid
from collections import Counter

import pytest

from repro.exceptions import ServiceError
from repro.faults.chaos import (
    CHAOS_ACTIONS,
    POOL_ACTIONS,
    ChaosConfig,
    ChaosMonkey,
)
from repro.service.client import ServiceClient
from repro.service.fleet import FleetWorker
from repro.service.server import serve_in_thread
from repro.service.store import RunStore
from tests.service.conftest import drain, fast_config


def _fast_config(**overrides):
    defaults = dict(backoff_base=0.01, backoff_factor=1.5, backoff_cap=0.05)
    defaults.update(overrides)
    return fast_config(**defaults)


def _injected(workers) -> int:
    return sum(w.chaos.injected for w in workers if w.chaos is not None)


class TestChaosConfig:
    def test_rejects_out_of_range_rate(self) -> None:
        with pytest.raises(ServiceError):
            ChaosConfig(crash_rate=-0.1)
        with pytest.raises(ServiceError):
            ChaosConfig(error_rate=1.5)

    def test_rejects_rates_summing_past_one(self) -> None:
        with pytest.raises(ServiceError):
            ChaosConfig(crash_rate=0.5, timeout_rate=0.4, error_rate=0.2)

    def test_total_rate_and_storm(self) -> None:
        config = ChaosConfig.storm(seed=9, rate=0.6)
        assert config.seed == 9
        assert config.total_rate == pytest.approx(0.6)
        assert config.crash_rate == pytest.approx(0.2)
        # The default storm hits the in-pool modes only.
        assert config.kill_rate == config.partition_rate == 0.0
        with pytest.raises(ServiceError):
            ChaosConfig.storm(rate=0.5, actions=("meteor",))


class TestChaosMonkey:
    def test_decisions_are_deterministic(self) -> None:
        monkey = ChaosMonkey(ChaosConfig.storm(seed=3, rate=0.9))
        decisions = [monkey.decide("run-x", a) for a in range(1, 20)]
        again = [monkey.decide("run-x", a) for a in range(1, 20)]
        assert decisions == again
        assert any(d is not None for d in decisions)

    def test_decisions_depend_on_seed(self) -> None:
        a = ChaosMonkey(ChaosConfig.storm(seed=1, rate=0.5))
        b = ChaosMonkey(ChaosConfig.storm(seed=2, rate=0.5))
        keys = [(f"run-{i}", 1) for i in range(40)]
        assert [a.decide(*k) for k in keys] != [b.decide(*k) for k in keys]

    def test_certain_injection_picks_the_only_mode(self) -> None:
        monkey = ChaosMonkey(ChaosConfig(crash_rate=1.0))
        assert all(
            monkey.decide(f"r{i}", 1) == "crash" for i in range(10)
        )

    def test_zero_rate_never_injects(self) -> None:
        monkey = ChaosMonkey(ChaosConfig())
        assert all(
            monkey.decide(f"r{i}", a) is None
            for i in range(20)
            for a in range(1, 4)
        )

    def test_actions_cover_all_modes_under_a_heavy_storm(self) -> None:
        monkey = ChaosMonkey(ChaosConfig.storm(seed=0, rate=0.99))
        seen = Counter(
            monkey.decide(f"run-{i}", 1) for i in range(200)
        )
        for action in POOL_ACTIONS:
            assert seen[action] > 0
        assert set(seen) <= {None, *CHAOS_ACTIONS}


class TestQueueInjection:
    def test_error_injection_retries_to_done(self, tmp_path, monkeypatch) -> None:
        # Error-only chaos at rate < 1: every run eventually lands
        # terminal, and at least one injection happened.  Run ids are
        # pinned (decisions roll on them), so the injection count is the
        # one the monkey's decisions predict over the attempts made.
        ids_rng = random.Random(2008)
        monkeypatch.setattr(
            uuid, "uuid4",
            lambda: uuid.UUID(int=ids_rng.getrandbits(128), version=4),
        )
        config = ChaosConfig(seed=5, error_rate=0.5)
        with RunStore(tmp_path / "runs.db") as store:
            ids = [
                store.submit("sleep", {"seconds": 0}, max_attempts=6)
                for _ in range(6)
            ]
            workers = drain(store, _fast_config(), chaos=config)
            records = [store.get(i) for i in ids]
            assert {r.state for r in records} <= {"done", "failed"}
            assert _injected(workers) >= 1
            monkey = ChaosMonkey(config)
            assert _injected(workers) == sum(
                monkey.decide(r.run_id, attempt) == "error"
                for r in records
                for attempt in range(1, r.attempts + 1)
            )

    def test_chaos_off_means_no_monkey(self, tmp_path) -> None:
        with RunStore(tmp_path / "runs.db") as store:
            worker = FleetWorker(store, _fast_config(), chaos=ChaosConfig())
            assert worker.chaos is None

    def test_injection_consumes_the_attempt(
        self, tmp_path, monkeypatch
    ) -> None:
        # Certain error injection: a run with max_attempts=2 fails after
        # exactly two injected executions and never runs for real.
        submitted = []
        monkeypatch.setattr(
            FleetWorker, "_submit", lambda self, *job: submitted.append(job)
        )
        with RunStore(tmp_path / "runs.db") as store:
            run_id = store.submit("sleep", {"seconds": 0}, max_attempts=2)
            (worker,) = drain(
                store, _fast_config(), chaos=ChaosConfig(seed=1, error_rate=1.0)
            )
            record = store.get(run_id)
            assert record.state == "failed"
            assert record.attempts == 2
            assert "chaos" in record.error
            assert worker.stats["claims"] == 2
            assert submitted == []  # nothing ever reached a child


@pytest.mark.chaos
class TestChaosStorm:
    """The long storm suite — its own CI job (see ``-m chaos``)."""

    def test_storm_leaves_every_run_terminal(self, tmp_path) -> None:
        # A mixed storm over many runs: >= 20 injections, every run
        # terminal, and exactly one result row per submission.  Crash
        # and timeout injections really kill the job child, so the
        # storm also churns through fresh children.
        config = ChaosConfig(
            seed=7, crash_rate=0.1, timeout_rate=0.1, error_rate=0.4
        )
        with RunStore(tmp_path / "runs.db") as store:
            ids = [
                store.submit("sleep", {"seconds": 0}, max_attempts=8)
                for _ in range(40)
            ]
            workers = drain(store, _fast_config(), workers=2, chaos=config)
            assert _injected(workers) >= 20
            states = [store.get(i).state for i in ids]
            assert set(states) <= {"done", "failed"}
            # No duplicate rows: every submission is exactly one run.
            listed = store.list_runs(None, limit=1000)
            assert sorted(r.run_id for r in listed) == sorted(ids)
            done = [i for i, s in zip(ids, states) if s == "done"]
            assert done, "a 0.6-rate storm must let some runs through"
            for run_id in done:
                assert store.get(run_id).result

    def test_storm_survives_kill_and_recovery(self, tmp_path) -> None:
        # Chaos plus a mid-storm crash of the whole service: the
        # killed pool's runs stay leased, and a restarted server's
        # reaper reclaims them once the (short) leases lapse, then its
        # pool drains everything to terminal.
        db = tmp_path / "runs.db"
        config = ChaosConfig(seed=11, error_rate=0.4, timeout_rate=0.1)
        worker_config = _fast_config(lease_seconds=0.5, heartbeat_interval=0.1)
        handle = serve_in_thread(
            db, workers=2, worker_config=worker_config, chaos=config
        )
        try:
            with ServiceClient(port=handle.port) as client:
                ids = [
                    client.submit(
                        "sleep", {"seconds": 0.05}, max_attempts=8
                    )
                    for _ in range(12)
                ]
        finally:
            handle.kill()  # crash-style: in-flight rows stay 'running'

        handle = serve_in_thread(
            db,
            workers=2,
            worker_config=worker_config,
            chaos=config,
            reap_interval=0.05,
        )
        try:
            deadline = time.monotonic() + 60.0
            with RunStore(db) as store:
                while store.unfinished():
                    assert time.monotonic() < deadline, "storm not drained"
                    time.sleep(0.05)
                states = [store.get(i).state for i in ids]
                assert set(states) <= {"done", "failed"}
                listed = store.list_runs(None, limit=1000)
                assert sorted(r.run_id for r in listed) == sorted(ids)
        finally:
            handle.stop()
