"""Execution-routine tests: retry, backoff, deadline, drain.

The server's pool and ``repro-oa worker`` run the same leased
:class:`~repro.service.fleet.FleetWorker` routine, so these drive it
directly (and, for the graceful drain, through the server's pool).
"""

from __future__ import annotations

import random
import time

import pytest

from repro.exceptions import ServiceError
from repro.service.fleet import FleetWorker, WorkerConfig
from repro.service.server import CampaignServer, serve_in_thread
from repro.service.store import RunStore
from tests.service.conftest import drain, fast_config


class TestConfig:
    def test_rejects_negative_workers(self) -> None:
        # Zero is the fleet-only topology (no in-process pool);
        # anything below is still malformed.
        assert CampaignServer("memory://", workers=0).workers == 0
        with pytest.raises(ServiceError):
            CampaignServer("memory://", workers=-1)

    def test_rejects_nonpositive_timeout(self) -> None:
        with pytest.raises(ServiceError):
            WorkerConfig(job_timeout=0)

    def test_backoff_ceiling_schedule(self) -> None:
        config = WorkerConfig(
            backoff_base=0.5, backoff_factor=2.0, backoff_cap=3.0
        )
        # Without an RNG the schedule is the raw capped ceiling.
        assert config.backoff(1) == pytest.approx(0.5)
        assert config.backoff(2) == pytest.approx(1.0)
        assert config.backoff(3) == pytest.approx(2.0)
        assert config.backoff(10) == pytest.approx(3.0)  # capped

    def test_backoff_full_jitter_stays_within_bounds(self) -> None:
        config = WorkerConfig(
            backoff_base=0.5, backoff_factor=2.0, backoff_cap=3.0
        )
        rng = random.Random(7)
        for attempt in range(1, 16):
            delay = config.backoff(attempt, rng)
            assert 0.0 <= delay <= config.backoff(attempt)
            assert delay <= config.backoff_cap

    def test_backoff_jitter_is_seed_deterministic(self) -> None:
        config = WorkerConfig(
            backoff_base=0.5, backoff_factor=2.0, backoff_cap=3.0
        )
        first = [config.backoff(a, random.Random(3)) for a in range(1, 8)]
        second = [config.backoff(a, random.Random(3)) for a in range(1, 8)]
        assert first == second


class TestDispatch:
    def test_runs_jobs_to_done(self, tmp_path) -> None:
        with RunStore(tmp_path / "runs.db") as store:
            ids = [store.submit("sleep", {"seconds": 0}) for _ in range(3)]
            drain(store, fast_config(), workers=2)
            assert {store.get(i).state for i in ids} == {"done"}
            assert all(store.get(i).result for i in ids)

    def test_failure_retries_then_fails(self, tmp_path) -> None:
        with RunStore(tmp_path / "runs.db") as store:
            run_id = store.submit(
                "sleep", {"fail": True, "seconds": 0}, max_attempts=3
            )
            drain(store, fast_config())
            record = store.get(run_id)
            assert record.state == "failed"
            assert record.attempts == 3
            assert "sleep job asked to fail" in record.error

    def test_backoff_deadline_written_between_attempts(self, tmp_path) -> None:
        # Observe the intermediate queued-with-deadline state directly.
        with RunStore(tmp_path / "runs.db") as store:
            run_id = store.submit("sleep", {"fail": True}, max_attempts=2)
            worker = FleetWorker(
                store, fast_config(backoff_base=5.0, backoff_cap=60.0)
            )
            try:
                assert worker.run_once() == "retried"
            finally:
                worker.close()
            record = store.get(run_id)
            assert record.state == "queued"
            assert record.attempts == 1
            assert record.owner_id is None
            # Full jitter: the deadline lands anywhere in
            # [now, now + ceiling]; assert the bounds, not a fixed
            # offset (near-zero draws are legal).
            assert record.not_before >= record.updated_at - 1.0
            assert record.not_before <= record.updated_at + 5.0
            assert "sleep job asked to fail" in record.error

    def test_timeout_lands_failed(self, tmp_path) -> None:
        with RunStore(tmp_path / "runs.db") as store:
            run_id = store.submit(
                "sleep", {"seconds": 30.0}, max_attempts=1
            )
            started = time.monotonic()
            drain(store, fast_config(job_timeout=0.3), timeout=30.0)
            assert time.monotonic() - started < 10.0
            record = store.get(run_id)
            assert record.state == "failed"
            assert "timeout" in record.error

    def test_bad_params_fail_without_validation_at_submit(self, tmp_path) -> None:
        # The store accepts anything; validation failures inside the
        # worker are ordinary failures with the typed message recorded.
        with RunStore(tmp_path / "runs.db") as store:
            run_id = store.submit(
                "sleep", {"seconds": "soon"}, max_attempts=1
            )
            drain(store, fast_config())
            record = store.get(run_id)
            assert record.state == "failed"
            assert "seconds" in record.error

    def test_graceful_stop_leaves_queued_runs(self, tmp_path) -> None:
        db_path = tmp_path / "runs.db"
        with RunStore(db_path) as store:
            ids = [
                store.submit("sleep", {"seconds": 0.5}) for _ in range(4)
            ]
        handle = serve_in_thread(db_path, workers=1)
        deadline = time.monotonic() + 30.0
        with RunStore(db_path) as store:
            while store.counts_by_state()["running"] == 0:
                assert time.monotonic() < deadline, "job never claimed"
                time.sleep(0.01)
        handle.stop()  # the first job is in flight
        with RunStore(db_path) as store:
            states = [store.get(i).state for i in ids]
        # Graceful: nothing is left 'running'; in-flight work was
        # recorded, the rest stays queued for the next start.
        assert "running" not in states
        assert states.count("done") >= 1
        assert states.count("queued") >= 1
