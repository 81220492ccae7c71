"""End-to-end tests: TCP server, client, crash-resume, failure path."""

from __future__ import annotations

import concurrent.futures
import json
import time

import pytest

from repro import obs
from repro.exceptions import ServiceError
from repro.service.client import ServiceClient
from repro.service.fleet import WorkerConfig
from repro.service.server import serve_in_thread
from repro.service.store import RunStore

CAMPAIGN = {"clusters": 2, "resources": 25, "scenarios": 3, "months": 2}


@pytest.fixture
def db_path(tmp_path):
    return tmp_path / "runs.db"


def _serve(db_path, workers=2, reap_interval=1.0, **config):
    return serve_in_thread(
        db_path,
        workers=workers,
        worker_config=WorkerConfig(**config),
        reap_interval=reap_interval,
    )



def _gauge(registry, name, state=None):
    """A gauge's current value (``None`` before its first set)."""
    for series in registry.as_dict()["gauges"].get(name, []):
        if state is None or series["labels"].get("state") == state:
            return series["value"]
    return None


class TestOperations:
    def test_health(self, db_path) -> None:
        handle = _serve(db_path, workers=2)
        try:
            with ServiceClient(port=handle.port) as client:
                health = client.health()
                assert health["protocol"] == 1
                assert health["workers"] == 2
                assert health["queue_depth"] == 0
                assert "campaign" in health["kinds"]
                assert set(health["jobs"]) >= {"queued", "done", "failed"}
        finally:
            handle.stop()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_submit_wakes_idle_pool(self, db_path, workers) -> None:
        # Idle polls of up to 5 s: only the submits' wake-ups can get
        # the jobs claimed this fast.  With two workers, each kick of a
        # back-to-back burst must reach a worker, so the 0.6 s jobs run
        # side by side (one after the other would take 1.2 s).
        handle = _serve(
            db_path, workers=workers, poll_base=5.0, poll_cap=5.0
        )
        try:
            with ServiceClient(port=handle.port) as client:
                time.sleep(0.3)  # the workers are asleep by now
                started = time.monotonic()
                run_ids = [
                    client.submit("sleep", {"seconds": 0.6})
                    for _ in range(workers)
                ]
                for run_id in run_ids:
                    status = client.wait(run_id, timeout=30.0)
                    assert status["state"] == "done"
                assert time.monotonic() - started < 1.1
        finally:
            handle.stop()

    def test_submit_validates_before_queueing(self, db_path) -> None:
        handle = _serve(db_path)
        try:
            with ServiceClient(port=handle.port) as client:
                with pytest.raises(ServiceError) as exc:
                    client.submit("teleport")
                assert exc.value.code == "unknown-kind"
                with pytest.raises(ServiceError) as exc:
                    client.submit("campaign", {"clusters": "many"})
                assert exc.value.code == "bad-params"
                # Nothing was persisted for either rejection.
                assert client.runs() == []
        finally:
            handle.stop()

    def test_status_result_list_cancel(self, db_path) -> None:
        handle = _serve(db_path, workers=1)
        try:
            with ServiceClient(port=handle.port) as client:
                with pytest.raises(ServiceError) as exc:
                    client.status("nope")
                assert exc.value.code == "unknown-run"

                run_id = client.submit("sleep", {"seconds": 0})
                status = client.wait(run_id, timeout=30.0)
                assert status["state"] == "done"

                payload = client.result(run_id)
                assert payload["result"]["figure"] == "generic"
                assert payload["result"]["data"]["kind"] == "sleep"

                listed = client.runs(state="done")
                assert run_id in {r["run_id"] for r in listed}

                # A queued run behind a long sleep can be cancelled;
                # its result is then unavailable.
                blocker = client.submit("sleep", {"seconds": 5.0})
                victim = client.submit("sleep", {"seconds": 0})
                cancelled = client.cancel(victim)
                assert cancelled["state"] == "cancelled"
                with pytest.raises(ServiceError) as exc:
                    client.result(victim)
                assert exc.value.code == "not-finished"
                assert client.status(blocker)["state"] in {"queued", "running"}
        finally:
            handle.stop()


class TestAcceptance:
    def test_concurrent_campaigns_and_stored_results(self, db_path) -> None:
        # ISSUE acceptance: >=3 campaigns submitted concurrently, all
        # reach 'done', results readable straight from SQLite.
        handle = _serve(db_path, workers=2)
        try:
            def submit_one(index: int) -> str:
                with ServiceClient(port=handle.port) as client:
                    return client.submit(
                        "campaign", dict(CAMPAIGN, scenarios=3 + index)
                    )

            with concurrent.futures.ThreadPoolExecutor(3) as pool:
                ids = list(pool.map(submit_one, range(3)))
            assert len(set(ids)) == 3

            with ServiceClient(port=handle.port) as client:
                for run_id in ids:
                    status = client.wait(run_id, timeout=120.0)
                    assert status["state"] == "done"
        finally:
            handle.stop()

        with RunStore(db_path) as store:
            for run_id in ids:
                record = store.get(run_id)
                assert record.state == "done"
                envelope = json.loads(record.result)
                assert envelope["figure"] == "generic"
                assert envelope["data"]["data"]["makespan"] > 0

    def test_kill_and_restart_resumes_queue(self, db_path) -> None:
        # Kill the server mid-queue, restart on the same store, every
        # job still reaches 'done': the killed pool's run stays leased
        # until its (short) lease lapses and the new server's reaper
        # reclaims it.
        lease = dict(lease_seconds=1.0, heartbeat_interval=0.2)
        handle = _serve(db_path, workers=1, **lease)
        ids = []
        try:
            with ServiceClient(port=handle.port) as client:
                for _ in range(2):
                    ids.append(client.submit("sleep", {"seconds": 1.5}))
                for _ in range(3):
                    ids.append(client.submit("campaign", CAMPAIGN))
                # Poll until the first sleep job is actually claimed — a
                # fixed sleep here raced the worker on loaded machines.
                deadline = time.monotonic() + 30.0
                while client.status(ids[0])["state"] != "running":
                    assert time.monotonic() < deadline, "job never claimed"
                    time.sleep(0.02)
        finally:
            handle.kill()  # crash-style: no drain, rows stay 'running'

        with RunStore(db_path) as store:
            counts = store.counts_by_state()
            assert counts["running"] + counts["queued"] == len(ids)
            assert counts["running"] >= 1

        handle = _serve(db_path, workers=2, reap_interval=0.1, **lease)
        try:
            with ServiceClient(port=handle.port) as client:
                for run_id in ids:
                    status = client.wait(run_id, timeout=120.0)
                    assert status["state"] == "done"
        finally:
            handle.stop()

        with RunStore(db_path) as store:
            assert store.counts_by_state()["done"] == len(ids)
            interrupted = store.get(ids[0])
            assert interrupted.attempts >= 2  # first attempt was killed

    def test_injected_failure_retried_then_reported(self, db_path) -> None:
        # ISSUE acceptance: a failing job is retried with backoff and
        # lands in 'failed' with the error recorded and reported.
        handle = _serve(db_path, backoff_base=0.02, backoff_cap=0.1)
        try:
            with ServiceClient(port=handle.port) as client:
                run_id = client.submit(
                    "sleep", {"fail": True}, max_attempts=2
                )
                status = client.wait(run_id, timeout=30.0)
                assert status["state"] == "failed"
                assert status["attempts"] == 2
                assert "sleep job asked to fail" in status["error"]
                with pytest.raises(ServiceError) as exc:
                    client.result(run_id)
                assert exc.value.code == "job-failed"
                assert "sleep job asked to fail" in str(exc.value)
        finally:
            handle.stop()

        with RunStore(db_path) as store:
            record = store.get(run_id)
            assert record.state == "failed"
            assert record.result is None


class TestObservability:
    def test_gauges_move_without_the_reaper(self, db_path) -> None:
        # No reaper pass: the workers publish queue and in-flight state
        # on every claim and completion themselves.
        with obs.session() as (registry, _tracer):
            handle = _serve(db_path, workers=1, reap_interval=None)
            try:
                with ServiceClient(port=handle.port) as client:
                    run_id = client.submit("sleep", {"seconds": 0.5})
                    deadline = time.monotonic() + 10.0
                    while _gauge(registry, "service.active_jobs") != 1.0:
                        assert time.monotonic() < deadline
                        time.sleep(0.01)
                    assert _gauge(registry, "service.queue_depth") == 0.0
                    client.wait(run_id, timeout=30.0)
                    while _gauge(registry, "service.active_jobs") != 0.0:
                        assert time.monotonic() < deadline
                        time.sleep(0.01)
                    assert _gauge(registry, "service.jobs", "done") == 1.0
            finally:
                handle.stop()

    def test_metrics_cover_queue_depth_and_states(self, db_path) -> None:
        with obs.session() as (registry, _tracer):
            handle = _serve(db_path, backoff_base=0.02, backoff_cap=0.1)
            try:
                with ServiceClient(port=handle.port) as client:
                    done = client.submit("sleep", {"seconds": 0})
                    failed = client.submit(
                        "sleep", {"fail": True}, max_attempts=1
                    )
                    client.wait(done, timeout=30.0)
                    client.wait(failed, timeout=30.0)
            finally:
                handle.stop()
            dump = registry.as_dict()

        gauges = dump["gauges"]
        assert "service.queue_depth" in gauges
        states = {
            series["labels"]["state"]: series["value"]
            for series in gauges["service.jobs"]
        }
        assert states["done"] >= 1.0
        assert states["failed"] >= 1.0

        counters = dump["counters"]
        assert "service.requests" in counters
        assert "service.submissions" in counters
        assert "service.jobs_done" in counters
        assert "service.jobs_failed" in counters
        assert "service.queue_wait_seconds" in dump["histograms"]
