"""End-to-end trace correlation: one campaign, one trace_id, everywhere.

The run observatory's acceptance path: a submission through the live
server must carry a single trace id that is visible in the client's
own span, the store row, the worker's job spans (including retry
attempts after a worker is killed mid-job), the worker-side spans
shipped back in the result envelope, and the exported Chrome trace.
"""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

from repro import obs
from repro.exceptions import ServiceError
from repro.obs.context import TraceContext, use_trace
from repro.obs.tracing import WORKER_PID
from repro.service.client import ServiceClient
from repro.service.fleet import WorkerConfig
from repro.service.server import serve_in_thread
from repro.service.store import RunStore


@pytest.fixture
def db_path(tmp_path):
    return tmp_path / "runs.db"


def _serve(db_path, workers=1, **config):
    return serve_in_thread(
        str(db_path), workers=workers, worker_config=WorkerConfig(**config)
    )


def _spans_for(tracer, trace_id, name=None):
    return [
        span
        for span in tracer.spans
        if span.args.get("trace_id") == trace_id
        and (name is None or span.name == name)
    ]


class TestTraceCorrelation:
    def test_one_campaign_one_trace_id(self, db_path) -> None:
        # ISSUE acceptance: a campaign submitted through the live server
        # yields a single trace_id visible in the client, the store row,
        # the worker-side simulation spans, and the Chrome export.
        with obs.session(fresh=True) as (_registry, tracer):
            handle = _serve(db_path)
            try:
                with ServiceClient(port=handle.port) as client:
                    run_id = client.submit(
                        "simulate",
                        {"resources": 25, "scenarios": 3, "months": 2},
                    )
                    assert client.last_trace is not None
                    trace_id = client.last_trace.trace_id
                    assert client.last_trace.run_id == run_id
                    status = client.wait(run_id, timeout=60.0)
                    assert status["state"] == "done"
                    assert status["trace_id"] == trace_id
            finally:
                handle.stop()

            # Store row carries the id.
            with RunStore(db_path) as store:
                assert store.get(run_id).trace_id == trace_id

            # Client-side submit span.
            assert _spans_for(tracer, trace_id, "service.client.submit")
            # Queue dispatch span, parented by nothing, tagged with it.
            dispatch = _spans_for(tracer, trace_id, "service.job")
            assert len(dispatch) == 1
            # Worker-side spans were shipped back and re-anchored: the
            # envelope wrapper plus the simulation spans beneath it.
            worker = _spans_for(tracer, trace_id, "service.worker")
            assert len(worker) == 1
            assert worker[0].pid == WORKER_PID
            assert worker[0].tid != os.getpid()  # a real pool process
            assert worker[0].parent_id == dispatch[0].span_id
            assert _spans_for(tracer, trace_id, "runner.simulate")

            # The Chrome export joins on the same id.
            doc = json.loads(tracer.to_chrome_json())
            tagged = [
                event
                for event in doc["traceEvents"]
                if event.get("ph") == "X"
                and event.get("args", {}).get("trace_id") == trace_id
            ]
            names = {event["name"] for event in tagged}
            assert {
                "service.client.submit",
                "service.job",
                "service.worker",
                "runner.simulate",
            } <= names
            ids = {event["args"]["trace_id"] for event in tagged}
            assert ids == {trace_id}

    def test_trace_survives_worker_kill_and_retry(self, db_path) -> None:
        # ISSUE acceptance: submit -> kill the pool worker mid-job ->
        # retry -> done, with ONE trace_id across the client submit,
        # both job attempts, the surviving child attempt,
        # and the store row.
        with obs.session(fresh=True) as (_registry, tracer):
            handle = _serve(db_path, backoff_base=0.1)
            try:
                with ServiceClient(port=handle.port) as client:
                    # Warm the single-process pool and learn its OS pid
                    # from the imported worker span's tid.
                    warm_id = client.submit("sleep", {"seconds": 0})
                    client.wait(warm_id, timeout=30.0)
                    warm_trace = client.last_trace.trace_id
                    warm_spans = _spans_for(
                        tracer, warm_trace, "service.worker"
                    )
                    assert len(warm_spans) == 1
                    worker_pid = warm_spans[0].tid

                    run_id = client.submit("sleep", {"seconds": 1.5})
                    trace_id = client.last_trace.trace_id
                    deadline = time.monotonic() + 30.0
                    while client.status(run_id)["state"] != "running":
                        assert (
                            time.monotonic() < deadline
                        ), "job never claimed"
                        time.sleep(0.02)
                    time.sleep(0.2)  # let the worker actually pick it up
                    os.kill(worker_pid, signal.SIGKILL)

                    status = client.wait(run_id, timeout=60.0)
                    assert status["state"] == "done"
                    assert status["attempts"] >= 2
                    assert status["trace_id"] == trace_id
            finally:
                handle.stop()

            with RunStore(db_path) as store:
                assert store.get(run_id).trace_id == trace_id

            assert _spans_for(tracer, trace_id, "service.client.submit")
            # Both execution attempts dispatched under the same trace.
            dispatch = _spans_for(tracer, trace_id, "service.job")
            assert len(dispatch) >= 2
            assert {span.args.get("run_id") for span in dispatch} == {run_id}
            # The killed attempt shipped nothing back; the surviving one
            # did, from a *different* worker process than the one killed.
            worker = _spans_for(tracer, trace_id, "service.worker")
            assert len(worker) == 1
            assert worker[0].tid != worker_pid

    def test_client_supplied_trace_is_honored(self, db_path) -> None:
        with obs.session(fresh=True):
            handle = _serve(db_path)
            try:
                with ServiceClient(port=handle.port) as client:
                    # Explicit context object.
                    context = TraceContext(trace_id="cafe" * 4)
                    run_a = client.submit(
                        "sleep", {"seconds": 0}, trace=context
                    )
                    assert client.last_trace.trace_id == "cafe" * 4
                    # Bare string id.
                    run_b = client.submit(
                        "sleep", {"seconds": 0}, trace="beef" * 4
                    )
                    # Ambient context via use_trace.
                    with use_trace(TraceContext(trace_id="f00d" * 4)):
                        run_c = client.submit("sleep", {"seconds": 0})
                    for run_id in (run_a, run_b, run_c):
                        client.wait(run_id, timeout=30.0)
            finally:
                handle.stop()
            with RunStore(db_path) as store:
                assert store.get(run_a).trace_id == "cafe" * 4
                assert store.get(run_b).trace_id == "beef" * 4
                assert store.get(run_c).trace_id == "f00d" * 4

    def test_server_mints_when_client_sends_none(self, db_path) -> None:
        # A bare-protocol submit without trace_id (an older client)
        # still gets a server-minted id: every stored run is joinable.
        handle = _serve(db_path)
        try:
            with ServiceClient(port=handle.port) as client:
                reply = client._request(
                    "submit", {"kind": "sleep", "params": {"seconds": 0}}
                )
                assert reply["trace_id"]
                with RunStore(db_path) as store:
                    assert (
                        store.get(reply["run_id"]).trace_id
                        == reply["trace_id"]
                    )
        finally:
            handle.stop()

    def test_malformed_trace_id_is_rejected(self, db_path) -> None:
        handle = _serve(db_path)
        try:
            with ServiceClient(port=handle.port) as client:
                for bad in (123, "", ["x"]):
                    with pytest.raises(ServiceError) as exc:
                        client._request(
                            "submit",
                            {
                                "kind": "sleep",
                                "params": {"seconds": 0},
                                "trace_id": bad,
                            },
                        )
                    assert exc.value.code == "bad-request"
        finally:
            handle.stop()

    def test_untraced_submissions_still_work_when_obs_off(
        self, db_path
    ) -> None:
        # Collection off: the worker takes the uninstrumented fast path
        # but the correlation id still lands in the store.
        assert not obs.enabled()
        handle = _serve(db_path)
        try:
            with ServiceClient(port=handle.port) as client:
                run_id = client.submit("sleep", {"seconds": 0})
                trace_id = client.last_trace.trace_id
                assert client.wait(run_id, timeout=30.0)["state"] == "done"
        finally:
            handle.stop()
        with RunStore(db_path) as store:
            assert store.get(run_id).trace_id == trace_id
