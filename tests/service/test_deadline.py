"""The hung-job drill: a job that never returns meets its deadline.

A 30 s ``sleep`` job runs under ``job_timeout=0.5`` on both execution
hosts — a pool worker of the server and a standalone
:class:`~repro.service.fleet.FleetWorker`.  The attempt must be
recorded as a timeout within ~2 s, its child process must be gone (not
abandoned), the lease must not be renewed past the deadline, the retry
must run on a fresh child, and the last attempt must land ``failed``.
A fake-clock case pins the heartbeat count at the deadline.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.service.backends import MemoryBackend
from repro.service.client import ServiceClient
from repro.service.fleet import FleetWorker, WorkerConfig
from repro.service.server import serve_in_thread
from repro.service.store import RunStore

DEADLINE = 0.5

CONFIG = WorkerConfig(
    lease_seconds=1.0,
    heartbeat_interval=0.1,
    job_timeout=DEADLINE,
    backoff_base=0.01,
    backoff_cap=0.01,
    poll_base=0.01,
    poll_cap=0.01,
)


def _until(predicate, timeout: float = 10.0, what: str = "condition"):
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.005)


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


class _FleetHost:
    """One standalone worker on a thread of this process."""

    def __init__(self, db_path) -> None:
        self.store = RunStore(db_path)
        self.worker = FleetWorker(self.store, CONFIG)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self.worker.run_forever, args=(self._stop,), daemon=True
        )
        self._thread.start()

    def submit(self, **kwargs) -> str:
        return self.store.submit("sleep", {"seconds": 30.0}, **kwargs)

    def child_pid(self) -> int | None:
        return self.worker.child_pid

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=30.0)
        self.store.close()


class _PoolHost:
    """One pool worker of a server running on a thread."""

    def __init__(self, db_path) -> None:
        self.handle = serve_in_thread(db_path, workers=1, worker_config=CONFIG)
        self.store = RunStore(db_path)

    def submit(self, **kwargs) -> str:
        with ServiceClient(port=self.handle.port) as client:
            return client.submit("sleep", {"seconds": 30.0}, **kwargs)

    def child_pid(self) -> int | None:
        pool = self.handle.server.pool
        return pool[0].child_pid if pool else None

    def close(self) -> None:
        self.handle.stop()
        self.store.close()


@pytest.fixture(params=["server-pool", "fleet-worker"])
def host(request, tmp_path):
    made = (_PoolHost if request.param == "server-pool" else _FleetHost)(
        tmp_path / "runs.db"
    )
    yield made
    made.close()


class TestHungJobDrill:
    def test_deadline_kills_child_and_retries_on_a_fresh_one(self, host) -> None:
        run_id = host.submit(max_attempts=2)
        store = host.store

        first = _until(
            lambda: (r := store.get(run_id)).state == "running"
            and r.attempts == 1
            and r,
            what="first claim",
        )
        claimed_at = first.heartbeat_at
        pid = _until(host.child_pid, what="the job child")
        # Sample the lease while the first attempt hangs.
        stamps = []
        while (r := store.get(run_id)).attempts == 1 and r.state == "running":
            stamps.append(r.heartbeat_at)
            time.sleep(0.02)

        # The attempt is recorded as a timeout within ~2 s ...
        timed_out = _until(
            lambda: (r := store.get(run_id)).error and r,
            what="the timeout record",
        )
        assert "timeout" in timed_out.error
        assert time.time() - claimed_at < 2.0
        # ... its child was killed and reaped, not abandoned ...
        assert _gone(pid)
        # ... and its lease was renewed while it ran, never after the
        # deadline.
        assert max(stamps) > claimed_at
        assert max(stamps) <= claimed_at + DEADLINE + 0.5

        # The retry runs on a fresh child and, on its last attempt,
        # lands failed.
        _until(
            lambda: store.get(run_id).attempts == 2,
            what="the second claim",
        )
        fresh = _until(
            lambda: (p := host.child_pid()) and p != pid and p,
            what="a fresh child",
        )
        final = _until(
            lambda: (r := store.get(run_id)).state == "failed" and r,
            what="the final failure",
        )
        assert final.attempts == 2
        assert "timeout" in final.error
        assert final.owner_id is None
        _until(lambda: _gone(fresh), what="the second child to die")


class TestSingleAttempt:
    def test_max_attempts_one_lands_failed(self, tmp_path) -> None:
        with RunStore(tmp_path / "runs.db") as store:
            run_id = store.submit("sleep", {"seconds": 30.0}, max_attempts=1)
            worker = FleetWorker(store, CONFIG)
            started = time.monotonic()
            assert worker.run_once() == "failed"
            assert time.monotonic() - started < 2.0
            assert worker.child_pid is None
            record = store.get(run_id)
            assert record.state == "failed"
            assert record.attempts == 1
            assert record.error.startswith("timeout")
            assert worker.stats["claims"] == 1


class TickingClock:
    """A fake clock that advances a fixed step on every read."""

    def __init__(self, step: float, start: float = 1_000.0) -> None:
        self.now = start
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class TestFakeClockDeadline:
    def test_heartbeats_stop_at_the_deadline(self) -> None:
        # Fake time only: the deadline and every renewal are decided by
        # the injected clock while the child hangs (binary-exact steps,
        # so no rounding moves a beat).  Beats fall due every 0.25 s of
        # fake time; the one due at the 1.0 s deadline never runs.
        config = WorkerConfig(
            lease_seconds=1.0, heartbeat_interval=0.25, job_timeout=1.0
        )
        clock = TickingClock(0.125, start=1024.0)
        with RunStore(MemoryBackend(), clock=clock) as store:
            run_id = store.submit("sleep", {"seconds": 30.0}, max_attempts=1)
            renewals: list[float] = []
            renew = store.heartbeat

            def spy(run, owner, *, lease_seconds, now=None):
                renewals.append(now)
                return renew(run, owner, lease_seconds=lease_seconds, now=now)

            store.heartbeat = spy
            worker = FleetWorker(store, config, owner_id="w1", clock=clock)
            assert worker.run_once() == "failed"
            assert worker.stats["heartbeats"] == len(renewals) == 3
            gaps = [b - a for a, b in zip(renewals, renewals[1:])]
            assert gaps == [0.25, 0.25]
            record = store.get(run_id)
            assert record.error.startswith("timeout")
            assert record.heartbeat_at is None  # the lease is gone
            # Nothing renews a lease once the attempt is over.
            time.sleep(0.3)
            assert len(renewals) == 3
