"""The ``service`` workload: a closed-loop load against ``repro-oa serve``.

The server runs as its own process (``python -m repro.cli serve --port 0
--workers 1``) on a fresh SQLite store, so the load generator never
competes with it for the interpreter lock.  One benchmark process holds
:data:`CONNECTIONS` connections, one thread each; a connection submits
its next job only after ``ServiceClient.wait`` saw the previous one reach
a terminal state.  ``wait`` polls every :data:`POLL_S` seconds, well
below the ~8 ms median job latency, so latencies are not rounded up to
the poll period.

A round is one fixed, seeded batch of jobs; every round replays it.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

from repro.exceptions import ServiceError
from repro.service import ServiceClient
from repro.service.workers import execute_job

import calibrate
from workloads import CLUSTERS, Round

#: Concurrent closed-loop connections: at most ``nproc`` on the 2-core host.
CONNECTIONS = 2
#: ``ServiceClient.wait`` poll interval, seconds.
POLL_S = 0.001
#: Per-job budget before the client gives up (a failed operation).
JOB_TIMEOUT_S = 30.0
#: Jobs per round: as many of each kind.  No job mix is recorded for
#: this service (its own benchmark submits ``sleep`` jobs only), so no
#: kind is weighted over another.
JOBS_PER_KIND = 40
KINDS = ("sleep", "simulate", "campaign")
#: Distinct parameter sets per compute kind, drawn from the seed.
VARIANTS = 4


def job_batch(seed: int) -> list[tuple[str, dict[str, Any]]]:
    """The seeded job mix of one round: equal proportions, seeded order."""
    rng = random.Random(f"perfbench:service:{seed}")
    # Each kind's own defaults (``repro.service.workers``: simulate 53
    # processors, campaign 3 clusters of 40; 10 scenarios of 12 months),
    # with the cluster and the processor count drawn around them.
    simulate = [
        {
            "cluster": rng.choice(CLUSTERS),
            "resources": 53 + rng.randint(-5, 5),
            "scenarios": 10,
            "months": 12,
        }
        for _ in range(VARIANTS)
    ]
    campaign = [
        {
            "clusters": 3,
            "resources": 40 + rng.randint(-4, 4),
            "scenarios": 10,
            "months": 12,
        }
        for _ in range(VARIANTS)
    ]
    params = {
        "sleep": lambda: {"seconds": 0},
        "simulate": lambda: rng.choice(simulate),
        "campaign": lambda: rng.choice(campaign),
    }
    jobs = [(kind, params[kind]()) for kind in KINDS for _ in range(JOBS_PER_KIND)]
    rng.shuffle(jobs)
    return jobs


def _job_key(kind: str, params: dict[str, Any]) -> str:
    return json.dumps([kind, params], sort_keys=True)


def comparable(result_json: str | dict[str, Any]) -> Any:
    """A result envelope minus its wall-clock fields."""
    data = json.loads(result_json) if isinstance(result_json, str) else result_json

    def strip(value: Any) -> Any:
        if isinstance(value, dict):
            return {
                k: strip(v) for k, v in value.items() if k != "control_plane_seconds"
            }
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    return strip(data)


class Server:
    """``repro-oa serve`` as a child process on a fresh store."""

    def __init__(self, src: Path, workdir: Path, name: str) -> None:
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop("REPRO_LOG", None)
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--db", str(workdir / f"{name}.db"), "--port", "0", "--workers", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
        )
        line = self.process.stdout.readline()
        match = re.search(r":(\d+) ", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not report a port: {line!r}")
        self.port = int(match.group(1))

    def stop(self) -> None:
        """SIGINT (drain and stop), then wait; kill if it does not end."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def start_server(src: Path, workdir: Path, name: str) -> tuple[float, Server]:
    """Spawn, health-check and run one job; returns (set-up seconds, server)."""
    started = time.perf_counter()
    server = Server(src, workdir, name)
    try:
        with ServiceClient(port=server.port) as client:
            client.health()
            client.wait(client.submit("sleep", {"seconds": 0}), poll=POLL_S)
    except BaseException:
        server.stop()
        raise
    return time.perf_counter() - started, server


class ServiceWorkload:
    """Closed-loop job mix over :data:`CONNECTIONS` connections."""

    unit = "jobs"

    def __init__(self, seed: int, workdir: Path, server: Server) -> None:
        self.jobs = job_batch(seed)
        self.server = server
        self.clients = [ServiceClient(port=server.port) for _ in range(CONNECTIONS)]
        #: expected result per distinct job, from ``execute_job`` in this process
        self.expected: dict[str, Any] = {}
        #: ``execute_job`` wall time per kind, milliseconds
        self.execute_ms: dict[str, list[float]] = {}
        #: ``execute_job`` wall time per distinct job, milliseconds
        self.key_execute_ms: dict[str, float] = {}
        #: every finished job: (kind, key, run id, latency ms, final status)
        self.finished: list[tuple[str, str, str, float, dict[str, Any]]] = []
        #: client-side error codes, plus ``not-done`` terminal states
        self.errors: dict[str, int] = {}
        #: calibration of inter-process round trips (see ``calibrate.py``)
        self.exchange = calibrate.Exchange()
        for kind, params in self.jobs:
            key = _job_key(kind, params)
            if key in self.expected:
                continue
            started = time.perf_counter()
            self.expected[key] = comparable(execute_job(kind, dict(params)))
            self.key_execute_ms[key] = (time.perf_counter() - started) * 1e3
            self.execute_ms.setdefault(kind, []).append(self.key_execute_ms[key])

    def warm(self) -> None:
        for client in self.clients:
            client.health()

    def _connection(
        self, client: ServiceClient, jobs: list, out: list, walls: list
    ) -> None:
        started_thread = time.perf_counter()
        client.health()
        for kind, params in jobs:
            started = time.perf_counter()
            try:
                run_id = client.submit(kind, params)
                status = client.wait(run_id, timeout=JOB_TIMEOUT_S, poll=POLL_S)
            except ServiceError as exc:
                out.append((kind, _job_key(kind, params), None, None, exc.code))
                continue
            latency = (time.perf_counter() - started) * 1e3
            out.append((kind, _job_key(kind, params), run_id, latency, status))
        walls.append(time.perf_counter() - started_thread)

    def round(self) -> Round:
        results: list[list] = [[] for _ in self.clients]
        walls: list[float] = []
        threads = [
            threading.Thread(
                target=self._connection,
                args=(client, self.jobs[i::CONNECTIONS], results[i], walls),
            )
            for i, client in enumerate(self.clients)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        seconds = time.perf_counter() - started
        call_ms: list[float] = []
        counts: dict[str, int] = {}
        for kind, key, run_id, latency, status in (r for rs in results for r in rs):
            counts[f"jobs.{kind}"] = counts.get(f"jobs.{kind}", 0) + 1
            if run_id is None:
                self.errors[status] = self.errors.get(status, 0) + 1
                continue
            call_ms.append(latency)
            self.finished.append((kind, key, run_id, latency, status))
        return Round(len(self.jobs), seconds, call_ms, counts, [], basis=sum(walls))

    def check(self, outputs: list[Any]) -> tuple[int, int]:
        """Each done run's stored result must equal ``execute_job``'s here.

        Returns ``(jobs attempted, jobs failed)``: an error reply, a
        timeout, a terminal state other than ``done`` or a result that
        differs from the local one each fail their job.
        """
        mismatched = 0
        with ServiceClient(port=self.server.port) as client:
            for _kind, key, run_id, _latency, status in self.finished:
                if status["state"] != "done":
                    self.errors["not-done"] = self.errors.get("not-done", 0) + 1
                    continue
                stored = client.result(run_id)["result"]
                mismatched += comparable(stored) != self.expected[key]
        errors = sum(v for k, v in self.errors.items() if k != "not-done")
        return len(self.finished) + errors, errors + self.errors.get("not-done", 0) + mismatched

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.exchange.close()
