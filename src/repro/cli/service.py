"""The campaign-service verbs: ``serve``, ``worker`` and the client verbs.

``serve`` and ``worker`` fork one job child per fleet worker; this
module's imports (the server, the fleet, the job kinds, the benchmark
platform tables, and through them numpy and the core packages) are
loaded before the first fork, so a job child starts with them in memory.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import threading

import repro.platform.benchmarks  # noqa: F401  (preloaded for the job children)
from repro.analysis.tables import format_table
from repro.cli import add_obs_flags, finalize_obs, obs_scope
from repro.exceptions import ConfigurationError, ServiceError
from repro.faults.chaos import PROCESS_ACTIONS, ChaosConfig
from repro.service.backends.base import RUN_STATES
from repro.service.client import ServiceClient
from repro.service.fleet import FleetWorker, WorkerConfig, WorkerKilled
from repro.service.server import CampaignServer
from repro.service.store import RunStore
from repro.service.workers import job_kinds


def register(verbs: dict[str, argparse.ArgumentParser]) -> None:
    """Declare the service verbs' options and handlers."""
    psrv = verbs["serve"]
    psrv.add_argument(
        "--store", "--db", dest="store", metavar="URL", default="runs.db",
        help=(
            "run store (created if missing): a sqlite path, sqlite:PATH, "
            "postgres://DSN, or memory:// (default: runs.db)"
        ),
    )
    psrv.add_argument(
        "--reap-interval", type=float, default=1.0, metavar="SECONDS",
        help=(
            "lease reaper period for worker-fleet deployments "
            "(0 disables; default: 1.0)"
        ),
    )
    psrv.add_argument("--host", default="127.0.0.1")
    psrv.add_argument("--port", type=int, default=4321)
    psrv.add_argument(
        "--workers", type=int, default=2,
        help="local pool workers (concurrent jobs; 0 = fleet-only)",
    )
    _job_timeout_flag(psrv)
    psrv.add_argument(
        "--max-attempts", type=int, default=3,
        help="executions per run before it lands in 'failed'",
    )
    psrv.add_argument(
        "--chaos-rate", type=float, default=0.0, metavar="P",
        help=(
            "arm chaos testing: probability per job execution of an "
            "injected failure, split evenly over crash/timeout/error "
            "(default: 0 = off)"
        ),
    )
    psrv.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed for the deterministic chaos decision stream",
    )
    add_obs_flags(psrv)
    psrv.set_defaults(run=_serve)

    pwrk = verbs["worker"]
    pwrk.add_argument(
        "--store", metavar="URL", default="runs.db",
        help=(
            "shared run store: a sqlite path, sqlite:PATH, "
            "postgres://DSN, or memory:// (default: runs.db)"
        ),
    )
    pwrk.add_argument(
        "--owner", default=None, metavar="ID",
        help="worker identity (default: worker-<pid>-<random>)",
    )
    pwrk.add_argument(
        "--lease-seconds", type=float, default=15.0,
        help="lease duration stamped on each claim (default: 15)",
    )
    pwrk.add_argument(
        "--heartbeat-interval", type=float, default=5.0,
        help="lease renewal period; must be < lease/2 (default: 5)",
    )
    _job_timeout_flag(pwrk)
    pwrk.add_argument(
        "--max-jobs", type=int, default=None, metavar="N",
        help="exit after N executed jobs (default: run until stopped)",
    )
    pwrk.add_argument(
        "--poll-seed", type=int, default=None,
        help="seed for the idle-poll and retry jitter stream",
    )
    pwrk.add_argument(
        "--fleet-chaos-rate", type=float, default=0.0, metavar="P",
        help=(
            "arm fleet chaos: probability per claimed job of an injected "
            "worker failure, split over kill/kill-heartbeat/partition "
            "(default: 0 = off)"
        ),
    )
    pwrk.add_argument(
        "--fleet-chaos-seed", type=int, default=0,
        help="seed for the deterministic fleet-chaos decision stream",
    )
    add_obs_flags(pwrk)
    pwrk.set_defaults(run=_worker)

    _endpoint_flags(verbs["health"]).set_defaults(run=_health)

    psub = _endpoint_flags(verbs["submit"], timeout=False)
    psub.add_argument(
        "--kind", required=True,
        help="job kind: " + ", ".join(kind.name for kind in job_kinds()),
    )
    psub.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="job parameter; VALUE is parsed as JSON, falling back to text",
    )
    psub.add_argument(
        "--max-attempts", type=int, default=None,
        help="override the server's retry budget for this run",
    )
    psub.add_argument(
        "--wait", action="store_true",
        help="poll until the run reaches a terminal state",
    )
    psub.add_argument(
        "--timeout", type=float, default=600.0,
        help=(
            "--wait polling budget in seconds (also the per-request "
            "network timeout)"
        ),
    )
    psub.set_defaults(run=_submit)

    for name, run in (("status", _status), ("result", _result)):
        parser = _endpoint_flags(verbs[name])
        parser.add_argument("run_id", help="run id returned by submit")
        parser.set_defaults(run=run)

    pruns = _endpoint_flags(verbs["runs"])
    pruns.add_argument("--state", default=None, choices=list(RUN_STATES))
    pruns.add_argument("--limit", type=int, default=20)
    pruns.set_defaults(run=_runs)

    pcan = _endpoint_flags(verbs["cancel"])
    pcan.add_argument("run_id", help="run id returned by submit")
    pcan.set_defaults(run=_cancel)


def _job_timeout_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-job deadline; the job's child is killed past it "
        "(default: unlimited)",
    )


def _endpoint_flags(
    parser: argparse.ArgumentParser, *, timeout: bool = True
) -> argparse.ArgumentParser:
    """The shared client-side service address flags; returns ``parser``.

    ``timeout=False`` skips the shared ``--timeout`` flag for verbs
    that define their own (``submit``, whose ``--timeout`` is both the
    network and the ``--wait`` budget).
    """
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=4321)
    if timeout:
        parser.add_argument(
            "--timeout", type=float, default=30.0, metavar="SECONDS",
            help="connect/read timeout for the service request",
        )
    return parser


def _serve(args: argparse.Namespace) -> str:
    chaos = None
    if args.chaos_rate > 0:
        chaos = ChaosConfig.storm(seed=args.chaos_seed, rate=args.chaos_rate)
    reap_interval = args.reap_interval if args.reap_interval > 0 else None
    server = CampaignServer(
        args.store, host=args.host, port=args.port, workers=args.workers,
        max_attempts=args.max_attempts,
        worker_config=WorkerConfig(job_timeout=args.job_timeout),
        chaos=chaos, reap_interval=reap_interval,
    )

    async def _run() -> None:
        port = await server.start()
        print(
            f"campaign service listening on {args.host}:{port} "
            f"(store={args.store}, workers={args.workers}) — "
            f"Ctrl-C drains and stops",
            flush=True,
        )
        await server.serve_forever()

    with obs_scope(args):
        asyncio.run(_run())
        extra = finalize_obs(args)
    return "\n".join(
        ["campaign service stopped (queued runs persist in the store)", *extra]
    )


def _worker(args: argparse.Namespace) -> int:
    chaos = None
    if args.fleet_chaos_rate > 0:
        chaos = ChaosConfig.storm(
            seed=args.fleet_chaos_seed,
            rate=args.fleet_chaos_rate,
            actions=PROCESS_ACTIONS,
        )
    config = WorkerConfig(
        lease_seconds=args.lease_seconds,
        heartbeat_interval=args.heartbeat_interval,
        job_timeout=args.job_timeout,
        max_jobs=args.max_jobs,
        seed=args.poll_seed,
    )
    stop = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(sig, lambda *_: stop.set())
        except ValueError:  # pragma: no cover - non-main thread
            pass
    with obs_scope(args), RunStore(args.store) as store:
        worker = FleetWorker(
            store, config, owner_id=args.owner, chaos=chaos
        )
        print(
            f"fleet worker {worker.owner_id} polling {args.store} "
            f"(lease={config.lease_seconds}s, "
            f"heartbeat={config.heartbeat_interval}s) — Ctrl-C stops",
            flush=True,
        )
        try:
            stats = worker.run_forever(stop)
        except WorkerKilled as exc:
            # Chaos killed this worker: leave like a real SIGKILL would
            # (the claimed run stays leased; the reaper recovers it).
            print(f"worker killed by chaos: {exc}", file=sys.stderr)
            return 1
        extra = finalize_obs(args)
    summary = ", ".join(f"{key}={stats[key]}" for key in sorted(stats))
    print("\n".join([f"worker {worker.owner_id} stopped: {summary}", *extra]))
    return 0


def _health(args: argparse.Namespace) -> int:
    try:
        with ServiceClient(
            args.host, args.port, timeout=args.timeout, connect_retries=0
        ) as client:
            health = client.health()
    except (ServiceError, OSError) as exc:
        print(
            f"unhealthy: {args.host}:{args.port}: {exc}", file=sys.stderr
        )
        return 1
    fleet = health.get("fleet", {})
    print(
        f"healthy: version={health['version']} "
        f"uptime={health['uptime_seconds']:.0f}s "
        f"queue_depth={health['queue_depth']} "
        f"workers={health['workers']} "
        f"fleet_workers={fleet.get('live_workers', 0)} "
        f"leased={fleet.get('leased_jobs', 0)}"
    )
    return 0


def _parse_job_params(pairs: list[str]) -> dict:
    """Parse repeated ``--param KEY=VALUE`` flags (VALUE as JSON or text)."""
    params = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ConfigurationError(
                f"malformed --param {pair!r}; expected KEY=VALUE"
            )
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _describe_run(status: dict) -> str:
    """One run summary, formatted for terminal output."""
    lines = [
        f"run {status['run_id']}: kind={status['kind']} "
        f"state={status['state']} "
        f"attempts={status['attempts']}/{status['max_attempts']}",
    ]
    if status.get("error"):
        lines.append(f"  error: {status['error']}")
    return "\n".join(lines)


def _client(args: argparse.Namespace) -> ServiceClient:
    return ServiceClient(args.host, args.port, timeout=args.timeout)


def _submit(args: argparse.Namespace) -> str:
    with _client(args) as client:
        run_id = client.submit(
            args.kind,
            _parse_job_params(args.param),
            max_attempts=args.max_attempts,
        )
        # The run id must stay the last token of the submit line —
        # scripts (and the CLI tests) parse it from there.
        trace = client.last_trace
        traced = f" (trace {trace.trace_id})" if trace is not None else ""
        parts = [f"submitted {args.kind}{traced} as run {run_id}"]
        if args.wait:
            status = client.wait(run_id, timeout=args.timeout)
            parts.append(_describe_run(status))
    return "\n".join(parts)


def _status(args: argparse.Namespace) -> str:
    with _client(args) as client:
        return _describe_run(client.status(args.run_id))


def _result(args: argparse.Namespace) -> str:
    with _client(args) as client:
        payload = client.result(args.run_id)
    return json.dumps(payload["result"], indent=2)


def _runs(args: argparse.Namespace) -> str:
    with _client(args) as client:
        runs = client.runs(args.state, limit=args.limit)
        health = client.health()
    if not runs:
        header = "no matching runs"
    else:
        header = format_table(
            ["run", "kind", "state", "attempts", "error"],
            [
                [
                    r["run_id"],
                    r["kind"],
                    r["state"],
                    f"{r['attempts']}/{r['max_attempts']}",
                    (r["error"] or "")[:40],
                ]
                for r in runs
            ],
        )
    jobs = health["jobs"]
    counts = ", ".join(f"{state}={jobs[state]}" for state in jobs)
    return f"{header}\n\nserver: {counts}"


def _cancel(args: argparse.Namespace) -> str:
    with _client(args) as client:
        status = client.cancel(args.run_id)
    return _describe_run(status)
