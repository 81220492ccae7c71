"""The repository benchmark: one command, every workload, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep --seed 20081 --seconds 12 --trace 0

``--trace 0`` times rounds of the workload with nothing patched and
prints the end-to-end metrics; ``--trace 1`` alternates untraced rounds
with traced ones (see ``layers.py``) and prints the per-layer metrics,
the unattributed remainder and the tracing overhead.  Either way the
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A human-readable report goes to standard error, and the spans and layer
breakdown of a traced run to ``.perfbench/`` in the checkout.
``DESIGN.md`` beside this file records why each workload and metric
exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Set-up is measured this many times per run; the median is reported.
SETUP_REPEATS = 5
#: A run times at least this many rounds, even past ``--seconds``.
MIN_ROUNDS = 2

WORKLOADS = ("sweep", "sweep-observed", "campaign", "arena", "service")

#: metric -> layer whose self time it reports (seconds per traced round)
BUSY_METRICS = {
    "core.batch.plan_s": "core.batch.plan",
    "core.heuristics.plan_s": "core.heuristics.plan",
    "simulation.engine.sim_s": "simulation.engine",
    "middleware.sed.request_s": "middleware.sed.request",
    "middleware.sed.execute_s": "middleware.sed.execute",
    "core.repartition_s": "core.repartition",
    "core.performance_vector_s": "core.performance_vector",
    "simulation.dag_engine.sim_s": "simulation.dag_engine",
    "faults.trace.generate_s": "faults.trace.generate",
    "faults.hooks.replay_s": "faults.hooks.replay",
    "schedulers.decide_s": "schedulers.decide",
    "workflow.dag_s": "workflow.dag",
    "experiments.journal_s": "experiments.journal",
    "service.protocol.health_s": "service.protocol.health",
    "service.protocol.submit_s": "service.protocol.submit",
    "service.protocol.status_s": "service.protocol.status",
    "service.client.wait_s": "service.client.wait",
}
SIMULATE_BINDINGS = (
    "repro.simulation.engine.simulate",
    "repro.middleware.sed.simulate",
    "repro.middleware.recovery.simulate",
)
SCHEDULERS = (
    "basic", "redistribute", "allpost_end", "knapsack",
    "online-greedy", "online-knapsack", "reservation", "local-search",
)
SERVICE_KINDS = ("sleep", "simulate", "campaign")
ERROR_CODES = ("timeout", "internal", "other", "not-done")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no program source under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        _fail(f"imported repro from {repro.__file__}, not from {SRC}")


def _workload_class(name: str):
    import workloads

    return {
        "sweep": workloads.SweepWorkload,
        "sweep-observed": workloads.ObservedSweepWorkload,
        "campaign": workloads.CampaignWorkload,
        "arena": workloads.ArenaWorkload,
    }[name]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# ---------------------------------------------------------------------------
# Set-up.
# ---------------------------------------------------------------------------


def _setup_probe(workload: str) -> None:
    """Child side of a set-up measurement: imports plus the first call."""
    _workload_class(workload).warm()


def _measure_setup(args: argparse.Namespace, workdir: Path):
    """Median set-up seconds; for ``service`` also the server to measure."""
    samples: list[float] = []
    if args.workload == "service":
        from service_load import start_server

        server = None
        try:
            for attempt in range(SETUP_REPEATS):
                if server is not None:
                    server.stop()
                before = calibrate.kernel()
                seconds, server = start_server(SRC, workdir, f"runs{attempt}")
                speed = calibrate.scale((before + calibrate.kernel()) / 2)
                samples.append(seconds / speed)
        except BaseException:
            if server is not None:
                server.stop()
            raise
        return _median(samples), samples, server
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-probe",
    ]
    for _ in range(SETUP_REPEATS):
        before = calibrate.kernel()
        started = time.perf_counter()
        subprocess.run(command, check=True, cwd=ROOT, timeout=120)
        seconds = time.perf_counter() - started
        samples.append(seconds / calibrate.scale((before + calibrate.kernel()) / 2))
    return _median(samples), samples, None


# ---------------------------------------------------------------------------
# Measurement.
# ---------------------------------------------------------------------------


def _measure(workload, seconds: float, trace: bool, extra=None):
    """Rounds until ``seconds`` pass; traced rounds interleave when asked.

    ``extra`` is a second workload timed untraced beside the first (the
    shipped sweep beside the observed one, for the observed slowdown).
    """
    from layers import LayerTracer, traced

    workload.round()  # discarded: caches fill and lazy set-up finishes
    plain, tracedrounds, tracers, extras = [], [], [], []
    exchange = getattr(workload, "exchange", None)

    def probe() -> tuple[float, float]:
        return calibrate.kernel(), exchange.time() if exchange else 0.0

    deadline = time.perf_counter() + seconds
    before = probe()
    while True:
        plain.append(workload.round())
        after = probe()
        plain[-1].kernel_s = (before[0] + after[0]) / 2
        plain[-1].exchange_s = (before[1] + after[1]) / 2
        before = after
        if trace:
            tracer = LayerTracer()
            with traced(tracer):
                tracedrounds.append(workload.round())
            tracers.append(tracer)
            tracedrounds[-1].counts.update({
                "traced.sim_calls": sum(tracer.calls[b] for b in SIMULATE_BINDINGS),
                "traced.plans": tracer.items["core.batch.plan"],
                "traced.fault_events": tracer.items["faults.trace.generate"],
            })
            if extra is not None:
                extras.append(extra.round())
            before = probe()
        if time.perf_counter() >= deadline and len(plain) >= MIN_ROUNDS:
            return plain, tracedrounds, tracers, extras


def _timings(rounds) -> tuple[float, float, float, int]:
    """``(ops/s, p50 ms, p90 ms, call samples)`` of untraced rounds.

    Each round is scaled to the reference host by the calibration kernel
    (for ``service`` also the exchange) timed just before and just after
    it (see ``calibrate.py``), so a round and its scale see the same
    state of the shared host.  Each figure is the median over rounds of
    that round's figure: its rate, and the p50 and p90 of its calls (for
    ``service``, of its jobs as their clients saw them, queue wait
    included).  A slow period that holds fewer than half the rounds then
    cannot move the result, where percentiles over the pooled calls
    would take their tail from it.
    """
    rates: list[float] = []
    p50s: list[float] = []
    p90s: list[float] = []
    for r in rounds:
        speed = calibrate.scale(r.kernel_s, r.exchange_s)
        rates.append(r.ops / r.seconds * speed)
        calls = [ms / speed for ms in r.call_ms]
        p50s.append(_median(calls))
        p90s.append(_p90(calls))
    return _median(rates), _median(p50s), _median(p90s), sum(len(r.call_ms) for r in rounds)


def _rate(rounds) -> float:
    """Unscaled operations per second of the median round."""
    return _median([r.ops / r.seconds for r in rounds])


def _code_digest() -> str:
    """Content hash of the program and the benchmark, every ``.py`` file."""
    digest = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def _repeat_failures(rounds, workload: str, seed: int) -> tuple[list[str], int]:
    """Counts and outputs that differ between rounds or earlier runs.

    Every count a round records must read the same in every round that
    records it, and in earlier runs of this seed on the same code: the
    record is keyed by :func:`_code_digest`, so a change to the program
    that legitimately moves a count starts a fresh record.  Returns the
    problems and the number of operations whose output differed from
    the first round's.
    """
    record = OUT / "counts" / _code_digest() / f"{workload}-{seed}.json"
    seen: dict[str, int] = json.loads(record.read_text()) if record.exists() else {}
    problems = []
    for index, r in enumerate(rounds):
        for key, value in r.counts.items():
            if seen.setdefault(key, value) != value:
                problems.append(f"count {key} drifted: {seen[key]} -> {value} (round {index})")
    differing = 0
    first = rounds[0]
    for index, other in enumerate(rounds[1:], start=1):
        if first.outputs != other.outputs:
            differing += len(first.outputs) != len(other.outputs) or sum(
                a != b for a, b in zip(first.outputs, other.outputs)
            )
            problems.append(f"outputs of round {index} differ from round 0")
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(seen, sort_keys=True))
    return problems, differing


def _layer_metrics(args, workload, plain, traced_rounds, tracers, extras) -> dict:
    """Per-layer metrics of the traced rounds (averaged per round)."""
    n = len(tracers)
    metrics: dict[str, tuple[float, str]] = {}
    busy: dict[str, float] = {}
    for tracer in tracers:
        for layer, seconds in tracer.busy.items():
            busy[layer] = busy.get(layer, 0.0) + seconds / n
    for name, layer in BUSY_METRICS.items():
        metrics[name] = (busy.get(layer, 0.0), "s")

    counts = traced_rounds[0].counts
    metrics["core.batch.plans"] = (counts["traced.plans"], "count")
    metrics["core.makespan.sim_hits"] = (counts.get("sim_hits", 0), "count")
    metrics["core.makespan.sim_misses"] = (counts.get("sim_misses", 0), "count")
    metrics["simulation.engine.sim_calls"] = (counts["traced.sim_calls"], "count")
    metrics["faults.events"] = (counts["traced.fault_events"], "count")
    metrics["experiments.journal_bytes"] = (counts.get("journal_bytes", 0), "B")

    decide: dict[str, list[float]] = {}
    for r in plain + traced_rounds:
        for name, values in r.decide_s.items():
            decide.setdefault(name, []).extend(values)
    for name in SCHEDULERS:
        metrics[f"schedulers.decide_ms.{name}"] = (
            _median(decide.get(name, [])) * 1e3, "ms"
        )

    slowdown = 0.0
    if extras:
        shipped, observed = (
            (extras, plain) if args.workload == "sweep-observed" else (plain, extras)
        )
        slowdown = _rate(shipped) / _rate(observed)
    metrics["obs.observed_slowdown"] = (slowdown, "x")

    metrics.update(_service_metrics(workload, tracers, traced_rounds))

    walls = [r.basis for r in traced_rounds]
    wall = sum(walls) / n
    unattributed = wall - sum(busy.values())
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.unattributed_s"] = (unattributed, "s")
    metrics["trace.unattributed_share"] = (unattributed / wall, "ratio")
    metrics["trace.overhead"] = (
        _rate(plain) / _rate(traced_rounds) - 1.0, "ratio"
    )
    return metrics, busy, wall, unattributed


def _service_metrics(workload, tracers, traced_rounds) -> dict:
    metrics: dict[str, tuple[float, str]] = {}
    spans: dict[str, list[float]] = {}
    for tracer in tracers:
        for _id, layer, _tid, started, ended, _parent in tracer.spans:
            spans.setdefault(layer, []).append((ended - started) * 1e3)
    for op in ("health", "submit", "status"):
        metrics[f"service.protocol.{op}_ms"] = (
            _median(spans.get(f"service.protocol.{op}", [])), "ms"
        )
    finished = getattr(workload, "finished", [])
    execute_ms = getattr(workload, "execute_ms", {})
    residency = [
        (status["updated_at"] - status["created_at"]) * 1e3
        for _kind, _key, _run, _lat, status in finished
    ]
    metrics["service.store.residency_ms"] = (_median(residency), "ms")
    for kind in SERVICE_KINDS:
        metrics[f"service.workers.execute_ms.{kind}"] = (
            _median(execute_ms.get(kind, [])), "ms"
        )
    key_ms = getattr(workload, "key_execute_ms", {})
    metrics["service.dispatch_ms"] = (
        _median([
            (status["updated_at"] - status["created_at"]) * 1e3 - key_ms[key]
            for _kind, key, _run, _lat, status in finished
        ]),
        "ms",
    )
    jobs = sum(r.ops for r in traced_rounds)
    polls = sum(t.calls["repro.service.client.ServiceClient.status"] for t in tracers)
    metrics["service.polls_per_job"] = (polls / jobs if finished else 0.0, "count")
    metrics["service.retries"] = (
        sum(status["attempts"] - 1 for *_rest, status in finished), "count"
    )
    errors = getattr(workload, "errors", {})
    for code in ERROR_CODES:
        if code == "other":
            value = sum(v for k, v in errors.items() if k not in ERROR_CODES)
        else:
            value = errors.get(code, 0)
        metrics[f"service.errors.{code}"] = (value, "count")
    return metrics


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def _report(lines: list[str]) -> None:
    print("\n".join(lines), file=sys.stderr)


def run(args: argparse.Namespace) -> dict[str, Any]:
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    server = workload = None
    try:
        setup_s, setup_samples, server = _measure_setup(args, workdir)
        if args.workload == "service":
            from service_load import ServiceWorkload

            workload = ServiceWorkload(args.seed, workdir, server)
        else:
            workload = _workload_class(args.workload)(args.seed, workdir)
        workload.warm()
        extra = None
        if args.trace and args.workload in ("sweep", "sweep-observed"):
            other = "sweep-observed" if args.workload == "sweep" else "sweep"
            extra = _workload_class(other)(args.seed, workdir)
        plain, traced_rounds, tracers, extras = _measure(
            workload, args.seconds, bool(args.trace), extra
        )
        rounds = plain + traced_rounds
        problems, differing = _repeat_failures(rounds, args.workload, args.seed)
        checked, check_failed = workload.check(rounds[0].outputs)
    finally:
        if args.workload == "service" and workload is not None:
            workload.close()
        if server is not None:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.ops for r in rounds)
    failed = check_failed + differing
    if args.workload == "service":
        attempted, failed = checked, check_failed
    report = [
        f"workload {args.workload} seed {args.seed}: {len(plain)} untraced "
        f"round(s), {len(traced_rounds)} traced; {attempted} operations "
        f"attempted, {failed} failed; {checked} checked against the reference",
        f"set-up samples (s): {', '.join(f'{s:.4f}' for s in setup_samples)}",
        f"counts: {json.dumps(rounds[0].counts, sort_keys=True)}",
        *problems,
    ]
    if not args.trace:
        ops_per_s, p50, p90, calls = _timings(plain)
        kernels = sorted(r.kernel_s * 1e3 for r in plain)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (ops_per_s, "ops/s"),
            "call_p50_ms": (p50, "ms"),
            "call_p90_ms": (p90, "ms"),
        }
        report.append(
            f"call latency samples: {calls}; unscaled {_rate(plain):.2f} "
            f"{workload.unit}/s; calibration kernel fastest {kernels[0]:.1f} ms, "
            f"median {_median(kernels):.1f} ms "
            f"(reference {calibrate.REFERENCE_S * 1e3:.0f} ms)"
        )
    else:
        metrics, busy, wall, unattributed = _layer_metrics(
            args, workload, plain, traced_rounds, tracers, extras
        )
        report.append(f"traced wall per round {wall:.4f} s; layer self time:")
        for layer, seconds in sorted(busy.items(), key=lambda kv: -kv[1]):
            report.append(f"  {layer:28s} {seconds:10.4f} s  {seconds / wall:6.1%}")
        report.append(
            f"  {'unattributed':28s} {unattributed:10.4f} s  {unattributed / wall:6.1%}"
        )
        report.append(f"tracing overhead: {metrics['trace.overhead'][0]:+.1%}")
        OUT.mkdir(exist_ok=True)
        stem = f"{args.workload}-{args.seed}"
        (OUT / f"layers-{stem}.json").write_text(json.dumps({
            "wall_s": wall, "unattributed_s": unattributed,
            "layers": {k: {"busy_s": v, "share": v / wall} for k, v in busy.items()},
        }, indent=1, sort_keys=True))
        (OUT / f"trace-{stem}.json").write_text(json.dumps(
            {"traceEvents": [e for t in tracers for e in t.span_events()]}
        ))
    for name, (value, unit) in metrics.items():
        report.append(f"  {name:36s} {value:14.6f} {unit}")
    _report(report)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=20081)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_program()
    if args.setup_probe:
        _setup_probe(args.workload)
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
