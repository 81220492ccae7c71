"""The ``bench`` verb: the quick-tier benchmark workloads and their gate.

The measurement protocol, the ``BENCH_<name>.json`` artifacts and the
baseline comparator are :mod:`repro.obs.bench`; this module holds what
they measure.  :func:`bench_specs` is the quick tier ``repro-oa bench``
runs by default; its workloads are seeded and sized to finish in
seconds so the gate is cheap enough to run on every push.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Sequence

from repro.analysis.tables import format_table
from repro.core.batch import batch_plan_groupings
from repro.core.heuristics import HeuristicName, plan_grouping
from repro.core.makespan import cached_simulated_makespan, clear_makespan_cache
from repro.experiments.sweep import SweepGrid, run_sweep
from repro.lintkit import Checker, load_config
from repro.lintkit.config import find_pyproject
from repro.middleware.deployment import run_campaign
from repro.obs.bench import (
    BenchComparison,
    BenchSpec,
    baseline_from_results,
    compare_to_baseline,
    inject_slowdown,
    load_baseline,
    run_bench,
    write_bench_artifact,
)
from repro.platform.benchmarks import (
    REFERENCE_CLUSTER_SPEEDS,
    benchmark_cluster,
    benchmark_grid,
    benchmark_timing,
)
from repro.schedulers.base import iter_schedulers
from repro.service.client import ServiceClient
from repro.service.server import serve_in_thread
from repro.simulation.engine import simulate
from repro.workflow.ocean_atmosphere import EnsembleSpec


def register(verbs: dict[str, argparse.ArgumentParser]) -> None:
    """Declare ``bench``'s options and handler."""
    pb = verbs["bench"]
    pb.add_argument(
        "names", nargs="*", metavar="NAME",
        help="benchmarks to run (default: the whole quick tier)",
    )
    pb.add_argument(
        "--list", action="store_true", dest="list_specs",
        help="list registered benchmarks and exit",
    )
    pb.add_argument(
        "--quick", action="store_true",
        help="one repetition after one warm-up call (CI smoke; noisy numbers)",
    )
    pb.add_argument(
        "--out", metavar="DIR", default="bench_artifacts",
        help="directory for BENCH_<name>.json artifacts",
    )
    pb.add_argument(
        "--baseline", metavar="PATH", default="benchmarks/baseline.json",
        help="baseline to compare against (missing = comparison skipped)",
    )
    pb.add_argument(
        "--max-regression", type=float, default=None, metavar="PCT",
        help=(
            "adverse-drift budget in percent; default: the budget "
            "recorded in the baseline file"
        ),
    )
    pb.add_argument(
        "--repetitions", type=int, default=None,
        help="override every spec's repetition count",
    )
    pb.add_argument(
        "--warmup", type=int, default=None,
        help="override every spec's warmup count",
    )
    pb.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline file from this run's medians",
    )
    pb.add_argument(
        "--inject-slowdown", type=float, default=None, metavar="FACTOR",
        help=(
            "adversely scale every result by FACTOR before comparing "
            "(self-test: proves the regression gate fires)"
        ),
    )
    pb.set_defaults(run=_bench)


def _bench(args: argparse.Namespace) -> int:
    specs = bench_specs()
    if args.list_specs:
        for spec in specs:
            print(f"{spec.name:10s} [{spec.unit:>12s}]  {spec.description}")
        return 0
    if args.names:
        by_name = {spec.name: spec for spec in specs}
        unknown = [name for name in args.names if name not in by_name]
        if unknown:
            print(
                f"unknown benchmark(s) {unknown}; "
                f"known: {sorted(by_name)}",
                file=sys.stderr,
            )
            return 1
        specs = tuple(by_name[name] for name in args.names)
    repetitions = 1 if args.quick else args.repetitions
    # A cold first call can run far slower than a warm one, so a cold
    # baseline would hide a real slowdown in a later warm run.
    warmup = 1 if args.quick else args.warmup

    results = []
    for spec in specs:
        result = run_bench(spec, repetitions=repetitions, warmup=warmup)
        if args.inject_slowdown is not None:
            result = inject_slowdown(result, args.inject_slowdown)
        path = write_bench_artifact(result, args.out)
        print(
            f"{result.name:10s} {result.value:12.4g} {result.unit:>12s}  "
            f"(IQR {result.iqr:.3g}, n={result.repetitions}) -> {path}"
        )
        results.append(result)

    if args.update_baseline:
        doc = baseline_from_results(results)
        os.makedirs(
            os.path.dirname(args.baseline) or ".", exist_ok=True
        )
        with open(args.baseline, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"baseline updated: {args.baseline}")
        return 0
    if not os.path.exists(args.baseline):
        print(
            f"no baseline at {args.baseline}; comparison skipped "
            f"(run with --update-baseline to create one)"
        )
        return 0
    rows = compare_to_baseline(
        results,
        load_baseline(args.baseline),
        max_regression_pct=args.max_regression,
    )
    print(render_comparison(rows))
    if any(row.regressed for row in rows):
        print("benchmark regression detected", file=sys.stderr)
        return 2
    return 0


def render_comparison(rows: Sequence[BenchComparison]) -> str:
    """The comparator's terminal table."""
    body = []
    for row in rows:
        if row.baseline is None:
            standing, drift = "no baseline", "-"
        else:
            standing = "REGRESSED" if row.regressed else "ok"
            drift = f"{row.delta_pct:+.1f}%"
        body.append(
            [
                row.name,
                f"{row.value:.4g} {row.unit}",
                "-" if row.baseline is None else f"{row.baseline:.4g}",
                drift,
                standing,
            ]
        )
    return format_table(
        ["benchmark", "measured", "baseline", "adverse drift", "standing"],
        body,
    )


def _bench_sweep() -> float:
    """Sweep-engine throughput in configs/sec (cold cache each rep)."""
    clear_makespan_cache()
    grid = SweepGrid.from_ranges(
        r_min=11, r_max=60, step=1, scenarios=(10,), months=(24,)
    )
    started = time.perf_counter()
    result = run_sweep(grid)
    elapsed = time.perf_counter() - started
    return len(result.rows) / elapsed


def _bench_kernel() -> float:
    """Warm memoized-makespan lookup latency in microseconds."""
    clear_makespan_cache()
    cluster = benchmark_cluster("sagittaire", 53)
    spec = EnsembleSpec(10, 120)
    grouping = plan_grouping(cluster, spec, "knapsack")
    cached_simulated_makespan(grouping, spec, cluster.timing)  # warm
    lookups = 20000
    started = time.perf_counter()
    for _ in range(lookups):
        cached_simulated_makespan(grouping, spec, cluster.timing)
    return (time.perf_counter() - started) / lookups * 1e6


#: Identical runs timed together in one sample of a millisecond-scale
#: bench: a single run is short enough for scheduler noise to move it
#: by more than the regression budget, a batch's mean is not.
_BATCH_RUNS = 10


def _mean_seconds(run: Callable[[], object]) -> float:
    """Wall seconds per call of ``run``, averaged over :data:`_BATCH_RUNS`."""
    started = time.perf_counter()
    for _ in range(_BATCH_RUNS):
        run()
    return (time.perf_counter() - started) / _BATCH_RUNS


def _bench_simulate() -> float:
    """One fast-path cluster simulation (seconds, mean of a batch)."""
    cluster = benchmark_cluster("sagittaire", 53)
    spec = EnsembleSpec(10, 240)
    grouping = plan_grouping(cluster, spec, "knapsack")
    return _mean_seconds(
        lambda: simulate(grouping, spec, cluster.timing)
    )


def _bench_campaign() -> float:
    """One full middleware campaign on a 3x40 grid, cold caches (seconds, mean of a batch)."""
    grid = benchmark_grid(3, 40)

    def cold_campaign() -> None:
        clear_makespan_cache()
        run_campaign(grid, 10, 12, "knapsack")

    return _mean_seconds(cold_campaign)


def _bench_service() -> float:
    """Live-service throughput on no-op jobs (jobs/sec, pool included)."""
    jobs = 6
    with tempfile.TemporaryDirectory() as tmp:
        handle = serve_in_thread(os.path.join(tmp, "bench.db"), workers=2)
        try:
            with ServiceClient(port=handle.port) as client:
                started = time.perf_counter()
                ids = [
                    client.submit("sleep", {"seconds": 0})
                    for _ in range(jobs)
                ]
                for run_id in ids:
                    client.wait(run_id, timeout=60.0)
                elapsed = time.perf_counter() - started
        finally:
            handle.stop()
    return jobs / elapsed


def _bench_arena() -> float:
    """Mean scheduler decision latency in ms/decision, cold kernels.

    Every registered scheduler decides the reference point (sagittaire,
    R=53, NS=10, NM=12) plus a tight point (R=23) — the arena's
    per-point hot path.  Includes the expensive competitors (local
    search simulates dozens of candidates), so this is the arena's
    decision-latency budget.
    """
    clear_makespan_cache()
    spec = EnsembleSpec(10, 12)
    clusters = [
        benchmark_cluster("sagittaire", 53),
        benchmark_cluster("sagittaire", 23),
    ]
    decisions = 0
    started = time.perf_counter()
    for cluster in clusters:
        for scheduler in iter_schedulers(seed=0):
            scheduler.decide(cluster, spec)
            decisions += 1
    elapsed = time.perf_counter() - started
    return elapsed / decisions * 1e3


def kernels_workload() -> list[tuple[str, list[tuple[int, int, int, str]]]]:
    """The fig7 + fig8 planning workload, one ``(cluster, points)`` per cluster.

    Figure 7's dense single-cluster ``R`` axis (sagittaire, R 11..120)
    plus Figure 8's five-cluster coarse axis (R 11..43 step 4), every
    heuristic, NS=10 / NM=12, as ``(R, NS, NM, heuristic)`` points for
    :func:`repro.core.batch.batch_plan_groupings`.  The ``kernels``
    bench and ``benchmarks/bench_kernels.py`` both plan it.
    """
    axes = [("sagittaire", range(11, 121))]
    axes += [(name, range(11, 44, 4)) for name in sorted(REFERENCE_CLUSTER_SPEEDS)]
    return [
        (name, [(r, 10, 12, heuristic) for r in resources for heuristic in HeuristicName])
        for name, resources in axes
    ]


def _bench_kernels() -> float:
    """Batched planning-kernel throughput in configs/sec, cold cache.

    Plans :func:`kernels_workload` through
    :func:`repro.core.batch.batch_plan_groupings`, one call per cluster
    — the vectorized Eq 1–5 + knapsack-DP path every sweep plans through
    by default.  One config is one planned ``(cluster, R, heuristic)`` cell.
    ``benchmarks/bench_kernels.py`` additionally asserts the >=5x ratio
    over the memoized scalar path on the same grids.
    """
    clear_makespan_cache()
    plans = 0
    started = time.perf_counter()
    for name, points in kernels_workload():
        plans += len(batch_plan_groupings(benchmark_timing(name), points))
    elapsed = time.perf_counter() - started
    return plans / elapsed


def _bench_lint() -> float:
    """One whole-program lint of ``src/repro`` in seconds (all rules).

    The interprocedural pass dominates: symbol table, call graph with
    ABC dispatch fan-out, nondeterminism-taint fixed point, and
    layer/cycle analysis over every module, under the repo's own
    ``[tool.reprolint]`` configuration.  The committed
    ``BENCH_lint.json`` budgets analyzer latency as the tree grows —
    the gate in CI only stays cheap if this number does.
    """

    package_root = Path(__file__).resolve().parents[1]
    config = load_config(find_pyproject(package_root))
    checker = Checker(config)
    started = time.perf_counter()
    checker.run([package_root])
    return time.perf_counter() - started


def bench_specs() -> tuple[BenchSpec, ...]:
    """The quick-tier registry (what ``repro-oa bench --quick`` runs)."""
    return (
        BenchSpec(
            "sweep",
            "sweep-engine throughput over a fig7-style grid, cold cache",
            "configs/sec",
            "higher",
            _bench_sweep,
        ),
        BenchSpec(
            "kernel",
            "warm memoized-makespan kernel lookup",
            "us/lookup",
            "lower",
            _bench_kernel,
        ),
        BenchSpec(
            "kernels",
            "batched planning-kernel throughput on fig7/fig8-shaped grids",
            "configs/sec",
            "higher",
            _bench_kernels,
        ),
        BenchSpec(
            "simulate",
            "single-cluster fast-path simulation (R=53, NS=10, NM=240)",
            "seconds",
            "lower",
            _bench_simulate,
        ),
        BenchSpec(
            "campaign",
            "full middleware campaign (3 clusters x 40 resources)",
            "seconds",
            "lower",
            _bench_campaign,
        ),
        BenchSpec(
            "service",
            "live campaign service round trips on no-op jobs",
            "jobs/sec",
            "higher",
            _bench_service,
            repetitions=3,
        ),
        BenchSpec(
            "arena",
            "mean scheduler decision latency across all registered schedulers",
            "ms/decision",
            "lower",
            _bench_arena,
        ),
        BenchSpec(
            "lint",
            "whole-program reprolint pass over src/repro (all rules)",
            "seconds",
            "lower",
            _bench_lint,
            repetitions=3,
        ),
    )
