"""Benchmark of the batched sweep subsystem vs the pre-sweep path.

Compares three ways of evaluating a figure-style parameter grid:

* **baseline** — what every figure driver did before the sweep engine
  existed: serial loop, no kernel cache, the set-scan reference engine
  (``reference_simulate`` from ``tests/simulation/reference_engine.py``,
  the loop ``simulate`` ran before its fast path).
* **serial sweep** — :func:`repro.experiments.sweep.run_sweep` with no
  workers: memoized kernels plus the bookkeeping-free engine fast path.
* **parallel sweep** — the same with ``workers=8``.

The speedup assertion (>= 3x at ``workers=8``) is the subsystem's
acceptance floor; on a single-core runner it is carried entirely by the
cache and the fast path, and a multi-core runner only widens it.

Run with::

    pytest benchmarks/bench_sweep.py -s
"""

from __future__ import annotations

import time

from repro.core.heuristics import plan_grouping
from repro.core.makespan import clear_makespan_cache, makespan_cache_disabled
from repro.exceptions import SchedulingError
from repro.experiments.sweep import SweepGrid, run_sweep
from repro.platform.benchmarks import REFERENCE_CLUSTER_SPEEDS, benchmark_cluster
from repro.workflow.ocean_atmosphere import EnsembleSpec
from tests.simulation.reference_engine import reference_simulate

WORKERS = 8
SPEEDUP_FLOOR = 3.0

#: NM for the benchmark grids.  Large enough that simulation dominates
#: planning (the regime the sweep engine targets) while keeping the
#: slowest leg in single-digit seconds.
MONTHS = 240


def _baseline_seconds(grid: SweepGrid) -> float:
    """Time the pre-sweep evaluation of ``grid`` (serial, uncached)."""
    points = grid.points()
    with makespan_cache_disabled():
        started = time.perf_counter()
        for point in points:
            cluster = benchmark_cluster(point.cluster, point.resources)
            spec = EnsembleSpec(point.scenarios, point.months)
            try:
                grouping = plan_grouping(cluster, spec, point.heuristic)
            except SchedulingError:
                continue
            reference_simulate(grouping, spec, cluster.timing)
        return time.perf_counter() - started


def _timed_sweep(grid: SweepGrid, **kwargs) -> tuple[float, int]:
    # Start cold: forked workers inherit the parent's cache, so a warm
    # parent (from an earlier leg) would silently hand every worker a
    # pre-filled memo and flatter the parallel numbers.
    clear_makespan_cache()
    started = time.perf_counter()
    result = run_sweep(grid, **kwargs)
    return time.perf_counter() - started, len(result.rows)


def _report(label: str, grid: SweepGrid) -> float:
    """Run all three legs on one grid; return the workers=8 speedup."""
    base = _baseline_seconds(grid)
    serial, rows = _timed_sweep(grid)
    parallel, _ = _timed_sweep(grid, workers=WORKERS)
    print(f"\n{label}: {grid.size} points ({rows} evaluated)")
    print(f"  baseline (serial, uncached, reference engine): {base:6.2f} s")
    print(
        f"  sweep engine, serial:                          {serial:6.2f} s "
        f"({base / serial:.2f}x)"
    )
    print(
        f"  sweep engine, workers={WORKERS}:                     {parallel:6.2f} s "
        f"({base / parallel:.2f}x)"
    )
    return base / parallel


def test_sweep_speedup_fig7_grid() -> None:
    """The acceptance grid: fig7-sized (R=11..120, NS=10, all heuristics)."""
    grid = SweepGrid.from_ranges(
        r_min=11, r_max=120, step=1, scenarios=(10,), months=(MONTHS,)
    )
    speedup = _report("fig7-sized grid", grid)
    assert speedup >= SPEEDUP_FLOOR


def test_sweep_speedup_fig8_grid() -> None:
    """The five-cluster fig8-style grid (coarser R axis, same floor)."""
    grid = SweepGrid.from_ranges(
        clusters=tuple(REFERENCE_CLUSTER_SPEEDS),
        r_min=11,
        r_max=120,
        step=2,
        scenarios=(10,),
        months=(MONTHS,),
    )
    speedup = _report("fig8-style grid", grid)
    assert speedup >= SPEEDUP_FLOOR


def test_sweep_throughput_gate(tmp_path) -> None:
    """Absolute floor: the sweep engine clears N configs/sec, serially.

    The speedup tests above are relative (engine vs pre-engine path)
    and survive slow hosts; this one pins an absolute throughput floor
    and emits the measurement through the continuous-benchmark artifact
    path (``BENCH_sweep.json``), so the number that gates this test is
    the same number CI uploads and compares against
    ``benchmarks/baseline.json``.
    """
    from repro.cli.bench import bench_specs
    from repro.obs.bench import (
        load_bench_artifact,
        run_bench,
        write_bench_artifact,
    )

    floor = 25.0  # configs/sec; quick-tier grid, serial, cold cache
    spec = next(s for s in bench_specs() if s.name == "sweep")
    result = run_bench(spec, repetitions=3, warmup=1)
    path = write_bench_artifact(result, tmp_path)
    doc = load_bench_artifact(path)  # round-trips the schema
    print(
        f"\nsweep throughput: {result.value:.1f} {result.unit} "
        f"(IQR {result.iqr:.2f}) -> {path.name}"
    )
    assert doc["name"] == "sweep" and doc["direction"] == "higher"
    assert result.value >= floor, (
        f"sweep engine fell below the absolute floor: "
        f"{result.value:.1f} < {floor} {result.unit}"
    )


def test_cached_kernel_latency(benchmark) -> None:
    """Microbenchmark: a warm cached kernel lookup is sub-microsecond-ish."""
    from repro.core.makespan import cached_simulated_makespan

    cluster = benchmark_cluster("sagittaire", 53)
    spec = EnsembleSpec(10, MONTHS)
    grouping = plan_grouping(cluster, spec, "knapsack")
    cached_simulated_makespan(grouping, spec, cluster.timing)  # warm
    makespan = benchmark(
        cached_simulated_makespan, grouping, spec, cluster.timing
    )
    assert makespan > 0
