"""Benchmark of the vectorized batch planning kernels vs the scalar oracle.

Times the two ways of planning a figure-style grid of ``(cluster, R,
heuristic)`` cells at fixed ``(NS, NM)``:

* **scalar oracle** — :func:`repro.core.heuristics.plan_grouping` in a
  loop, with the makespan memo enabled (the best the pre-batch path
  offers);
* **batch kernels** — :func:`repro.core.batch.batch_plan_groupings`,
  the numpy Eq 1-5 + capacity-axis knapsack-DP path the sweep engine
  plans through by default, observed or not.

The >=5x speedup assertion is the tentpole's acceptance floor; both
legs run cold (cache cleared before each timed pass) and the parity of
their outputs is asserted inline, so the number can never be bought by
planning something different.

Run with::

    pytest benchmarks/bench_kernels.py -s
"""

from __future__ import annotations

import itertools
import json
import time

from repro.core.batch import batch_plan_groupings
from repro.core.heuristics import plan_grouping
from repro.core.makespan import clear_makespan_cache
from repro.exceptions import SchedulingError
from repro.cli.bench import kernels_workload
from repro.platform.benchmarks import benchmark_cluster, benchmark_timing
from repro.workflow.ocean_atmosphere import EnsembleSpec

SPEEDUP_FLOOR = 5.0
REPEATS = 3

#: The fig7 + fig8 planning workload the ``kernels`` bench also plans.
WORKLOADS = kernels_workload()


def _scalar_pass() -> int:
    plans = 0
    for name, points in WORKLOADS:
        for r, cell in itertools.groupby(points, key=lambda point: point[0]):
            cluster = benchmark_cluster(name, r)
            for _, scenarios, months, heuristic in cell:
                try:
                    plan_grouping(cluster, EnsembleSpec(scenarios, months), heuristic)
                except SchedulingError:
                    continue
                plans += 1
    return plans


def _batch_pass() -> int:
    plans = 0
    for name, points in WORKLOADS:
        groupings = batch_plan_groupings(benchmark_timing(name), points)
        plans += sum(1 for g in groupings if g is not None)
    return plans


def _best_of(runs: int, leg) -> tuple[float, int]:
    """Cold-cache best-of-N timing: (seconds, plans produced)."""
    best = float("inf")
    plans = 0
    for _ in range(runs):
        clear_makespan_cache()
        started = time.perf_counter()
        plans = leg()
        best = min(best, time.perf_counter() - started)
    return best, plans


def test_batch_kernels_speedup() -> None:
    """The tentpole floor: batch planning >= 5x the memoized scalar path."""
    scalar_s, scalar_plans = _best_of(REPEATS, _scalar_pass)
    batch_s, batch_plans = _best_of(REPEATS, _batch_pass)
    assert scalar_plans == batch_plans, (
        f"legs planned different workloads: scalar {scalar_plans}, "
        f"batch {batch_plans}"
    )
    speedup = scalar_s / batch_s
    print(
        f"\nplanning kernels: {scalar_plans} plans"
        f"\n  scalar oracle (memoized): {scalar_s:8.4f} s "
        f"({scalar_plans / scalar_s:8.0f} plans/s)"
        f"\n  batch kernels:            {batch_s:8.4f} s "
        f"({batch_plans / batch_s:8.0f} plans/s)  {speedup:.2f}x"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"batch kernels fell below the acceptance floor: "
        f"{speedup:.2f}x < {SPEEDUP_FLOOR}x"
    )


def test_kernels_throughput_gate(tmp_path) -> None:
    """Absolute floor through the continuous-benchmark artifact path.

    The speedup test above is relative and survives slow hosts; this
    one pins an absolute configs/sec floor and emits the measurement as
    ``BENCH_kernels.json``, so the number that gates this test is the
    same number CI uploads and compares against
    ``benchmarks/baseline.json``.
    """
    from repro.cli.bench import bench_specs
    from repro.obs.bench import (
        load_bench_artifact,
        run_bench,
        write_bench_artifact,
    )

    floor = 2000.0  # configs/sec; ~25x below a warm dev host
    spec = next(s for s in bench_specs() if s.name == "kernels")
    result = run_bench(spec, repetitions=3, warmup=1)
    path = write_bench_artifact(result, tmp_path)
    doc = load_bench_artifact(path)  # round-trips the schema
    print(
        f"\nkernels throughput: {result.value:.0f} {result.unit} "
        f"(IQR {result.iqr:.1f}) -> {path.name}"
    )
    assert doc["name"] == "kernels" and doc["direction"] == "higher"
    assert result.value >= floor, (
        f"batch kernels fell below the absolute floor: "
        f"{result.value:.0f} < {floor} {result.unit}"
    )


def test_regression_gate_exit_code(tmp_path, capsys) -> None:
    """``--inject-slowdown`` must trip the comparator: exit code 2.

    Runs the real CLI against a baseline pinned to a healthy kernels
    measurement, then injects a 10x slowdown and asserts the bench verb
    returns 2 — the code the CI job fails on.
    """
    from repro.cli import main
    from repro.cli.bench import bench_specs
    from repro.obs.bench import BASELINE_SCHEMA, run_bench

    spec = next(s for s in bench_specs() if s.name == "kernels")
    healthy = run_bench(spec, repetitions=1, warmup=0)
    baseline = tmp_path / "baseline.json"
    baseline.write_text(
        json.dumps(
            {
                "schema": BASELINE_SCHEMA,
                "max_regression_pct": 50.0,
                "benchmarks": {
                    "kernels": {
                        "value": healthy.value,
                        "unit": healthy.unit,
                        "direction": healthy.direction,
                    }
                },
            }
        ),
        encoding="utf-8",
    )
    code = main(
        [
            "bench",
            "kernels",
            "--quick",
            "--inject-slowdown",
            "10",
            "--out",
            str(tmp_path / "artifacts"),
            "--baseline",
            str(baseline),
            "--max-regression",
            "50",
        ]
    )
    out = capsys.readouterr().out
    assert code == 2, f"expected regression exit code 2, got {code}\n{out}"
    assert "REGRESSION" in out or "regress" in out.lower()
