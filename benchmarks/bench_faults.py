"""Benchmark of the fault-injection subsystem's two hot paths.

Two promises are enforced:

* **zero-cost when off** — :func:`repro.faults.hooks.simulate_with_faults`
  with an empty (noop) :class:`FaultHook` must stay within 5% of a
  plain :func:`repro.simulation.engine.simulate` call, because the noop
  hook runs the plain engine and only adds the completed outcome;
* **replanning throughput** — the multi-failure replanner
  (:func:`repro.middleware.recovery.run_campaign_with_faults`) chews
  through a 100-outage trace at a usable rate: every applied event
  replays the victim's schedule and re-runs the greedy reassignment,
  so this is the cost ceiling for resilience sweeps
  (:mod:`repro.experiments.resilience`).

Run with::

    pytest benchmarks/bench_faults.py -s
"""

from __future__ import annotations

import statistics
import time

from repro.faults.hooks import FaultHook, simulate_with_faults
from repro.faults.trace import FaultEvent, FaultKind, FaultTrace
from repro.middleware.recovery import run_campaign_with_faults
from repro.platform.benchmarks import benchmark_cluster, benchmark_grid
from repro.simulation.engine import simulate
from repro.workflow.ocean_atmosphere import EnsembleSpec
from repro.core.heuristics import plan_grouping, HeuristicName

#: Relative overhead allowed for the noop-hook path vs plain ``simulate``.
OVERHEAD_CEILING = 0.05

#: Timed pairs for the overhead leg, and calls per side of each pair.
OVERHEAD_PAIRS = 31
CALLS_PER_SIDE = 40

#: Outage events replayed by the throughput leg.
N_FAILURES = 100

#: Replanning throughput floor (applied events per second).  The bar is
#: deliberately loose — it guards against a quadratic regression, not
#: machine speed.
THROUGHPUT_FLOOR = 1.0


def _elapsed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def test_noop_hook_overhead_under_five_percent() -> None:
    """Median per-pair overhead of the noop hook stays under the ceiling.

    Each of :data:`OVERHEAD_PAIRS` pairs times the two sides back to back
    (:data:`CALLS_PER_SIDE` calls each), alternating which runs first, so
    host load that drifts over the test hits both sides of a pair alike
    and the median discards the pairs a burst split.
    """
    cluster = benchmark_cluster("sagittaire", 53)
    spec = EnsembleSpec(10, 120)
    grouping = plan_grouping(cluster, spec, HeuristicName.KNAPSACK)
    noop = FaultHook()

    def plain() -> None:
        for _ in range(CALLS_PER_SIDE):
            simulate(grouping, spec, cluster.timing)

    def hooked() -> None:
        for _ in range(CALLS_PER_SIDE):
            simulate_with_faults(grouping, spec, cluster.timing, noop)

    plain()  # warm any lazy state before timing
    hooked()
    ratios: list[float] = []
    for pair in range(OVERHEAD_PAIRS):
        if pair % 2:
            hooked_s = _elapsed(hooked)
            plain_s = _elapsed(plain)
        else:
            plain_s = _elapsed(plain)
            hooked_s = _elapsed(hooked)
        ratios.append(hooked_s / plain_s)
    overhead = statistics.median(ratios) - 1.0
    print(
        f"\nnoop-hook overhead: median of {OVERHEAD_PAIRS} pairs "
        f"{overhead * 100:+.2f}% (pairs {min(ratios) - 1:+.1%} "
        f"to {max(ratios) - 1:+.1%})"
    )
    assert overhead < OVERHEAD_CEILING


def test_replanning_throughput_on_100_failures() -> None:
    grid = benchmark_grid(3, 30)
    scenarios, months = 6, 12
    baseline = run_campaign_with_faults(
        grid, scenarios, months, FaultTrace()
    )
    # Outages striped across the grid, evenly spaced through the
    # campaign; short enough that the victim rejoins well before the
    # next event, so every event finds live candidates.
    step = baseline.original_makespan / (N_FAILURES + 1)
    events = [
        FaultEvent(
            FaultKind.OUTAGE,
            grid.names[i % len(grid.names)],
            (i + 1) * step,
            duration=step / 2,
        )
        for i in range(N_FAILURES)
    ]
    trace = FaultTrace.of(events)

    started = time.perf_counter()
    report = run_campaign_with_faults(grid, scenarios, months, trace)
    elapsed = time.perf_counter() - started

    rate = len(trace) / elapsed
    print(
        f"\nreplanning: {len(trace)} events ({report.replans} replans) "
        f"in {elapsed:.2f} s -> {rate:.1f} events/s; "
        f"makespan {baseline.original_makespan / 3600:.2f} h -> "
        f"{report.makespan / 3600:.2f} h"
    )
    assert report.replans > 0
    assert rate >= THROUGHPUT_FLOOR
