"""Differential check: campaigns planned on the dp stack vs the scalar DP.

Every knapsack plan of a campaign traces back from the memoized dp
stack: the performance vectors' batch planner builds it, and the SeDs'
executions and the fault replanner's chain plans read it through
:func:`~repro.core.knapsack_grouping.knapsack_grouping`.  Under
:func:`~tests.knapsack.dp_oracle.scalar_knapsack_solver` those reads
run the scalar DP loop instead, which shares no code with the stack,
while the vectors keep the stack.  A grouping that differs on either
side executes a different schedule, so ``run_campaign`` and
``run_campaign_with_faults`` must return equal reports both ways.

A repeated campaign reads every performance vector from one ``vector``
cache entry, so the SeDs' replies and the replanner's vectors share it,
and every knapsack plan from one ``plan`` entry, so the SeDs'
executions and the replanner's chain plans share those.  A second run
of each benchmark shape, served from those memos, must equal the same
call with every kernel cache bypassed, and so must every plan served
from the memo.

Shapes: the benchmark's eight ``(clusters, R, NS, NM)`` campaign strata
and its replanned campaign, plus hypothesis-drawn grids.  The plan
check covers every ``R`` jitter of the benchmark's seeded campaign list
(up to 2 processors either way), so it holds for any seed.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.knapsack_grouping import knapsack_grouping
from repro.core.makespan import (
    clear_makespan_cache,
    makespan_cache_disabled,
    makespan_cache_stats,
)
from repro.faults.trace import FaultEvent, FaultKind, FaultTrace
from repro.knapsack.dp import solve_dp
from repro.middleware.deployment import run_campaign
from repro.middleware.recovery import run_campaign_with_faults
from repro.platform.benchmarks import benchmark_cluster, benchmark_grid
from repro.workflow.ocean_atmosphere import EnsembleSpec
from tests.knapsack.dp_oracle import scalar_knapsack_solver
from tests.knapsack.dp_oracle import solve_dp as scalar_solve_dp

#: ``(clusters, R, NS, NM)`` of the benchmark's fault-free campaigns.
CAMPAIGN_SHAPES = (
    (3, 40, 20, 24),
    (4, 60, 16, 24),
    (5, 80, 16, 36),
    (6, 100, 18, 12),
    (7, 118, 12, 24),
    (8, 50, 16, 24),
    (9, 70, 12, 36),
    (10, 90, 14, 12),
)
#: ``(clusters, R, NS, NM)`` of the benchmark's replanned campaign.
REPLAN_SHAPE = (3, 40, 8, 12)
#: How far the benchmark's seeds move each shape's ``R``, either way.
R_JITTER = 2


def _faults(grid, makespan: float, crash: bool) -> FaultTrace:
    """Two outages and a slowdown over the campaign, plus an optional crash.

    The events go to the grid's first three clusters, cycling over a
    smaller grid.
    """
    first, second, third = (grid.names[i % len(grid)] for i in range(3))
    events = [
        FaultEvent(FaultKind.OUTAGE, first, 0.2 * makespan, duration=0.1 * makespan),
        FaultEvent(FaultKind.SLOWDOWN, second, 0.3 * makespan,
                   duration=0.2 * makespan, factor=1.5),
        FaultEvent(FaultKind.OUTAGE, third, 0.5 * makespan, duration=0.05 * makespan),
    ]
    if crash:
        events.append(FaultEvent(FaultKind.CRASH, second, 0.6 * makespan))
    return FaultTrace.of(events)


def _campaign_both_ways(grid, scenarios: int, months: int) -> None:
    # Cold caches: the stacks are built at this campaign's own ceilings,
    # where a wrong top layer would show.
    clear_makespan_cache()
    stacked = run_campaign(grid, scenarios, months)
    with scalar_knapsack_solver():
        scalar = run_campaign(grid, scenarios, months)
    assert scalar == stacked


def _faulted_both_ways(grid, scenarios: int, months: int, trace: FaultTrace):
    stacked = run_campaign_with_faults(grid, scenarios, months, trace)
    with scalar_knapsack_solver():
        scalar = run_campaign_with_faults(grid, scenarios, months, trace)
    assert scalar == stacked
    return stacked


def test_the_oracle_replaces_the_stack_read() -> None:
    cluster, spec = benchmark_cluster("grelon", 40), EnsembleSpec(8, 12)
    defaults = knapsack_grouping.__kwdefaults__
    clear_makespan_cache()
    with scalar_knapsack_solver():
        assert defaults["solver"] is scalar_solve_dp
        planned = knapsack_grouping(cluster, spec)
    assert makespan_cache_stats()["dp"] == {"hits": 0, "misses": 0, "size": 0}
    assert defaults["solver"] is solve_dp
    assert knapsack_grouping(cluster, spec) == planned
    assert makespan_cache_stats()["dp"]["misses"] == 1


def test_benchmark_campaigns_match_the_scalar_oracle() -> None:
    for clusters, resources, scenarios, months in CAMPAIGN_SHAPES:
        _campaign_both_ways(benchmark_grid(clusters, resources), scenarios, months)


def test_benchmark_replan_matches_the_scalar_oracle() -> None:
    clusters, resources, scenarios, months = REPLAN_SHAPE
    grid = benchmark_grid(clusters, resources)
    _campaign_both_ways(grid, scenarios, months)
    makespan = run_campaign(grid, scenarios, months).makespan
    for crash in (False, True):
        report = _faulted_both_ways(
            grid, scenarios, months, _faults(grid, makespan, crash)
        )
        assert report.replans > 0


def test_memo_served_campaigns_match_uncached_ones() -> None:
    for clusters, resources, scenarios, months in (*CAMPAIGN_SHAPES, REPLAN_SHAPE):
        grid = benchmark_grid(clusters, resources)
        clear_makespan_cache()
        makespan = run_campaign(grid, scenarios, months).makespan
        trace = _faults(grid, makespan, crash=False)
        run_campaign_with_faults(grid, scenarios, months, trace)
        hits = makespan_cache_stats()["vector"]["hits"]
        plan_hits = makespan_cache_stats()["plan"]["hits"]
        warm = run_campaign(grid, scenarios, months)
        assert makespan_cache_stats()["plan"]["hits"] > plan_hits
        plan_hits = makespan_cache_stats()["plan"]["hits"]
        warm_faulted = run_campaign_with_faults(grid, scenarios, months, trace)
        assert makespan_cache_stats()["plan"]["hits"] > plan_hits
        assert makespan_cache_stats()["vector"]["hits"] > hits
        with makespan_cache_disabled():
            assert run_campaign(grid, scenarios, months) == warm
            assert run_campaign_with_faults(grid, scenarios, months, trace) == warm_faulted


def test_memo_served_plans_match_uncached_ones() -> None:
    for clusters, resources, scenarios, months in (*CAMPAIGN_SHAPES, REPLAN_SHAPE):
        for jitter in range(-R_JITTER, R_JITTER + 1):
            grid = benchmark_grid(clusters, resources + jitter)
            specs = [EnsembleSpec(k, months) for k in range(1, scenarios + 1)]
            clear_makespan_cache()
            for cluster in grid:
                for spec in specs:
                    knapsack_grouping(cluster, spec)
            hits = makespan_cache_stats()["plan"]["hits"]
            for cluster in grid:
                for spec in specs:
                    served = knapsack_grouping(cluster, spec)
                    with makespan_cache_disabled():
                        assert knapsack_grouping(cluster, spec) == served
            assert makespan_cache_stats()["plan"]["hits"] == hits + len(grid) * scenarios


@given(
    clusters=st.integers(1, 6),
    resources=st.integers(11, 90),
    scenarios=st.integers(1, 16),
    months=st.integers(1, 24),
    crash=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_drawn_campaigns_match_the_scalar_oracle(
    clusters: int, resources: int, scenarios: int, months: int, crash: bool
) -> None:
    grid = benchmark_grid(clusters, resources)
    _campaign_both_ways(grid, scenarios, months)
    makespan = run_campaign(grid, scenarios, months).makespan
    # A crash on a one-cluster grid leaves nowhere to replan.
    trace = _faults(grid, makespan, crash and clusters > 1)
    _faulted_both_ways(grid, scenarios, months, trace)
