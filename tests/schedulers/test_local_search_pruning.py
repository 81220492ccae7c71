"""Bound-pruned local search decides exactly like the unpruned walk.

The scheduler skips the simulation of every proposal whose exact lower
bound — the ``NS·NM``-th smallest ``A_g[k] + TP`` over its groups — is
at or above the best makespan so far.  On drawn clusters, resource
counts and ensemble shapes — benchmark timings, and integer-valued
tables whose equal makespans exercise the strict acceptance rule — its
decision must equal the oracle's, and the bound must sit at or below
the simulated makespan of any grouping, chains and post pools included.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grouping import Grouping
from repro.core.makespan import clear_makespan_cache, makespan_cache_stats
from repro.exceptions import SchedulingError
from repro.platform.benchmarks import benchmark_cluster
from repro.platform.cluster import ClusterSpec
from repro.platform.timing import TableTimingModel
from repro.schedulers import get_scheduler
from repro.schedulers.refine import _CompletionFloor
from repro.simulation.engine import simulate
from repro.workflow.ocean_atmosphere import EnsembleSpec
from tests.schedulers.local_search_oracle import unpruned_local_search
from tests.schedulers.test_reservation_pruning import (
    CLUSTER_NAMES,
    cells,
    tie_prone_clusters,
)
from tests.simulation.reference_engine import reference_simulate


def _bound(timing, sizes: tuple[int, ...], tasks: int) -> float:
    """The pruning bound: the ``tasks``-th smallest floor over the groups."""
    floor = _CompletionFloor(timing, tasks)
    return sorted(f for g in sizes for f in floor.row(g))[tasks - 1]


def _decide(cluster: ClusterSpec, spec: EnsembleSpec, seed: int):
    try:
        return get_scheduler("local-search", seed=seed).plan(cluster, spec)
    except SchedulingError:
        return None


def _oracle(cluster: ClusterSpec, spec: EnsembleSpec, seed: int):
    try:
        return unpruned_local_search(cluster, spec, seed)
    except SchedulingError:
        return None, []


@settings(max_examples=120, deadline=None)
@given(cells(), st.integers(min_value=0, max_value=3))
def test_pruned_decision_equals_unpruned(cell, seed) -> None:
    cluster, spec = cell
    expected, scored = _oracle(cluster, spec, seed)
    assert _decide(cluster, spec, seed) == expected
    tasks = spec.scenarios * spec.months
    for sizes, makespan in scored:
        assert _bound(cluster.timing, sizes, tasks) <= makespan


@st.composite
def simulations(draw):
    """A mixed grouping, a post pool (possibly empty) and unequal chains."""
    if draw(st.booleans()):
        timing = benchmark_cluster(draw(st.sampled_from(CLUSTER_NAMES)), 1).timing
    else:
        timing = draw(tie_prone_clusters(1)).timing
    scenarios = draw(st.integers(min_value=1, max_value=12))
    sizes = draw(st.lists(
        st.integers(min_value=timing.min_group, max_value=timing.max_group),
        min_size=1, max_size=scenarios,
    ))
    post = draw(st.sampled_from((0, 0, 1, 2, 7)))
    grouping = Grouping.from_sizes(sizes, sum(sizes) + post, post_pool=post)
    months = draw(st.integers(min_value=1, max_value=18))
    chains = draw(st.one_of(
        st.none(),
        st.lists(
            st.integers(min_value=1, max_value=months),
            min_size=scenarios, max_size=scenarios,
        ).map(tuple),
    ))
    return grouping, EnsembleSpec(scenarios, months), timing, chains


@settings(max_examples=300, deadline=None)
@given(simulations())
def test_bound_never_exceeds_the_simulated_makespan(case) -> None:
    grouping, spec, timing, chains = case
    tasks = sum(chains) if chains else spec.scenarios * spec.months
    bound = _bound(timing, grouping.group_sizes, tasks)
    for engine in (simulate, reference_simulate):
        makespan = engine(grouping, spec, timing, chains=chains).makespan
        assert bound <= makespan


def test_a_bound_equal_to_the_best_is_pruned() -> None:
    # One group, one task: the makespan is exactly T + TP, the bound.
    # A proposal bounded at the best makespan cannot be strictly better,
    # so it must not be simulated.
    timing = TableTimingModel({4: 90.0, 5: 60.0}, post_seconds=10.0)
    spec = EnsembleSpec(1, 1)
    grouping = Grouping((5,), 0, 5)
    makespan = simulate(grouping, spec, timing).makespan
    assert makespan == _bound(timing, (5,), 1) == 70.0
    floor = _CompletionFloor(timing, 1)
    assert not floor.can_win((5,), makespan)
    assert floor.can_win((5,), makespan + 1.0)


def test_inadmissible_sizes_are_left_to_validation() -> None:
    floor = _CompletionFloor(TableTimingModel({4: 90.0}, post_seconds=10.0), 3)
    assert floor.row(9) is None
    assert floor.can_win((4, 9), 0.0)


def test_pruning_skips_simulations_on_a_fig8_cell() -> None:
    cluster = benchmark_cluster("grelon", 27)
    spec = EnsembleSpec(10, 12)
    clear_makespan_cache()
    expected, _ = unpruned_local_search(cluster, spec)
    unpruned = makespan_cache_stats()["simulated"]["misses"]
    clear_makespan_cache()
    assert get_scheduler("local-search").plan(cluster, spec) == expected
    pruned = makespan_cache_stats()["simulated"]["misses"]
    assert pruned < unpruned
