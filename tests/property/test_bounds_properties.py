"""Property: lower bounds hold for every heuristic on random platforms."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heuristics import HeuristicName, plan_grouping
from repro.exceptions import SchedulingError
from repro.platform.cluster import ClusterSpec
from repro.platform.timing import TableTimingModel
from repro.simulation.engine import simulate
from repro.simulation.online import simulate_online
from repro.workflow.ocean_atmosphere import EnsembleSpec
from tests.core.bounds_oracle import lower_bounds


@st.composite
def instances(draw):
    base = draw(st.floats(min_value=300.0, max_value=4000.0))
    decrements = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=400.0), min_size=8, max_size=8
        )
    )
    table = {}
    current = base + sum(decrements)
    for g, dec in zip(range(4, 12), decrements):
        table[g] = current
        current -= dec
    tp = draw(st.floats(min_value=5.0, max_value=300.0))
    timing = TableTimingModel(table, post_seconds=tp)
    resources = draw(st.integers(min_value=4, max_value=130))
    spec = EnsembleSpec(
        draw(st.integers(min_value=1, max_value=8)),
        draw(st.integers(min_value=1, max_value=10)),
    )
    return ClusterSpec("rand", resources, timing), spec


@given(instances())
@settings(max_examples=80, deadline=None)
def test_all_heuristics_respect_lower_bounds(instance) -> None:
    cluster, spec = instance
    bounds = lower_bounds(cluster.resources, spec, cluster.timing)
    for heuristic in HeuristicName:
        try:
            grouping = plan_grouping(cluster, spec, heuristic)
        except SchedulingError:
            continue  # machine too small for any group
        makespan = simulate(grouping, spec, cluster.timing).makespan
        assert makespan >= bounds.combined - 1e-6, heuristic


@given(instances())
@settings(max_examples=60, deadline=None)
def test_online_policies_respect_lower_bounds(instance) -> None:
    cluster, spec = instance
    if cluster.resources < cluster.timing.min_group:
        return
    bounds = lower_bounds(cluster.resources, spec, cluster.timing)
    for policy in ("greedy-max", "knapsack-aware"):
        result = simulate_online(
            spec, cluster.timing, cluster.resources, policy=policy
        )
        assert result.makespan >= bounds.combined - 1e-6, policy


@given(instances(), st.integers(min_value=1, max_value=50))
@settings(max_examples=60, deadline=None)
def test_bounds_monotone_in_resources(instance, extra) -> None:
    """More processors can only lower (or keep) the combined bound."""
    cluster, spec = instance
    small = lower_bounds(cluster.resources, spec, cluster.timing)
    big = lower_bounds(cluster.resources + extra, spec, cluster.timing)
    assert big.combined <= small.combined + 1e-9
    assert big.chain == small.chain  # chain bound is R-independent
