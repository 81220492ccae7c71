"""Property: the DAG oracle and the engine agree exactly.

On any fused ensemble — rectangular, or chains of unequal month counts
as the failure replanner builds them — the two simulators implement the
same policy over different data structures; their makespans (total and
main-phase) must coincide to the last float.  Randomizing groupings,
timings, chain lengths and ensemble shapes with hypothesis makes this
the strongest cross-validation in the suite — two independent
implementations checking each other, plus the engine's fast and traced
paths and the set-scan reference engine checking each other on unequal
chains.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grouping import Grouping
from repro.platform.timing import TableTimingModel
from repro.simulation.engine import simulate
from repro.simulation.online import simulate_online
from repro.workflow.dag import DAG
from repro.workflow.ocean_atmosphere import (
    EnsembleSpec,
    fused_ensemble_dag,
    fused_scenario_dag,
)
from tests.simulation.dag_oracle import simulate_dag
from tests.simulation.reference_engine import reference_simulate


def _timing(draw, uniform: bool) -> TableTimingModel:
    """A monotone ``T[4..11]`` table (flat when ``uniform``), ``TP = 180``."""
    base = draw(st.floats(min_value=200.0, max_value=3000.0))
    if uniform:
        return TableTimingModel(
            {g: base for g in range(4, 12)}, post_seconds=180.0
        )
    decrements = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=200.0), min_size=8, max_size=8
        )
    )
    table = {}
    current = base + sum(decrements)
    for g, dec in zip(range(4, 12), decrements):
        table[g] = current
        current -= dec
    return TableTimingModel(table, post_seconds=180.0)


def _grouping(draw, n_groups: int) -> Grouping:
    sizes = draw(
        st.lists(
            st.integers(min_value=4, max_value=11),
            min_size=n_groups,
            max_size=n_groups,
        )
    )
    post_pool = draw(st.integers(min_value=0, max_value=5))
    return Grouping.from_sizes(
        sizes, sum(sizes) + post_pool, post_pool=post_pool
    )


@st.composite
def rectangular_instances(draw):
    """(grouping, spec, timing) with nominal-post-aligned timing.

    The fused DAG's post tasks carry the 180-second nominal duration, so
    for the engines to be comparable the timing model's post time is
    pinned to 180 (the DAG oracle's default ``seq_scale=1`` then matches).
    """
    timing = _timing(draw, uniform=False)
    scenarios = draw(st.integers(min_value=1, max_value=6))
    months = draw(st.integers(min_value=1, max_value=8))
    spec = EnsembleSpec(scenarios, months)
    n_groups = draw(st.integers(min_value=1, max_value=scenarios))
    return _grouping(draw, n_groups), spec, timing


@st.composite
def chain_instances(draw):
    """(grouping, spec, chains, timing) with unequal month counts.

    Half the draws flatten ``T[g]``, so every group takes the same time:
    the shape whose closed-form waves hold only for equal chains.
    """
    timing = _timing(draw, uniform=draw(st.booleans()))
    chains = tuple(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=12), min_size=1, max_size=8
            )
        )
    )
    spec = EnsembleSpec(len(chains), max(chains))
    n_groups = draw(st.integers(min_value=1, max_value=len(chains)))
    return _grouping(draw, n_groups), spec, chains, timing


@given(rectangular_instances())
@settings(max_examples=100, deadline=None)
def test_dag_engine_matches_rectangular_engine(instance) -> None:
    grouping, spec, timing = instance
    rect = simulate(grouping, spec, timing)
    dag = fused_ensemble_dag(spec)
    via_dag = simulate_dag(dag, grouping, timing)
    assert via_dag.main_makespan == rect.main_makespan
    assert via_dag.makespan == rect.makespan


@given(chain_instances())
@settings(max_examples=150, deadline=None)
def test_unequal_chains_match_the_dag_oracle(instance) -> None:
    grouping, spec, chains, timing = instance
    fast = simulate(grouping, spec, timing, chains=chains)
    traced = simulate(grouping, spec, timing, chains=chains, record_trace=True)
    reference = reference_simulate(grouping, spec, timing, chains=chains)
    dag = DAG()
    for scenario, months in enumerate(chains):
        dag.merge(fused_scenario_dag(months, scenario=scenario))
    oracle = simulate_dag(dag, grouping, timing)
    for result in (fast, traced, reference):
        assert result.main_makespan == oracle.main_makespan
        assert result.makespan == oracle.makespan


@given(rectangular_instances())
@settings(max_examples=60, deadline=None)
def test_online_engine_at_least_respects_engine_lower_bound(instance) -> None:
    """The no-groups pool can beat static groups, but never the bounds."""
    from tests.core.bounds_oracle import lower_bounds

    grouping, spec, timing = instance
    resources = grouping.total_resources
    if resources < timing.min_group:
        return
    result = simulate_online(spec, timing, resources)
    bounds = lower_bounds(resources, spec, timing)
    assert result.makespan >= bounds.combined - 1e-6
    assert result.main_makespan <= result.makespan
