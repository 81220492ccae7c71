"""The traced path against the set-scan reference engine, record for record.

``simulate(..., record_trace=True)`` builds its records from the
logging loop (``_place_mains``) and the heap post phase;
``reference_simulate`` builds them from a set scan of the waiting
scenarios.  On any grouping — unequal chains, no post pool, uniform
tables, a single group, more groups than scenarios — the two must list
the same records in the same order, group indices and processor ids
included, and the same makespans.  Under observation, a traced run
publishes the registry of an untraced one.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.grouping import Grouping
from repro.platform.timing import TableTimingModel
from repro.simulation.engine import simulate
from repro.workflow.ocean_atmosphere import EnsembleSpec
from tests.simulation.reference_engine import reference_simulate

GROUP_SIZES = range(4, 12)


@st.composite
def traced_instances(draw):
    """``(grouping, spec, timing, kwargs)`` for ``simulate`` and the oracle."""
    if draw(st.booleans()):
        table = {g: draw(st.floats(100.0, 3000.0)) for g in GROUP_SIZES}
    else:
        uniform = draw(st.sampled_from([1000.0, 1234.567, 0.1]))
        table = {g: uniform for g in GROUP_SIZES}
    timing = TableTimingModel(table, post_seconds=draw(st.floats(0.05, 500.0)))
    scenarios = draw(st.integers(1, 8))
    months = draw(st.integers(1, 8))
    kwargs: dict = {}
    max_groups = scenarios
    if draw(st.booleans()):
        kwargs["enforce_cardinality"] = False
        max_groups = scenarios + 3
    n_groups = draw(st.integers(1, max_groups))
    sizes = draw(st.lists(
        st.sampled_from(GROUP_SIZES), min_size=n_groups, max_size=n_groups
    ))
    post_pool = draw(st.integers(0, 5))
    grouping = Grouping.from_sizes(sizes, sum(sizes) + post_pool, post_pool=post_pool)
    if draw(st.booleans()):
        kwargs["chains"] = tuple(draw(st.lists(
            st.integers(1, months), min_size=scenarios, max_size=scenarios
        )))
    return grouping, EnsembleSpec(scenarios, months), timing, kwargs


@given(traced_instances())
@settings(max_examples=300, deadline=None)
def test_traced_records_equal_the_oracle(instance) -> None:
    grouping, spec, timing, kwargs = instance
    traced = simulate(grouping, spec, timing, record_trace=True, **kwargs)
    oracle = reference_simulate(grouping, spec, timing, record_trace=True, **kwargs)
    assert traced.records == oracle.records
    assert traced.makespan == oracle.makespan
    assert traced.main_makespan == oracle.main_makespan
    assert len(traced.records) == 2 * sum(kwargs.get(
        "chains", [spec.months] * spec.scenarios
    ))


@given(traced_instances())
@settings(max_examples=100, deadline=None)
def test_traced_run_publishes_the_untraced_registry(instance) -> None:
    grouping, spec, timing, kwargs = instance
    with obs.session() as (registry, _tracer):
        simulate(grouping, spec, timing, **kwargs)
        untraced = registry.as_dict()
    with obs.session() as (registry, _tracer):
        simulate(grouping, spec, timing, record_trace=True, **kwargs)
        traced = registry.as_dict()
    assert traced == untraced
    assert traced["counters"]["engine.events_dispatched"]


def test_named_shapes_equal_the_oracle() -> None:
    """Each shape the module docstring names, pinned once."""
    flat = TableTimingModel({g: 500.0 for g in GROUP_SIZES}, post_seconds=60.0)
    cases = [
        (Grouping.from_sizes([4, 9], 13, post_pool=0), EnsembleSpec(3, 4), {}),
        (Grouping.from_sizes([5], 6, post_pool=1), EnsembleSpec(4, 3), {}),
        (Grouping.from_sizes([4, 5, 6], 16, post_pool=1), EnsembleSpec(3, 5),
         {"chains": (5, 1, 3)}),
        (Grouping.from_sizes([4, 5, 6, 7], 22, post_pool=0), EnsembleSpec(2, 3),
         {"enforce_cardinality": False}),
    ]
    for grouping, spec, kwargs in cases:
        traced = simulate(grouping, spec, flat, record_trace=True, **kwargs)
        oracle = reference_simulate(grouping, spec, flat, record_trace=True, **kwargs)
        assert traced == oracle
