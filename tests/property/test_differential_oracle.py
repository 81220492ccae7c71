"""Differential oracle: Equations 1–5, the simulator, and the caches.

Three independent implementations of the same quantity cross-check each
other here:

* the analytic formulas of :mod:`repro.core.makespan` (Eqs 1–5),
* the set-scan reference engine of ``tests/simulation/reference_engine.py``,
* the engine's makespan-only loops, its traced path and the memoized
  kernels.

The analytic formulas are *estimates* of the simulated schedule, so the
oracle asserts the exact structural relations rather than blanket
equality: the main phase agrees to the last bit for every ``G`` in the
paper's [4, 11] range, the eq2 case (``R2 = 0``, ``nbused = 0``) agrees
on the *total* makespan, and in every one of the four cases the
simulator never exceeds the analytic value (the formulas over-provision
trailing posts; the simulator places them optimally).  The memoized
kernels and the engine's paths, by contrast, are exact reimplementations —
those must match bit-for-bit, with the cache both enabled and disabled.

Analytic-vs-simulator tests draw *dyadic* task times (quarters of a
second) so repeated float addition inside the simulator is exact and
``waves × TG`` style products compare without tolerance.  The fast-path
tests draw unrestricted floats — identical scheduling decisions imply
identical float operations, so equality must survive arbitrary rounding.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.grouping import Grouping
from repro.core.makespan import (
    analytic_breakdown,
    cached_analytic_breakdown,
    cached_analytic_makespan,
    cached_simulated_makespan,
    clear_makespan_cache,
    makespan_cache_stats,
    set_makespan_cache_enabled,
)
from repro.exceptions import SchedulingError
from repro.platform.timing import TableTimingModel
from repro.simulation.engine import simulate
from repro.workflow.ocean_atmosphere import EnsembleSpec
from tests.simulation.reference_engine import reference_simulate

GROUP_SIZES = range(4, 12)


def _dyadic_table(draw) -> TableTimingModel:
    """A timing model whose times are exact binary fractions (quarters)."""
    decrements = [draw(st.integers(0, 800)) / 4.0 for _ in GROUP_SIZES]
    base = draw(st.integers(800, 12_000)) / 4.0
    table: dict[int, float] = {}
    current = base + sum(decrements)
    for g, dec in zip(GROUP_SIZES, decrements):
        table[g] = current
        current -= dec
    tp = draw(st.integers(160, 2_000)) / 4.0
    return TableTimingModel(table, post_seconds=tp)


@st.composite
def oracle_instances(draw):
    """(resources, scenarios, months, timing) with dyadic times."""
    timing = _dyadic_table(draw)
    resources = draw(st.integers(4, 140))
    scenarios = draw(st.integers(1, 12))
    months = draw(st.integers(1, 24))
    return resources, scenarios, months, timing


@st.composite
def engine_instances(draw):
    """(grouping, spec, timing) with unrestricted floats and shapes."""
    base = draw(st.floats(min_value=200.0, max_value=3000.0))
    decrements = draw(
        st.lists(st.floats(min_value=0.0, max_value=200.0), min_size=8, max_size=8)
    )
    table: dict[int, float] = {}
    current = base + sum(decrements)
    for g, dec in zip(GROUP_SIZES, decrements):
        table[g] = current
        current -= dec
    timing = TableTimingModel(
        table, post_seconds=draw(st.floats(min_value=20.0, max_value=400.0))
    )
    scenarios = draw(st.integers(min_value=1, max_value=8))
    months = draw(st.integers(min_value=1, max_value=10))
    n_groups = draw(st.integers(min_value=1, max_value=scenarios))
    sizes = draw(
        st.lists(
            st.integers(min_value=4, max_value=11),
            min_size=n_groups,
            max_size=n_groups,
        )
    )
    post_pool = draw(st.integers(min_value=0, max_value=6))
    grouping = Grouping.from_sizes(
        sizes, sum(sizes) + post_pool, post_pool=post_pool
    )
    return grouping, EnsembleSpec(scenarios, months), timing


def _basic_grouping(g: int, resources: int, scenarios: int) -> Grouping:
    """The basic schedule's partition for one candidate ``G``."""
    nbmax = min(scenarios, resources // g)
    return Grouping.uniform(g, nbmax, resources)


@given(oracle_instances())
@settings(max_examples=80, deadline=None)
def test_analytic_vs_simulator_for_every_group_size(instance) -> None:
    """Eqs 1–5 vs the event replay, for every ``G`` in the paper's range.

    Main phase: exact.  Total: an upper bound, tight in eq2.  Group
    sizes that do not fit must raise on both sides.
    """
    resources, scenarios, months, timing = instance
    spec = EnsembleSpec(scenarios, months)
    tp = timing.post_time()
    for g in GROUP_SIZES:
        tg = timing.main_time(g)
        if resources // g < 1:
            with pytest.raises(SchedulingError):
                analytic_breakdown(resources, g, scenarios, months, tg, tp)
            continue
        breakdown = analytic_breakdown(resources, g, scenarios, months, tg, tp)
        sim = simulate(_basic_grouping(g, resources, scenarios), spec, timing)
        assert sim.main_makespan == breakdown.main_makespan
        assert sim.makespan <= breakdown.makespan
        if breakdown.case == "eq2":
            assert sim.makespan == breakdown.makespan


@given(
    g=st.integers(min_value=4, max_value=11),
    groups=st.integers(min_value=1, max_value=6),
    months=st.integers(min_value=1, max_value=10),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_eq2_total_makespan_is_exact(g, groups, months, data) -> None:
    """Constructed eq2 instances (R2=0, nbused=0): total equality, exactly."""
    timing = _dyadic_table(data.draw)
    resources = groups * g  # R2 = 0
    scenarios = groups  # nbmax = groups, so nbtasks % nbmax = 0
    breakdown = analytic_breakdown(
        resources, g, scenarios, months, timing.main_time(g), timing.post_time()
    )
    assert breakdown.case == "eq2"
    sim = simulate(
        _basic_grouping(g, resources, scenarios),
        EnsembleSpec(scenarios, months),
        timing,
    )
    assert sim.makespan == breakdown.makespan
    assert sim.main_makespan == breakdown.main_makespan


def test_all_four_cases_covered_and_bounded() -> None:
    """A deterministic grid hits eq2/eq3/eq4/eq5; the bound holds in each."""
    table = {g: 1600.0 - 100.0 * (g - 4) for g in GROUP_SIZES}
    timing = TableTimingModel(table, post_seconds=180.0)
    seen: set[str] = set()
    for resources in range(8, 97, 4):
        for scenarios in (3, 5, 10):
            for months in (4, 6, 12):
                spec = EnsembleSpec(scenarios, months)
                for g in GROUP_SIZES:
                    if resources // g < 1:
                        continue
                    breakdown = analytic_breakdown(
                        resources, g, scenarios, months,
                        timing.main_time(g), timing.post_time(),
                    )
                    sim = simulate(
                        _basic_grouping(g, resources, scenarios), spec, timing
                    )
                    seen.add(breakdown.case)
                    assert sim.main_makespan == breakdown.main_makespan
                    assert sim.makespan <= breakdown.makespan
    assert seen == {"eq2", "eq3", "eq4", "eq5"}


@pytest.mark.parametrize("cache_enabled", [True, False])
@given(instance=oracle_instances())
@settings(max_examples=40, deadline=None)
def test_memoized_kernels_match_uncached_bit_for_bit(
    cache_enabled, instance
) -> None:
    """Cache hit, cache miss, and cache-off all return the same bits."""
    resources, scenarios, months, timing = instance
    spec = EnsembleSpec(scenarios, months)
    tp = timing.post_time()
    previous = set_makespan_cache_enabled(cache_enabled)
    try:
        clear_makespan_cache()
        for g in GROUP_SIZES:
            if resources // g < 1:
                continue
            tg = timing.main_time(g)
            direct = analytic_breakdown(resources, g, scenarios, months, tg, tp)
            first = cached_analytic_breakdown(
                resources, g, scenarios, months, tg, tp
            )
            second = cached_analytic_breakdown(
                resources, g, scenarios, months, tg, tp
            )
            assert first == direct
            assert second == direct
            assert (
                cached_analytic_makespan(resources, g, scenarios, months, tg, tp)
                == direct.makespan
            )
            grouping = _basic_grouping(g, resources, scenarios)
            reference = simulate(grouping, spec, timing).makespan
            assert cached_simulated_makespan(grouping, spec, timing) == reference
            assert cached_simulated_makespan(grouping, spec, timing) == reference
    finally:
        set_makespan_cache_enabled(previous)
        clear_makespan_cache()


@given(engine_instances())
@settings(max_examples=100, deadline=None)
def test_fast_path_matches_reference_bit_for_bit(instance) -> None:
    """The makespan-only loops, the traced path (with records, and
    without them under ``fast=False``) and the oracle agree to the last
    bit."""
    grouping, spec, timing = instance
    reference = reference_simulate(grouping, spec, timing)
    fast = simulate(grouping, spec, timing)
    traced = simulate(grouping, spec, timing, record_trace=True)
    untraced = simulate(grouping, spec, timing, fast=False)
    assert untraced.records == ()
    for result in (fast, traced, untraced):
        assert result.makespan == reference.makespan
        assert result.main_makespan == reference.main_makespan


@given(engine_instances())
@settings(max_examples=100, deadline=None)
def test_fast_path_publishes_reference_metrics(instance) -> None:
    """Under observation the fast path and the oracle give the same
    makespans and publish the same registry, series by series."""
    grouping, spec, timing = instance
    with obs.session() as (registry, _tracer):
        reference = reference_simulate(grouping, spec, timing)
        reference_metrics = registry.as_dict()
    with obs.session() as (registry, _tracer):
        fast = simulate(grouping, spec, timing)
        fast_metrics = registry.as_dict()
    assert fast.makespan == reference.makespan
    assert fast.main_makespan == reference.main_makespan
    assert fast_metrics == reference_metrics
    assert reference_metrics["counters"]["engine.events_dispatched"]


def test_cache_counters_and_metrics_export() -> None:
    """Hit/miss counters track lookups and mirror into the obs registry."""
    previous = set_makespan_cache_enabled(True)
    try:
        clear_makespan_cache()
        args = (40, 5, 10, 12, 1200.0, 180.0)
        with obs.session() as (registry, _tracer):
            cached_analytic_makespan(*args)
            cached_analytic_makespan(*args)
            dump = registry.as_dict()
        stats = makespan_cache_stats()
        assert stats["analytic"]["misses"] == 1
        assert stats["analytic"]["hits"] == 1
        assert stats["analytic"]["size"] == 1
        outcomes = {
            entry["labels"]["outcome"]: entry["value"]
            for entry in dump["counters"]["makespan.cache"]
        }
        assert outcomes == {"miss": 1.0, "hit": 1.0}
    finally:
        set_makespan_cache_enabled(previous)
        clear_makespan_cache()
