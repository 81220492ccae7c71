"""Differential oracle: the batch kernels vs the scalar originals.

:mod:`repro.core.batch` promises *bit-for-bit* equality with the scalar
kernels it vectorizes — not approximate agreement.  Every suite here
therefore asserts ``==`` on floats: the batch implementations pair the
same operands in the same order as the scalar code, so any drift is a
bug, not rounding.

Covered pairs:

* :func:`~repro.core.batch.batch_analytic_breakdown` /
  :func:`~repro.core.batch.batch_analytic_makespan` vs
  :func:`~repro.core.makespan.analytic_breakdown`, over randomized
  ``(R, G, NS, NM)`` cells including the degenerate ones the masking
  contract exists for (``NS = 1``, ``G`` at the 4/11 bounds and beyond,
  ``R < G``): infeasible array cells correspond exactly to scalar
  :class:`~repro.exceptions.SchedulingError` raises;
* :func:`~repro.core.batch.batch_solve_dp` vs per-cell scalar DP
  (``tests/knapsack/dp_oracle.py``) over ``(capacity, max_items)``;
* :func:`~repro.core.batch.batch_plan_groupings` and
  :func:`~repro.core.heuristics.plan_grouping` vs the oracles for every
  registered heuristic: the round-robin loops of
  ``tests/core/uniform_family_oracle.py`` (fed the scalar ``G*``) for
  basic, redistribute and allpost_end, the scalar DP oracle for the
  knapsack, with the makespan memo both enabled and disabled (the
  scalar path consults it; the batch path must agree either way);
* :func:`~repro.core.batch.batch_best_uniform_group` vs
  :func:`~repro.core.basic.best_uniform_group` (same first-minimizer
  tie rule);
* :func:`~repro.core.batch.batch_gains_over_baseline` vs per-cell
  :func:`~repro.analysis.gains.gains_over_baseline`.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.gains import gains_over_baseline
from repro.core.basic import best_uniform_group
from repro.core.batch import (
    batch_analytic_breakdown,
    batch_analytic_makespan,
    batch_best_uniform_group,
    batch_gains_over_baseline,
    batch_plan_groupings,
    batch_solve_dp,
)
from repro.core.heuristics import HeuristicName, plan_grouping
from repro.core.makespan import (
    analytic_breakdown,
    clear_makespan_cache,
    set_makespan_cache_enabled,
)
from repro.exceptions import ConfigurationError, SchedulingError
from repro.knapsack.items import CardinalityKnapsack
from repro.platform.cluster import ClusterSpec
from repro.platform.timing import TableTimingModel, reference_timing
from repro.workflow.ocean_atmosphere import EnsembleSpec
from tests.core.uniform_family_oracle import UNIFORM_ORACLES
from tests.knapsack.dp_oracle import scalar_knapsack_solver, solve_dp

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
def breakdown_cells(draw):
    """Randomized ``(R, G, NS, NM, TG, TP)`` cells, degenerates included.

    ``R`` reaches down to 0 (invalid), ``G`` spans 0..13 (outside the
    paper's [4, 11] admissible band on both sides), ``NS`` includes 1,
    and ``R < G`` cells arise constantly — every flavor of scalar
    :class:`SchedulingError` is exercised alongside the feasible bulk.
    """
    n = draw(st.integers(1, 24))
    rs = [draw(st.integers(0, 140)) for _ in range(n)]
    gs = [draw(st.integers(0, 13)) for _ in range(n)]
    nss = [draw(st.sampled_from((1, 1, 2, 3, 5, 10, 12))) for _ in range(n)]
    nms = [draw(st.integers(1, 24)) for _ in range(n)]
    tgs = [draw(st.integers(1, 12_000)) / 4.0 for _ in range(n)]
    tps = [draw(st.integers(1, 2_000)) / 4.0 for _ in range(n)]
    return rs, gs, nss, nms, tgs, tps


@given(breakdown_cells())
@settings(max_examples=120, deadline=None)
def test_batch_breakdown_matches_scalar_bit_for_bit(cells) -> None:
    """Every array cell equals the scalar kernel — value and exception."""
    rs, gs, nss, nms, tgs, tps = cells
    batch = batch_analytic_breakdown(rs, gs, nss, nms, tgs, tps)
    makespans = batch_analytic_makespan(rs, gs, nss, nms, tgs, tps)
    assert batch.shape == (len(rs),)
    for i, (r, g, ns, nm, tg, tp) in enumerate(
        zip(rs, gs, nss, nms, tgs, tps)
    ):
        try:
            scalar = analytic_breakdown(r, g, ns, nm, tg, tp)
        except SchedulingError:
            assert not batch.feasible[i]
            assert batch.makespan[i] == float("inf")
            assert makespans[i] == float("inf")
            assert batch.case[i] == ""
            with pytest.raises(SchedulingError):
                batch.at(i)
            continue
        assert batch.feasible[i]
        assert batch.at(i) == scalar
        assert makespans[i] == scalar.makespan


def test_batch_breakdown_degenerate_corners() -> None:
    """Pinned corners of the masking contract, deterministically.

    ``NS = 1`` single-scenario cells, ``G`` exactly at the 4/11 bounds,
    ``R`` one below the smallest admissible group, and a zero-``G``
    cell all behave exactly like the scalar kernel.
    """
    cases = [
        (3, 4, 1, 1),  # R < G_min: nbmax = 0, scalar raises
        (4, 4, 1, 1),  # exactly one minimal group
        (11, 11, 1, 12),  # G at the upper bound, single scenario
        (10, 11, 5, 12),  # G just over R
        (44, 11, 4, 6),  # R2 = 0 at the upper bound (eq2 territory)
        (40, 0, 5, 6),  # G = 0: scalar raises before dividing
        (0, 4, 5, 6),  # R = 0
    ]
    rs, gs, nss, nms = (list(axis) for axis in zip(*cases))
    batch = batch_analytic_breakdown(rs, gs, nss, nms, 1200.0, 180.0)
    for i, (r, g, ns, nm) in enumerate(cases):
        try:
            scalar = analytic_breakdown(r, g, ns, nm, 1200.0, 180.0)
        except SchedulingError:
            assert not batch.feasible[i]
            continue
        assert batch.at(i) == scalar


@st.composite
def dp_instances(draw):
    """A knapsack problem plus ``(capacity, max_items)`` cells to batch over."""
    sizes = sorted(draw(st.sets(st.integers(4, 11), min_size=1, max_size=8)))
    values = {g: draw(st.integers(1, 10_000)) / 4096.0 for g in sizes}
    capacity = draw(st.integers(0, 120))
    max_items = draw(st.integers(0, 12))
    problem = CardinalityKnapsack.from_weights_values(
        values, capacity, max_items
    )
    n = draw(st.integers(1, 12))
    cells = [
        (draw(st.integers(0, capacity)), draw(st.integers(0, max_items)))
        for _ in range(n)
    ]
    return problem, cells


@given(dp_instances())
@settings(max_examples=120, deadline=None)
def test_batch_solve_dp_matches_scalar_per_capacity(instance) -> None:
    """One DP at the ceilings == one scalar solve per cell, exactly."""
    problem, cells = instance
    batched = batch_solve_dp(problem, cells)
    assert len(batched) == len(cells)
    for solution, (capacity, max_items) in zip(batched, cells):
        expected = solve_dp(replace(problem, capacity=capacity, max_items=max_items))
        assert solution == expected


def test_batch_solve_dp_refuses_cells_outside_the_solved_range() -> None:
    """A cell above either ceiling is a configuration error, not a guess."""
    problem = CardinalityKnapsack.from_weights_values({4: 1.0, 5: 1.5}, 20, 3)
    for bad in ((21, 3), (20, 4), (-1, 0)):
        with pytest.raises(ConfigurationError):
            batch_solve_dp(problem, [(20, 3), bad])


@st.composite
def planning_instances(draw):
    """A timing model plus resource/ensemble axes for whole-grid planning."""
    timing = _dyadic_table(draw)
    n = draw(st.integers(1, 16))
    resources = [draw(st.integers(1, 140)) for _ in range(n)]
    scenarios = draw(st.sampled_from((1, 2, 3, 5, 10, 12)))
    months = draw(st.integers(1, 24))
    return timing, resources, EnsembleSpec(scenarios, months)


@st.composite
def planning_batches(draw):
    """A timing model plus a sweep-chunk-like batch of planning points.

    Resource values repeat, and ``NS``/``NM`` take a few values each, so
    batches mix shared ``(R, NS, NM)`` cells and every heuristic, in
    arbitrary order.  Every batch holds knapsack points at two or more
    ``NS`` values, each with its own ``R``: the one knapsack DP per batch
    must trace each cell back at that cell's own capacity and cap.
    """
    timing = _dyadic_table(draw)
    n = draw(st.integers(1, 32))
    resources = st.integers(1, 140)
    scenarios = st.sampled_from((1, 2, 3, 5, 10, 12))
    months = st.sampled_from((1, 2, 12, 24))
    heuristics = st.sampled_from(list(HeuristicName))
    points = [
        (draw(resources), draw(scenarios), draw(months), draw(heuristics))
        for _ in range(n)
    ]
    knapsack_ns = draw(st.lists(scenarios, min_size=2, max_size=4, unique=True))
    points += [
        (draw(resources), ns, draw(months), HeuristicName.KNAPSACK)
        for ns in knapsack_ns
    ]
    return timing, draw(st.permutations(points))


#: Pinned corners of the family rule: posts outlasting every main
#: (``⌊TG/TP⌋ = 0``, one post processor per group), and ``G* = 11``
#: groups that cannot absorb the surplus, which returns to the posts.
_POSTS_OUTLAST_MAINS = (
    TableTimingModel({g: 50.0 for g in GROUP_SIZES}, post_seconds=60.0),
    [(5, 1, 1, HeuristicName.REDISTRIBUTE), (20, 3, 6, HeuristicName.REDISTRIBUTE)],
)
_SATURATED_GROUPS = (
    TableTimingModel({g: 4000.0 - 400.0 * (g - 4) for g in GROUP_SIZES}),
    [(30, 2, 6, HeuristicName.REDISTRIBUTE), (30, 2, 6, HeuristicName.ALLPOST_END)],
)


@pytest.mark.parametrize("cache_enabled", [True, False])
@given(instance=planning_batches())
@example(instance=_POSTS_OUTLAST_MAINS)
@example(instance=_SATURATED_GROUPS)
@settings(max_examples=60, deadline=None)
def test_batch_plan_groupings_matches_scalar(cache_enabled, instance) -> None:
    """Both planners equal the oracles grouping for grouping, cache on/off.

    Both planners build the uniform heuristics through one closed form,
    so the expectation comes from outside ``src/``: the round-robin
    loops for basic, redistribute and allpost_end, the scalar DP for
    the knapsack.  A ``None`` entry must correspond exactly to an
    oracle :class:`SchedulingError` (and ``plan_grouping`` must raise
    there too); a planned entry must equal the oracle grouping (sizes,
    post pool, everything ``Grouping.__eq__`` sees).
    """
    timing, points = instance
    previous = set_makespan_cache_enabled(cache_enabled)
    try:
        clear_makespan_cache()
        batched = batch_plan_groupings(timing, points)
        assert len(batched) == len(points)
        for (r, ns, nm, heuristic), got in zip(points, batched):
            cluster = ClusterSpec(f"c{r}", r, timing)
            spec = EnsembleSpec(ns, nm)
            try:
                if heuristic is HeuristicName.KNAPSACK:
                    with scalar_knapsack_solver():
                        expected = plan_grouping(cluster, spec, heuristic)
                else:
                    expected = UNIFORM_ORACLES[heuristic](cluster, spec)
            except SchedulingError:
                assert got is None
                with pytest.raises(SchedulingError):
                    plan_grouping(cluster, spec, heuristic)
                continue
            assert got == expected
            assert plan_grouping(cluster, spec, heuristic) == expected
    finally:
        set_makespan_cache_enabled(previous)
        clear_makespan_cache()


def test_batch_plan_groupings_edges() -> None:
    """An empty batch plans nothing; a non-positive axis value is refused."""
    timing = reference_timing()
    assert batch_plan_groupings(timing, []) == []
    for bad in ((0, 10, 12, "basic"), (20, 0, 12, "knapsack"), (20, 10, 0, "basic")):
        with pytest.raises(ConfigurationError):
            batch_plan_groupings(timing, [(20, 10, 12, "basic"), bad])


@given(instance=planning_instances())
@settings(max_examples=60, deadline=None)
def test_batch_best_uniform_group_matches_scalar(instance) -> None:
    """Same ``G*`` (same tie rule) and same feasibility as the scalar loop."""
    timing, resources, spec = instance
    best_g, feasible = batch_best_uniform_group(
        timing, resources, spec.scenarios, spec.months
    )
    for i, r in enumerate(resources):
        cluster = ClusterSpec(f"c{r}", r, timing)
        try:
            expected = best_uniform_group(cluster, spec)
        except SchedulingError:
            assert not feasible[i]
            assert best_g[i] == 0
            continue
        assert feasible[i]
        assert int(best_g[i]) == expected


@st.composite
def gain_cells(draw):
    """Per-cell makespan mappings sharing a ``basic`` baseline entry."""
    competitors = sorted(
        draw(
            st.sets(
                st.sampled_from(("redistribute", "allpost_end", "knapsack")),
                min_size=1,
                max_size=3,
            )
        )
    )
    n = draw(st.integers(1, 10))
    cells = []
    for _ in range(n):
        cell = {"basic": draw(st.integers(1, 100_000)) / 4.0}
        for name in competitors:
            cell[name] = draw(st.integers(0, 100_000)) / 4.0
        cells.append(cell)
    return cells


@given(gain_cells())
@settings(max_examples=80, deadline=None)
def test_batch_gains_match_scalar_per_cell(cells) -> None:
    """Vectorized gains == per-cell scalar gains, dict-for-dict."""
    batched = batch_gains_over_baseline(cells)
    assert len(batched) == len(cells)
    for cell, got in zip(cells, batched):
        assert got == gains_over_baseline(cell)


def test_batch_breakdown_broadcasts_like_numpy() -> None:
    """A 2-D ``(R, G)`` outer grid agrees with the flat per-cell calls."""
    rs = np.arange(4, 60, 7)
    gs = np.asarray(list(GROUP_SIZES))
    grid = batch_analytic_makespan(
        rs[:, None], gs[None, :], 10, 12, 1200.0, 180.0
    )
    assert grid.shape == (len(rs), len(gs))
    for i, r in enumerate(rs):
        for j, g in enumerate(gs):
            flat = batch_analytic_makespan(
                int(r), int(g), 10, 12, 1200.0, 180.0
            )
            assert grid[i, j] == flat[()]
