"""The engine fast path, regime by regime, against the reference engine.

The fast main phase runs in one of three regimes: uniform groupings
(every group time equal, ``k <= NS``) in closed-form waves, everything
else in a fused loop while every group is busy, and the general event
step once a group idles with work left.  Each test here compares
``simulate(...)`` with the set-scan oracle ``reference_simulate(...)``
of ``tests/simulation/reference_engine.py``: both makespans, and the
ready times and per-group last ends, which the oracle exposes through
its ``record_trace=True`` records and the fast path returns from
``_run_main_phase_fast``.  Equality is exact
— the regimes make the same decisions, hence the same float additions.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.grouping import Grouping
from repro.platform.timing import TableTimingModel
from repro.simulation.engine import _run_main_phase_fast, simulate
from repro.workflow.ocean_atmosphere import EnsembleSpec
from tests.simulation.reference_engine import reference_simulate

GROUP_SIZES = range(4, 12)

# Three equal-time regimes: a dyadic time, one whose repeated addition
# rounds, and one shared by two group sizes (equal floats, unequal
# sizes — the tie falls to the group index either way).
UNIFORM_TIMINGS = {
    "dyadic": (
        TableTimingModel({g: 1000.0 for g in GROUP_SIZES}, post_seconds=180.0),
        (4,),
    ),
    "rounding": (
        TableTimingModel({g: 0.1 * (20 - g) for g in GROUP_SIZES}, post_seconds=0.3),
        (7,),
    ),
    "shared": (
        TableTimingModel(
            {g: 1234.567 if g in (5, 6) else 2000.0 - g for g in GROUP_SIZES},
            post_seconds=97.3,
        ),
        (5, 6),
    ),
}


def _grouping(sizes: list[int], post_pool: int) -> Grouping:
    return Grouping.from_sizes(sizes, sum(sizes) + post_pool, post_pool=post_pool)


def _assert_paths_agree(
    grouping: Grouping, spec: EnsembleSpec, timing: TableTimingModel, **kwargs: bool
) -> list[list[tuple[float, float]]]:
    """Compare fast path and oracle; return each group's main-task (start, end) pairs.

    Besides the makespans, the fast main phase's ready times, group last
    ends and per-group task counts must equal those of the oracle's
    main-task records.
    """
    reference = reference_simulate(grouping, spec, timing, record_trace=True, **kwargs)
    fast = simulate(grouping, spec, timing, **kwargs)
    assert fast.makespan == reference.makespan
    assert fast.main_makespan == reference.main_makespan

    group_times = [timing.main_time(g) for g in grouping.group_sizes]
    tasks_per_group = [0] * len(group_times)
    ready_times, group_last_end = _run_main_phase_fast(
        [spec.months] * spec.scenarios, group_times, tasks_per_group
    )
    mains = [r for r in reference.records if r.kind == "main"]
    assert ready_times == sorted(r.end for r in mains)
    spans: list[list[tuple[float, float]]] = [[] for _ in group_times]
    for r in sorted(mains, key=lambda r: r.start):
        spans[r.group].append((r.start, r.end))
    assert group_last_end == [s[-1][1] if s else 0.0 for s in spans]
    assert tasks_per_group == [len(s) for s in spans]
    return spans


def _idles_with_work_left(spans: list[list[tuple[float, float]]]) -> bool:
    """Whether some group waited between two of its main tasks."""
    return any(
        later[0] > earlier[1]
        for group in spans
        for earlier, later in zip(group, group[1:])
    )


@pytest.mark.parametrize("name", sorted(UNIFORM_TIMINGS))
def test_uniform_waves_match_reference_exhaustively(name: str) -> None:
    """Every ``k <= NS <= 18``, ``NM <= 12``: closed-form waves are exact."""
    timing, sizes = UNIFORM_TIMINGS[name]
    for ns in range(1, 19):
        for k in range(1, ns + 1):
            grouping = _grouping([sizes[g % len(sizes)] for g in range(k)], ns % 3)
            for nm in range(1, 13):
                spans = _assert_paths_agree(grouping, EnsembleSpec(ns, nm), timing)
                assert not _idles_with_work_left(spans)


@st.composite
def near_saturated_instances(draw):
    """Heterogeneous groupings with ``NS`` close to ``k``, speeds within 3x."""
    base = draw(st.floats(min_value=50.0, max_value=3000.0))
    table = {
        g: base * draw(st.floats(min_value=1.0, max_value=3.0)) for g in GROUP_SIZES
    }
    timing = TableTimingModel(table, post_seconds=draw(st.floats(10.0, 500.0)))
    ns = draw(st.integers(min_value=1, max_value=8))
    k = draw(st.integers(min_value=max(1, ns - 2), max_value=ns))
    sizes = draw(st.lists(st.sampled_from(GROUP_SIZES), min_size=k, max_size=k))
    spec = EnsembleSpec(ns, draw(st.integers(min_value=1, max_value=12)))
    return _grouping(sizes, draw(st.integers(0, 3))), spec, timing


@given(near_saturated_instances())
@settings(max_examples=150, deadline=None)
def test_fused_loop_matches_reference(instance) -> None:
    _assert_paths_agree(*instance)


def test_group_idling_mid_run_falls_back_to_general_step() -> None:
    """NS=3 on one fast and one slow group: the scenario left on the slow
    group lags, the other two finish, and the fast group idles with that
    scenario's last months still to run."""
    timing = TableTimingModel(
        {g: 300.0 if g < 8 else 100.0 for g in GROUP_SIZES}, post_seconds=50.0
    )
    spans = _assert_paths_agree(_grouping([4, 11], 1), EnsembleSpec(3, 8), timing)
    assert _idles_with_work_left(spans)


def test_more_groups_than_scenarios_uses_general_step() -> None:
    """``k > NS`` leaves groups idle from the start, uniform or not."""
    for times in ({g: 500.0 for g in GROUP_SIZES}, {g: 100.0 * g for g in GROUP_SIZES}):
        timing = TableTimingModel(times, post_seconds=60.0)
        for ns, k, nm in ((1, 2, 5), (2, 5, 3), (3, 4, 7)):
            grouping = _grouping([4 + g % 8 for g in range(k)], 1)
            spans = _assert_paths_agree(
                grouping, EnsembleSpec(ns, nm), timing, enforce_cardinality=False
            )
            assert sum(1 for s in spans if s) == ns


def test_uniform_waves_publish_reference_metrics() -> None:
    """``engine.waves`` and ``engine.idle_seconds`` hold on the closed form."""
    timing, sizes = UNIFORM_TIMINGS["rounding"]
    for ns, k, nm in ((1, 1, 5), (5, 2, 7), (6, 4, 3), (7, 7, 4), (9, 6, 11)):
        grouping = _grouping([sizes[0]] * k, 1)
        spec = EnsembleSpec(ns, nm)
        with obs.session() as (registry, _tracer):
            reference_simulate(grouping, spec, timing)
            reference = registry.as_dict()
        with obs.session() as (registry, _tracer):
            simulate(grouping, spec, timing)
            fast = registry.as_dict()
        assert fast == reference
        assert fast["gauges"]["engine.waves"]
