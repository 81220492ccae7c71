"""The heap-free post phase against the reference post phase.

The fast post phase merges the sorted initial processor availabilities
with a FIFO of post ends instead of keeping a heap.  That is exact only
because every post takes the same ``TP`` and the ready list arrives
sorted, so ends come out nondecreasing.  These tests hand both
implementations the same inputs — groupings of 1–12 groups, post pools
of 0–20 processors, ``TP`` of 60–1,400 s, ready lists full of ties and
group last ends anywhere on the time axis — and require the same
makespan, float for float.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grouping import Grouping
from repro.exceptions import SimulationError
from repro.simulation.engine import _run_post_phase, _run_post_phase_fast
from repro.simulation.groups import proc_ranges


def _reference_makespan(
    grouping: Grouping, ready_times: list[float], group_last_end: list[float], tp: float
) -> float:
    post_ready = [(ready, i, 0) for i, ready in enumerate(ready_times)]
    _, makespan = _run_post_phase(
        grouping, post_ready, group_last_end, proc_ranges(grouping), tp, False
    )
    return makespan


#: Times on a coarse grid tie often; the fine ones round when added.
_TIMES = st.one_of(
    st.integers(0, 40).map(lambda k: k * 250.0),
    st.floats(0.0, 1e5, allow_nan=False, allow_infinity=False),
)


@st.composite
def post_phase_inputs(draw):
    sizes = draw(st.lists(st.integers(4, 11), min_size=1, max_size=12))
    post_pool = draw(st.integers(0, 20))
    grouping = Grouping.from_sizes(sizes, sum(sizes) + post_pool, post_pool=post_pool)
    ready_times = sorted(draw(st.lists(_TIMES, max_size=300)))
    group_last_end = [draw(_TIMES) for _ in sizes]
    tp = draw(st.one_of(st.integers(60, 1400).map(float), st.floats(60.0, 1400.0)))
    return grouping, ready_times, group_last_end, tp


@given(post_phase_inputs())
@settings(max_examples=400, deadline=None)
def test_merge_equals_reference_makespan(inputs) -> None:
    grouping, ready_times, group_last_end, tp = inputs
    assert _run_post_phase_fast(grouping, ready_times, group_last_end, tp) == (
        _reference_makespan(grouping, ready_times, group_last_end, tp)
    )


def test_ready_ties_on_a_small_pool() -> None:
    """Bursts of equal ready times queue on a pool smaller than the burst."""
    grouping = Grouping.from_sizes([4, 5], 10, post_pool=1)
    ready_times = [100.0] * 7 + [350.0] * 7 + [351.5] * 3
    group_last_end = [350.0, 100.0]
    for tp in (60.0, 97.3, 1400.0):
        assert _run_post_phase_fast(grouping, ready_times, group_last_end, tp) == (
            _reference_makespan(grouping, ready_times, group_last_end, tp)
        )


def test_no_posts_end_at_zero() -> None:
    grouping = Grouping.from_sizes([4], 6, post_pool=2)
    assert _run_post_phase_fast(grouping, [], [500.0], 60.0) == 0.0
    assert _reference_makespan(grouping, [], [500.0], 60.0) == 0.0


def test_empty_pool_with_posts_raises() -> None:
    """No group and no post pool: both paths refuse to place a post.

    A :class:`Grouping` always has a group, so the empty pool is a
    stand-in carrying only what the post phases read.
    """
    empty = SimpleNamespace(group_sizes=(), post_pool=0, main_resources=0)
    with pytest.raises(SimulationError, match="no processor ever becomes available"):
        _run_post_phase_fast(empty, [10.0], [], 60.0)
    with pytest.raises(SimulationError, match="no processor ever becomes available"):
        _run_post_phase(empty, [(10.0, 0, 0)], [], [], 60.0, False)
    assert _run_post_phase_fast(empty, [], [], 60.0) == 0.0
