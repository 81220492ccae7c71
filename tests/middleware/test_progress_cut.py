"""The replanner's schedule cut against the record-scan oracle.

``_progress_at`` answers "what had finished by ``at_time`` on a
schedule started at ``offset``" with one
:meth:`~repro.core.makespan.ScheduleLog.cut` of the memoized log.  It
must equal the scan of a fresh traced run
(``tests/middleware/progress_oracle.py``) tuple for tuple, with the
lost work bit for bit: for heterogeneous groupings, unequal chains,
offsets whose sums round, and cuts before the start, exactly at a
task's shifted end, and past the makespan.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grouping import Grouping
from repro.core.makespan import cached_schedule_log, makespan_cache_disabled
from repro.middleware.recovery import _progress_at
from repro.platform.cluster import ClusterSpec
from repro.platform.timing import TableTimingModel
from repro.simulation.engine import simulate
from repro.workflow.ocean_atmosphere import EnsembleSpec
from tests.middleware.progress_oracle import progress_at_by_records

#: Offsets where ``offset + t`` is exact (0.0), rounds in the last
#: bits (0.1, 1/3, 1e9 + 0.1), or swallows whole task times (2**53).
ROUNDING_OFFSETS = (0.0, 0.1, 1 / 3, 1e9 + 0.1, 2.0**53)


@st.composite
def cut_cases(draw):
    """A heterogeneous schedule, optional chains, an offset and a cut time."""
    scenarios = draw(st.integers(min_value=1, max_value=5))
    months = draw(st.integers(min_value=1, max_value=6))
    sizes = tuple(draw(st.lists(
        st.integers(min_value=4, max_value=8), min_size=1, max_size=scenarios,
    )))
    post_pool = draw(st.integers(min_value=0, max_value=3))
    times = draw(st.lists(
        st.floats(min_value=20.0, max_value=400.0), min_size=5, max_size=5,
    ))
    timing = TableTimingModel(
        dict(zip(range(4, 9), times, strict=True)),
        post_seconds=draw(st.floats(min_value=5.0, max_value=200.0)),
    )
    grouping = Grouping(sizes, post_pool, sum(sizes) + post_pool)
    cluster = ClusterSpec("c", grouping.total_resources, timing)
    spec = EnsembleSpec(scenarios, months)
    chains = draw(st.none() | st.tuples(
        *[st.integers(min_value=1, max_value=months)] * scenarios
    ))
    offset = draw(
        st.sampled_from(ROUNDING_OFFSETS)
        | st.floats(min_value=0.0, max_value=1e7)
    )
    records = simulate(
        grouping, spec, timing, record_trace=True, chains=chains
    ).records
    makespan = max(r.end for r in records)
    mode = draw(st.sampled_from(("before", "task-end", "past", "anywhere")))
    if mode == "before":
        at = offset - draw(st.floats(min_value=0.0, max_value=1e4))
    elif mode == "task-end":
        at = offset + draw(st.sampled_from(records)).end
    elif mode == "past":
        at = offset + makespan + draw(st.floats(min_value=0.0, max_value=1e4))
    else:
        at = offset + draw(st.floats(min_value=0.0, max_value=makespan * 1.2))
    return cluster, grouping, spec, chains, offset, at


@given(case=cut_cases())
@settings(max_examples=300, deadline=None)
def test_log_cut_equals_the_record_scan(case) -> None:
    expected = progress_at_by_records(*case)
    assert _progress_at(*case) == expected
    assert _progress_at(*case) == expected  # a cache hit
    with makespan_cache_disabled():
        assert _progress_at(*case) == expected


@given(case=cut_cases())
@settings(max_examples=100, deadline=None)
def test_log_starts_are_nondecreasing_per_block(case) -> None:
    # The cut's window search relies on it: the engine places mains,
    # and then posts, as its clock advances.
    cluster, grouping, spec, chains, _offset, _at = case
    log = cached_schedule_log(grouping, spec, cluster.timing, chains)
    for block in (log.starts[:log.mains], log.starts[log.mains:]):
        assert list(block) == sorted(block)


def test_a_task_ending_exactly_at_the_cut_is_done() -> None:
    # One group of 100 s mains, 10 s posts on one pool processor: at
    # offset + 200 month 1 has just ended and is safe, while month 2
    # and month 1's post start exactly then and lose nothing.
    timing = TableTimingModel({4: 100.0}, post_seconds=10.0)
    grouping = Grouping((4,), 1, 5)
    cluster = ClusterSpec("c", 5, timing)
    case = (cluster, grouping, EnsembleSpec(1, 3), None, 0.1, 0.1 + 200.0)
    assert _progress_at(*case) == ((2,), (1,), 0.0, 0)
    assert _progress_at(*case) == progress_at_by_records(*case)
