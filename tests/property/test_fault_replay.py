"""Differential oracle: the schedule-log replay against the record warp.

``FaultHook.replay`` scores a faulted schedule from the memoized
:class:`~repro.core.makespan.ScheduleLog` by binary search;
:func:`~tests.simulation.fault_warp_oracle.warp_records` warps every record of a traced run of the set-scan reference engine
(``tests/simulation/reference_engine.py``).  For any grouping and
any mix of outages, slowdowns and a crash, both must report the same
warped result and the same :class:`~repro.faults.hooks.FaultOutcome`,
field for field and bit for bit.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grouping import Grouping
from repro.core.makespan import (
    cached_schedule_log,
    clear_makespan_cache,
    makespan_cache_disabled,
    makespan_cache_stats,
)
from repro.faults.hooks import FaultHook, simulate_with_faults
from repro.faults.trace import FaultEvent, FaultKind
from repro.platform.timing import TableTimingModel
from repro.workflow.ocean_atmosphere import EnsembleSpec
from tests.simulation.fault_warp_oracle import warp_records
from tests.simulation.reference_engine import reference_simulate

CRASH_MODES = (
    "none", "zero", "task-end", "in-outage", "at-makespan",
    "after-makespan", "anywhere",
)


@st.composite
def schedules(draw):
    """A heterogeneous ``(grouping, spec, timing)`` the engine accepts."""
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
    return grouping, EnsembleSpec(scenarios, months), timing


@st.composite
def windows(draw, horizon: float):
    """Outages and slowdowns over ``[0, horizon]``, free to overlap."""
    events = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        at = draw(st.floats(min_value=0.0, max_value=horizon))
        duration = draw(st.floats(min_value=0.5, max_value=horizon / 2 + 1.0))
        if draw(st.booleans()):
            events.append(FaultEvent(FaultKind.OUTAGE, "c", at, duration=duration))
        else:
            factor = draw(st.floats(min_value=1.01, max_value=8.0))
            events.append(FaultEvent(
                FaultKind.SLOWDOWN, "c", at, duration=duration, factor=factor,
            ))
    return events


@st.composite
def faulted_schedules(draw):
    """A schedule plus a hook whose crash lands on a drawn edge case."""
    grouping, spec, timing = draw(schedules())
    base = reference_simulate(grouping, spec, timing, record_trace=True)
    events = draw(windows(base.makespan * 1.5))
    warp = FaultHook.from_events(events)
    mode = draw(st.sampled_from(CRASH_MODES))
    crash_at = None
    if mode == "zero":
        crash_at = 0.0
    elif mode == "task-end":
        record = draw(st.sampled_from(base.records))
        crash_at = warp.wallclock(record.end)
    elif mode == "in-outage":
        outages = [e for e in events if e.kind is FaultKind.OUTAGE]
        if outages:
            outage = draw(st.sampled_from(outages))
            share = draw(st.floats(min_value=0.0, max_value=1.0))
            crash_at = outage.at_time + share * outage.duration
    elif mode == "at-makespan":
        crash_at = warp.wallclock(base.makespan)
    elif mode == "after-makespan":
        crash_at = warp.wallclock(base.makespan) + draw(
            st.floats(min_value=0.0, max_value=1e4)
        )
    elif mode == "anywhere":
        crash_at = draw(st.floats(min_value=0.0, max_value=base.makespan * 2))
    if crash_at is not None:
        events = [*events, FaultEvent(FaultKind.CRASH, "c", crash_at)]
    return grouping, spec, timing, FaultHook.from_events(events)


def _oracle(hook, grouping, spec, timing):
    base = reference_simulate(
        grouping, spec, timing, cluster_name="c", record_trace=True,
    )
    return warp_records(hook, base, keep_records=False)


class TestReplayMatchesApply:
    @given(case=faulted_schedules())
    @settings(max_examples=300, deadline=None)
    def test_log_replay_equals_record_warp(self, case) -> None:
        grouping, spec, timing, hook = case
        expected = _oracle(hook, grouping, spec, timing)
        memoized = hook.replay(grouping, spec, timing, cluster_name="c")
        with makespan_cache_disabled():
            uncached = hook.replay(grouping, spec, timing, cluster_name="c")
        assert memoized == expected
        assert uncached == expected
        if not hook.is_noop:
            assert simulate_with_faults(
                grouping, spec, timing, hook, cluster_name="c"
            ) == expected

    def test_crash_inside_a_task_charges_its_lost_work(self) -> None:
        timing = TableTimingModel({4: 100.0, 5: 70.0}, post_seconds=10.0)
        grouping = Grouping((5, 4), 1, 10)
        spec = EnsembleSpec(3, 4)
        hook = FaultHook.from_events([
            FaultEvent(FaultKind.OUTAGE, "c", 40.0, duration=25.0),
            FaultEvent(FaultKind.SLOWDOWN, "c", 50.0, duration=90.0, factor=2.0),
            FaultEvent(FaultKind.CRASH, "c", 333.0),
        ])
        _, outcome = hook.replay(grouping, spec, timing, cluster_name="c")
        assert outcome.crashed and outcome.lost_work_seconds > 0
        assert outcome == _oracle(hook, grouping, spec, timing)[1]


class TestScheduleLogMemo:
    SCHEDULE = (
        Grouping((6, 4), 2, 12),
        EnsembleSpec(3, 4),
        TableTimingModel({4: 90.0, 5: 75.0, 6: 61.0}, post_seconds=12.0),
    )

    @pytest.fixture(autouse=True)
    def _cold_cache(self):
        clear_makespan_cache()
        yield
        clear_makespan_cache()

    def test_hit_returns_the_same_log(self) -> None:
        first = cached_schedule_log(*self.SCHEDULE)
        assert cached_schedule_log(*self.SCHEDULE) is first
        stats = makespan_cache_stats()["schedule"]
        assert stats == {"hits": 1, "misses": 1, "size": 1}

    def test_clear_drops_the_log(self) -> None:
        first = cached_schedule_log(*self.SCHEDULE)
        clear_makespan_cache()
        assert makespan_cache_stats()["schedule"]["size"] == 0
        again = cached_schedule_log(*self.SCHEDULE)
        assert again is not first
        assert again == first

    def test_disabled_cache_bypasses_the_log(self) -> None:
        first = cached_schedule_log(*self.SCHEDULE)
        with makespan_cache_disabled():
            fresh = cached_schedule_log(*self.SCHEDULE)
        assert fresh is not first
        assert fresh == first
        assert makespan_cache_stats()["schedule"] == {
            "hits": 0, "misses": 1, "size": 1,
        }

    def test_log_lists_the_reference_records(self) -> None:
        grouping, spec, timing = self.SCHEDULE
        log = cached_schedule_log(grouping, spec, timing)
        records = reference_simulate(
            grouping, spec, timing, record_trace=True
        ).records
        assert log.starts == tuple(r.start for r in records)
        assert log.ends == tuple(r.end for r in records)
        assert log.procs == tuple(r.n_procs for r in records)
        assert log.sorted_ends == tuple(sorted(log.ends))
        assert log.makespan == max(log.ends)
        assert log.mains == sum(r.kind == "main" for r in records)
        assert all(r.kind == "main" for r in records[:log.mains])
        blocks = (slice(0, log.mains), slice(log.mains, None))
        assert log.end_peaks == tuple(
            peak for block in blocks
            for peak in itertools.accumulate(log.ends[block], max)
        )
        for s in range(spec.scenarios):
            assert log.main_ends[s] == tuple(sorted(
                r.end for r in records if r.kind == "main" and r.scenario == s
            ))
            assert log.post_ends[s] == tuple(sorted(
                r.end for r in records if r.kind == "post" and r.scenario == s
            ))
