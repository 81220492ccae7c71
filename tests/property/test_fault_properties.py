"""Properties of fault injection: determinism, warp exactness, noop purity."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grouping import Grouping
from repro.faults.hooks import FaultHook, simulate_with_faults
from repro.faults.trace import (
    FaultEvent,
    FaultKind,
    FaultProfile,
    FaultTrace,
    generate_trace,
)
from repro.middleware.recovery import run_campaign_with_faults
from repro.platform.benchmarks import benchmark_grid
from repro.platform.timing import TableTimingModel
from repro.simulation.engine import simulate
from repro.workflow.ocean_atmosphere import EnsembleSpec

GRID = benchmark_grid(3, 30)


@st.composite
def trace_specs(draw):
    """A (profiles, horizon, seed) triple for the generator."""
    n = draw(st.integers(min_value=1, max_value=4))
    profiles = {}
    for i in range(n):
        profiles[f"c{i}"] = FaultProfile(
            mtbf_seconds=draw(
                st.floats(min_value=600.0, max_value=48 * 3600.0)
            ),
            mttr_seconds=draw(
                st.floats(min_value=60.0, max_value=8 * 3600.0)
            ),
        )
    horizon = draw(st.floats(min_value=3600.0, max_value=14 * 24 * 3600.0))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return profiles, horizon, seed


@st.composite
def fault_windows(draw):
    """A small single-cluster event list of outages and slowdowns."""
    events = []
    cursor = 0.0
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        cursor += draw(st.floats(min_value=1.0, max_value=500.0))
        duration = draw(st.floats(min_value=1.0, max_value=300.0))
        if draw(st.booleans()):
            events.append(
                FaultEvent(FaultKind.OUTAGE, "c", cursor, duration=duration)
            )
        else:
            factor = draw(st.floats(min_value=1.1, max_value=8.0))
            events.append(
                FaultEvent(
                    FaultKind.SLOWDOWN, "c", cursor,
                    duration=duration, factor=factor,
                )
            )
        cursor += duration
    return events


class TestTraceDeterminism:
    @given(spec=trace_specs())
    @settings(max_examples=40, deadline=None)
    def test_identical_inputs_identical_trace(self, spec) -> None:
        profiles, horizon, seed = spec
        first = generate_trace(profiles, horizon, seed)
        second = generate_trace(profiles, horizon, seed)
        assert first == second
        assert first.to_dicts() == second.to_dicts()

    @given(spec=trace_specs())
    @settings(max_examples=20, deadline=None)
    def test_traces_roundtrip_through_dicts(self, spec) -> None:
        profiles, horizon, seed = spec
        trace = generate_trace(profiles, horizon, seed)
        assert FaultTrace.from_dicts(trace.to_dicts()) == trace


class TestWarpProperties:
    @given(events=fault_windows(), p=st.floats(min_value=0.0, max_value=5e3))
    @settings(max_examples=60, deadline=None)
    def test_progress_inverts_wallclock(self, events, p) -> None:
        hook = FaultHook.from_events(events)
        w = hook.wallclock(p)
        assert w >= p  # faults only ever delay
        assert abs(hook.progress(w) - p) < 1e-6 * max(1.0, p)

    @given(events=fault_windows())
    @settings(max_examples=40, deadline=None)
    def test_wallclock_is_monotone(self, events) -> None:
        hook = FaultHook.from_events(events)
        points = [i * 37.5 for i in range(40)]
        walls = [hook.wallclock(p) for p in points]
        assert all(a <= b for a, b in zip(walls, walls[1:]))


class TestNoopPurity:
    @given(
        scenarios=st.integers(min_value=1, max_value=4),
        months=st.integers(min_value=1, max_value=6),
        groups=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_empty_hook_is_bit_for_bit_fault_free(
        self, scenarios, months, groups
    ) -> None:
        groups = min(groups, scenarios)
        timing = TableTimingModel(
            {g: 100.0 for g in range(4, 12)}, post_seconds=10.0
        )
        grouping = Grouping((4,) * groups, 0, 4 * groups)
        spec = EnsembleSpec(scenarios, months)
        plain = simulate(grouping, spec, timing)
        result, outcome = simulate_with_faults(
            grouping, spec, timing, FaultHook()
        )
        assert result == plain
        assert not outcome.crashed
        assert outcome.completed_months == dict.fromkeys(range(scenarios), months)
        assert outcome.pending_posts == dict.fromkeys(range(scenarios), 0)
        assert (outcome.months_lost, outcome.lost_work_seconds) == (0, 0.0)
        assert outcome.makespan == plain.makespan


class TestCampaignDeterminism:
    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=5, deadline=None)
    def test_identical_seed_identical_campaign(self, seed) -> None:
        profile = FaultProfile.outages_only(6 * 3600.0, 1800.0)
        trace = generate_trace(
            {name: profile for name in GRID.names}, 12 * 3600.0, seed
        )
        first = run_campaign_with_faults(GRID, 4, 6, trace)
        second = run_campaign_with_faults(
            GRID, 4, 6, generate_trace(
                {name: profile for name in GRID.names}, 12 * 3600.0, seed
            )
        )
        assert first.trace == second.trace
        assert first.makespan == second.makespan
        assert first.reassignment == second.reassignment
        assert first.cluster_finish == second.cluster_finish
