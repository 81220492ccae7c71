"""Engine-level fault hooks: the time warp, crashes, and the noop path."""

from __future__ import annotations

import pytest

from repro.core.grouping import Grouping
from repro.exceptions import SimulationError
from repro.faults.hooks import FaultHook, FaultOutcome, simulate_with_faults
from repro.faults.trace import FaultEvent, FaultKind, FaultTrace
from repro.platform.timing import TableTimingModel
from repro.simulation.engine import simulate
from repro.workflow.ocean_atmosphere import EnsembleSpec
from tests.simulation.fault_warp_oracle import warp_records


def _flat(tg: float = 100.0, tp: float = 10.0) -> TableTimingModel:
    return TableTimingModel({g: tg for g in range(4, 12)}, post_seconds=tp)


def _outage(at: float, duration: float, cluster: str = "c") -> FaultEvent:
    return FaultEvent(FaultKind.OUTAGE, cluster, at, duration=duration)


def _slowdown(
    at: float, duration: float, factor: float, cluster: str = "c"
) -> FaultEvent:
    return FaultEvent(
        FaultKind.SLOWDOWN, cluster, at, duration=duration, factor=factor
    )


class TestWarp:
    def test_empty_hook_is_identity(self) -> None:
        hook = FaultHook()
        assert hook.is_noop
        for t in (0.0, 1.0, 123.4):
            assert hook.wallclock(t) == t
            assert hook.progress(t) == t

    def test_outage_inserts_a_flat_segment(self) -> None:
        hook = FaultHook.from_events([_outage(100.0, 50.0)])
        assert hook.wallclock(99.0) == 99.0
        # Progress 100 is reached exactly at the outage start; progress
        # beyond it is pushed out by the full outage.
        assert hook.wallclock(100.0) == 100.0
        assert hook.wallclock(101.0) == pytest.approx(151.0)
        assert hook.progress(125.0) == pytest.approx(100.0)
        assert hook.progress(160.0) == pytest.approx(110.0)

    def test_slowdown_stretches_time(self) -> None:
        hook = FaultHook.from_events([_slowdown(100.0, 60.0, 2.0)])
        # 60 wall-clock seconds at rate 1/2 yield 30 units of progress.
        assert hook.progress(160.0) == pytest.approx(130.0)
        assert hook.wallclock(130.0) == pytest.approx(160.0)
        assert hook.wallclock(140.0) == pytest.approx(170.0)

    def test_warp_roundtrip_is_monotone(self) -> None:
        hook = FaultHook.from_events(
            [_outage(50.0, 25.0), _slowdown(100.0, 40.0, 4.0)]
        )
        points = [0.0, 10.0, 49.9, 50.0, 60.0, 99.0, 105.0, 200.0]
        walls = [hook.wallclock(p) for p in points]
        assert walls == sorted(walls)
        for p, w in zip(points, walls):
            assert hook.progress(w) == pytest.approx(p)

    def test_overlap_takes_slowest_rate(self) -> None:
        # Outage inside a slowdown: the stopped interval wins.
        hook = FaultHook.from_events(
            [_slowdown(0.0, 100.0, 2.0), _outage(40.0, 20.0)]
        )
        rates = [(w.start, w.end, w.rate) for w in hook.windows]
        assert (40.0, 60.0, 0.0) in rates

    def test_crash_truncates_windows(self) -> None:
        hook = FaultHook.from_events(
            [
                _outage(10.0, 5.0),
                FaultEvent(FaultKind.CRASH, "c", 20.0),
                _outage(30.0, 5.0),  # unreachable
            ]
        )
        assert hook.crash_at == 20.0
        assert all(w.end <= 20.0 for w in hook.windows)
        assert hook.crash_progress() == pytest.approx(15.0)


class TestEngineIntegration:
    def test_noop_hook_is_bit_for_bit_fault_free(self) -> None:
        timing = _flat()
        grouping = Grouping((4, 4), 0, 8)
        spec = EnsembleSpec(3, 4)
        plain = simulate(grouping, spec, timing)
        result, outcome = simulate_with_faults(grouping, spec, timing, FaultHook())
        assert result == plain
        assert outcome == FaultOutcome(
            cluster_name="cluster",
            crash_at=None,
            completed_months={0: 4, 1: 4, 2: 4},
            pending_posts={0: 0, 1: 0, 2: 0},
            months_lost=0,
            lost_work_seconds=0.0,
            makespan=plain.makespan,
        )

    def test_noop_hook_on_a_memoized_key_runs_no_engine(self, monkeypatch) -> None:
        import repro.simulation.engine as engine
        from repro.core.makespan import (
            cached_simulated_makespans,
            clear_makespan_cache,
        )

        timing = _flat(tg=97.0, tp=13.0)
        grouping = Grouping((5, 4), 1, 10)
        spec = EnsembleSpec(3, 5)
        clear_makespan_cache()
        before = simulate_with_faults(
            grouping, spec, timing, FaultHook(), cluster_name="c"
        )
        assert before[0] == simulate(grouping, spec, timing, cluster_name="c")
        cached_simulated_makespans(grouping, spec, timing)

        def no_engine(*args, **kwargs):
            raise AssertionError("the engine ran on a memoized key")

        monkeypatch.setattr(engine, "simulate", no_engine)
        monkeypatch.setattr(engine, "_run_main_phase_fast", no_engine)
        assert simulate_with_faults(
            grouping, spec, timing, FaultHook(), cluster_name="c"
        ) == before

    def test_outage_delays_the_makespan_exactly(self) -> None:
        timing = _flat()
        grouping = Grouping((4,), 0, 4)
        spec = EnsembleSpec(1, 3)
        plain = simulate(grouping, spec, timing)
        hook = FaultHook.from_events([_outage(150.0, 60.0)])
        warped, _outcome = simulate_with_faults(grouping, spec, timing, hook)
        assert warped.makespan == pytest.approx(plain.makespan + 60.0)

    def test_apply_requires_records(self) -> None:
        result = simulate(
            Grouping((4,), 0, 4), EnsembleSpec(1, 2), _flat(),
            record_trace=False,
        )
        hook = FaultHook.from_events([_outage(10.0, 5.0)])
        with pytest.raises(SimulationError):
            warp_records(hook, result)


class TestCrashOutcome:
    def test_crash_splits_safe_and_lost_months(self) -> None:
        # One group, 3 months of 100 s each: a crash at 250 s leaves
        # months 0-1 safe and destroys the in-flight month 2.
        timing = _flat()
        grouping = Grouping((4,), 0, 4)
        spec = EnsembleSpec(1, 3)
        hook = FaultHook.from_events([FaultEvent(FaultKind.CRASH, "c", 250.0)])
        warped, outcome = simulate_with_faults(grouping, spec, timing, hook)
        assert outcome.crashed
        assert outcome.completed_months == {0: 2}
        assert outcome.months_lost == 1
        assert outcome.lost_work_seconds == pytest.approx(50.0 * 4)
        assert warped.makespan <= 250.0
        traced = simulate(grouping, spec, timing, record_trace=True)
        applied, applied_outcome = warp_records(hook, traced)
        assert applied_outcome == outcome
        assert all(r.end <= 250.0 for r in applied.records)

    def test_crash_at_zero_loses_everything(self) -> None:
        spec = EnsembleSpec(2, 3)
        hook = FaultHook.from_events([FaultEvent(FaultKind.CRASH, "c", 0.0)])
        warped, outcome = simulate_with_faults(
            Grouping((4, 4), 0, 8), spec, _flat(), hook
        )
        assert outcome.completed_months == {0: 0, 1: 0}
        assert outcome.months_lost == spec.scenarios * spec.months
        assert warped.makespan == 0.0

    def test_no_fault_outcome_reports_completion(self) -> None:
        spec = EnsembleSpec(2, 3)
        result, outcome = simulate_with_faults(
            Grouping((4, 4), 0, 8), spec, _flat(), FaultTrace(),
        )
        assert not outcome.crashed
        assert outcome.completed_months == {0: 3, 1: 3}
        assert outcome.pending_posts == {0: 0, 1: 0}
        assert outcome.makespan == result.makespan

    def test_trace_compiles_against_cluster_name(self) -> None:
        trace = FaultTrace.of(
            [FaultEvent(FaultKind.CRASH, "other", 100.0)]
        )
        # Events for a different cluster never touch this schedule.
        result, outcome = simulate_with_faults(
            Grouping((4,), 0, 4), EnsembleSpec(1, 2), _flat(), trace,
            cluster_name="mine",
        )
        assert not outcome.crashed
        assert result.makespan > 0
