"""Edge-case tests for the engines beyond the main suites."""

from __future__ import annotations

import pytest

from repro.core.grouping import Grouping
from repro.exceptions import SimulationError
from repro.platform.timing import AmdahlTimingModel, TableTimingModel
from repro.simulation.engine import simulate
from repro.simulation.online import simulate_online
from repro.simulation.validate import validate_schedule
from repro.workflow.ocean_atmosphere import EnsembleSpec


def _flat(tg: float = 100.0, tp: float = 10.0) -> TableTimingModel:
    return TableTimingModel({g: tg for g in range(4, 12)}, post_seconds=tp)


class TestIdleProcessors:
    def test_declared_idle_procs_stay_idle(self) -> None:
        # Grouping covers 4 + 1 of 8 processors; 3 are idle by fiat.
        timing = _flat()
        grouping = Grouping((4,), 1, 8)
        assert grouping.idle_resources == 3
        result = simulate(grouping, EnsembleSpec(1, 4), timing, record_trace=True)
        validate_schedule(result, timing)
        used = {p for rec in result.records for p in rec.procs}
        assert used <= set(range(5))

    def test_idle_procs_do_not_change_makespan(self) -> None:
        timing = _flat()
        small = simulate(Grouping((4,), 1, 5), EnsembleSpec(1, 4), timing)
        padded = simulate(Grouping((4,), 1, 50), EnsembleSpec(1, 4), timing)
        assert small.makespan == pytest.approx(padded.makespan)


class TestSingleMonth:
    def test_one_month_one_scenario(self) -> None:
        timing = _flat(100.0, 10.0)
        result = simulate(Grouping((4,), 1, 5), EnsembleSpec(1, 1), timing)
        assert result.main_makespan == pytest.approx(100.0)
        assert result.makespan == pytest.approx(110.0)

    def test_many_scenarios_one_month(self) -> None:
        # Pure bag-of-tasks: 6 scenarios, 1 month, 2 groups -> 3 waves.
        timing = _flat(100.0, 10.0)
        result = simulate(
            Grouping((4, 4), 1, 9), EnsembleSpec(6, 1), timing
        )
        assert result.main_makespan == pytest.approx(300.0)


class TestPostsLongerThanMains:
    def test_pathological_ratio_still_valid(self) -> None:
        # TP > TG: the backlog never drains during the run.
        timing = TableTimingModel(
            {g: 50.0 for g in range(4, 12)}, post_seconds=200.0
        )
        grouping = Grouping((4, 4), 1, 9)
        spec = EnsembleSpec(4, 3)
        result = simulate(grouping, spec, timing, record_trace=True)
        validate_schedule(result, timing)
        # 12 posts x 200 s on 9 processors after ~300 s of mains.
        assert result.makespan > result.main_makespan + 200.0

    def test_online_engine_same_pathology(self) -> None:
        timing = TableTimingModel(
            {g: 50.0 for g in range(4, 12)}, post_seconds=200.0
        )
        result = simulate_online(EnsembleSpec(4, 3), timing, 9)
        assert result.makespan > result.main_makespan


class TestNarrowMoldability:
    def test_single_width_range(self) -> None:
        # A degenerate moldability window: only width 6 exists.
        timing = TableTimingModel({6: 120.0}, post_seconds=30.0)
        grouping = Grouping((6, 6), 0, 12)
        result = simulate(grouping, EnsembleSpec(2, 5), timing, record_trace=True)
        validate_schedule(result, timing)
        assert result.main_makespan == pytest.approx(5 * 120.0)

    def test_amdahl_custom_components(self) -> None:
        # 1 sequential component, atmosphere capped at 3: widths 2..4.
        timing = AmdahlTimingModel(
            10.0, 90.0, pre_seconds=0.0, post_seconds=5.0,
            sequential_components=1, max_parallel=3,
        )
        assert timing.group_sizes == (2, 3, 4)
        grouping = Grouping((4, 2), 1, 7)
        result = simulate(grouping, EnsembleSpec(2, 3), timing, record_trace=True)
        validate_schedule(result, timing)


class TestChains:
    """``simulate(..., chains=...)``: one month count per scenario."""

    def test_wrong_length_rejected(self) -> None:
        with pytest.raises(SimulationError, match="3 scenarios"):
            simulate(Grouping((4,), 1, 5), EnsembleSpec(3, 4), _flat(), chains=(4, 4))

    @pytest.mark.parametrize("chains", [(0, 4, 4), (4, 5, 4), (4, -1, 4)])
    def test_entry_outside_one_to_months_rejected(self, chains) -> None:
        with pytest.raises(SimulationError, match=r"1\.\.4 months"):
            simulate(Grouping((4,), 1, 5), EnsembleSpec(3, 4), _flat(), chains=chains)

    def test_full_chains_equal_the_rectangular_run(self) -> None:
        grouping, spec = Grouping((4, 5), 1, 10), EnsembleSpec(3, 4)
        for traced in (False, True):
            assert simulate(
                grouping, spec, _flat(), record_trace=traced, chains=(4, 4, 4)
            ) == simulate(grouping, spec, _flat(), record_trace=traced)

    def test_each_scenario_runs_its_own_months(self) -> None:
        chains = (1, 4, 2)
        result = simulate(
            Grouping((4, 5), 1, 10), EnsembleSpec(3, 4), _flat(),
            chains=chains, record_trace=True,
        )
        for kind in ("main", "post"):
            runs = [
                sorted(r.month for r in result.records if r.kind == kind and r.scenario == s)
                for s in range(3)
            ]
            assert runs == [list(range(n)) for n in chains]
