"""Unit tests for the DAG-level oracle simulator."""

from __future__ import annotations

import pytest

from repro.core.grouping import Grouping
from repro.exceptions import SimulationError
from repro.platform.timing import TableTimingModel
from repro.simulation.engine import simulate
from repro.workflow.dag import DAG
from repro.workflow.ocean_atmosphere import (
    EnsembleSpec,
    fused_ensemble_dag,
    fused_scenario_dag,
    scenario_dag,
)
from repro.workflow.task import Task, TaskKind, task_id
from tests.simulation.dag_oracle import simulate_dag


def _flat(tg: float = 100.0, tp: float = 180.0) -> TableTimingModel:
    return TableTimingModel({g: tg for g in range(4, 12)}, post_seconds=tp)


class TestCrossValidation:
    """The DAG oracle must agree with the rectangular engine exactly."""

    @pytest.mark.parametrize(
        "ns,nm,sizes,post",
        [
            (1, 5, (4,), 0),
            (3, 4, (4, 4), 1),
            (5, 6, (11, 8, 5), 2),
            (10, 12, (11, 10, 10, 7, 4), 3),
        ],
    )
    def test_matches_rectangular_engine(self, ns, nm, sizes, post) -> None:
        timing = TableTimingModel(
            {4: 500.0, 5: 420.0, 6: 380.0, 7: 350.0, 8: 330.0, 9: 315.0,
             10: 305.0, 11: 300.0},
            post_seconds=180.0,
        )
        spec = EnsembleSpec(ns, nm)
        total = sum(sizes) + post
        grouping = Grouping(tuple(sizes), post, total)
        rect = simulate(grouping, spec, timing)
        dag = fused_ensemble_dag(spec)
        # Fused posts carry nominal 180 s == timing.post_time().
        via_dag = simulate_dag(dag, grouping, timing)
        assert via_dag.makespan == pytest.approx(rect.makespan)
        assert via_dag.main_makespan == pytest.approx(rect.main_makespan)


class TestGeneralizations:
    def test_unequal_chain_lengths(self) -> None:
        # Scenario 0 has 4 months, scenario 1 has 1: impossible for the
        # rectangular engine, natural here.
        dag = DAG()
        dag.merge(fused_scenario_dag(4, scenario=0))
        dag.merge(fused_scenario_dag(1, scenario=1))
        grouping = Grouping((4, 4), 1, 9)
        result = simulate_dag(dag, grouping, _flat(), record_trace=True)
        # Main span driven by the long chain: 4 x 100.
        assert result.main_makespan == pytest.approx(400.0)
        # 5 mains + 5 posts recorded.
        assert len(result.records) == 10

    def test_post_chains_are_respected(self) -> None:
        # A month with a 3-stage analysis chain post -> emi -> cd.
        dag = DAG()
        main = Task("main", TaskKind.MAIN, 0, 0, 100.0, moldable=True)
        a = Task("a", TaskKind.POST, 0, 0, 10.0)
        b = Task("b", TaskKind.POST, 0, 0, 20.0)
        c = Task("c", TaskKind.POST, 0, 0, 30.0)
        for t in (main, a, b, c):
            dag.add_task(t)
        dag.add_edge(main.id, a.id)
        dag.add_edge(a.id, b.id)
        dag.add_edge(b.id, c.id)
        grouping = Grouping((4,), 2, 6)
        result = simulate_dag(dag, grouping, _flat(), record_trace=True)
        ra = result.record_for(a.id)
        rb = result.record_for(b.id)
        rc = result.record_for(c.id)
        assert ra.start >= 100.0
        assert rb.start >= ra.end
        assert rc.start >= rb.end
        assert result.makespan == pytest.approx(100.0 + 10.0 + 20.0 + 30.0)

    def test_seq_scale(self) -> None:
        dag = fused_scenario_dag(1)
        grouping = Grouping((4,), 1, 5)
        doubled = simulate_dag(dag, grouping, _flat(tg=100.0), seq_scale=2.0)
        # main 100 + post 180*2.
        assert doubled.makespan == pytest.approx(100.0 + 360.0)

    def test_fine_grained_post_tail_via_fusionless_posts(self) -> None:
        # Fine-grained POST chain (cof->emi->cd) is legal without fusion;
        # only PRE-gating-MAIN is rejected.  Build mains + post chains by
        # hand at fine granularity.
        dag = DAG()
        for m in range(2):
            dag.add_task(Task("pcr", TaskKind.MAIN, 0, m, 1260.0, moldable=True))
            for name, sec in (("cof", 60.0), ("emi", 60.0), ("cd", 60.0)):
                dag.add_task(Task(name, TaskKind.POST, 0, m, sec))
            dag.add_edge(task_id("pcr", 0, m), task_id("cof", 0, m))
            dag.add_edge(task_id("cof", 0, m), task_id("emi", 0, m))
            dag.add_edge(task_id("emi", 0, m), task_id("cd", 0, m))
        dag.add_edge(task_id("pcr", 0, 0), task_id("pcr", 0, 1))
        grouping = Grouping((4,), 1, 5)
        result = simulate_dag(dag, grouping, _flat(tg=1000.0))
        assert result.main_makespan == pytest.approx(2000.0)
        assert result.makespan == pytest.approx(2000.0 + 180.0)

    def test_empty_dag(self) -> None:
        result = simulate_dag(DAG(), Grouping((4,), 0, 4), _flat())
        assert result.makespan == 0.0


class TestValidation:
    def test_rejects_pre_gating_main(self) -> None:
        # The fine-grained Figure 1 DAG has caif/mp gating pcr.
        dag = scenario_dag(2)
        grouping = Grouping((4,), 2, 6)
        with pytest.raises(SimulationError) as exc:
            simulate_dag(dag, grouping, _flat())
        assert "fuse" in str(exc.value)

    def test_rejects_branching_main_chain(self) -> None:
        dag = DAG()
        a = Task("main", TaskKind.MAIN, 0, 0, 100.0, moldable=True)
        b = Task("main", TaskKind.MAIN, 0, 1, 100.0, moldable=True)
        c = Task("main", TaskKind.MAIN, 0, 2, 100.0, moldable=True)
        for t in (a, b, c):
            dag.add_task(t)
        dag.add_edge(a.id, b.id)
        dag.add_edge(a.id, c.id)  # branch!
        with pytest.raises(SimulationError) as exc:
            simulate_dag(dag, Grouping((4,), 0, 4), _flat())
        assert "MAIN successors" in str(exc.value)

    def test_rejects_merging_main_chains(self) -> None:
        dag = DAG()
        a = Task("main", TaskKind.MAIN, 0, 0, 100.0, moldable=True)
        b = Task("main", TaskKind.MAIN, 0, 1, 100.0, moldable=True)
        c = Task("main", TaskKind.MAIN, 0, 2, 100.0, moldable=True)
        for t in (a, b, c):
            dag.add_task(t)
        dag.add_edge(a.id, c.id)
        dag.add_edge(b.id, c.id)  # merge!
        with pytest.raises(SimulationError) as exc:
            simulate_dag(dag, Grouping((4,), 0, 4), _flat())
        assert "MAIN predecessors" in str(exc.value)

    def test_rejects_cross_scenario_chain(self) -> None:
        dag = DAG()
        a = Task("main", TaskKind.MAIN, 0, 0, 100.0, moldable=True)
        b = Task("main", TaskKind.MAIN, 1, 0, 100.0, moldable=True)
        dag.add_task(a)
        dag.add_task(b)
        dag.add_edge(a.id, b.id)
        with pytest.raises(SimulationError) as exc:
            simulate_dag(dag, Grouping((4,), 0, 4), _flat())
        assert "crosses scenarios" in str(exc.value)

    def test_rejects_more_groups_than_chains(self) -> None:
        dag = fused_scenario_dag(3)
        with pytest.raises(SimulationError):
            simulate_dag(dag, Grouping((4, 4), 0, 8), _flat())

    def test_rejects_negative_seq_scale(self) -> None:
        dag = fused_scenario_dag(1)
        with pytest.raises(SimulationError):
            simulate_dag(dag, Grouping((4,), 1, 5), _flat(), seq_scale=-1.0)

    def test_record_for_unknown_task(self) -> None:
        dag = fused_scenario_dag(1)
        result = simulate_dag(dag, Grouping((4,), 1, 5), _flat(), record_trace=True)
        with pytest.raises(SimulationError):
            result.record_for("ghost")
