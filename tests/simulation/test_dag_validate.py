"""Tests for the DAG oracle's schedule validator."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.grouping import Grouping
from repro.exceptions import ValidationError
from repro.platform.timing import TableTimingModel
from repro.workflow.ocean_atmosphere import EnsembleSpec, fused_ensemble_dag
from tests.simulation.dag_oracle import simulate_dag, validate_dag_schedule


@pytest.fixture
def setup():
    timing = TableTimingModel(
        {g: 100.0 for g in range(4, 12)}, post_seconds=180.0
    )
    dag = fused_ensemble_dag(EnsembleSpec(3, 4))
    grouping = Grouping((4, 4), 1, 9)
    result = simulate_dag(dag, grouping, timing, record_trace=True)
    return result, dag, timing


def _tamper(result, index, **changes):
    records = list(result.records)
    records[index] = replace(records[index], **changes)
    return replace(result, records=tuple(records))


class TestAccepts:
    def test_good_schedule(self, setup) -> None:
        result, dag, timing = setup
        validate_dag_schedule(result, dag, timing)

    def test_untraced_rejected(self, setup) -> None:
        result, dag, timing = setup
        with pytest.raises(ValidationError):
            validate_dag_schedule(replace(result, records=()), dag, timing)


class TestCatches:
    def test_unknown_task(self, setup) -> None:
        result, dag, timing = setup
        bad = _tamper(result, 0, task_id="ghost")
        with pytest.raises(ValidationError):
            validate_dag_schedule(bad, dag, timing)

    def test_missing_task(self, setup) -> None:
        result, dag, timing = setup
        bad = replace(result, records=result.records[1:])
        with pytest.raises(ValidationError) as exc:
            validate_dag_schedule(bad, dag, timing)
        assert "never scheduled" in str(exc.value)

    def test_duplicate_task(self, setup) -> None:
        result, dag, timing = setup
        bad = _tamper(result, 1, task_id=result.records[0].task_id)
        with pytest.raises(ValidationError):
            validate_dag_schedule(bad, dag, timing)

    def test_dependency_violation(self, setup) -> None:
        result, dag, timing = setup
        # Find a seq record and move it before its producer.
        idx = next(
            i for i, r in enumerate(result.records) if r.kind == "seq"
        )
        rec = result.records[idx]
        bad = _tamper(result, idx, start=0.0, end=rec.duration)
        with pytest.raises(ValidationError):
            validate_dag_schedule(bad, dag, timing)

    def test_wrong_main_duration(self, setup) -> None:
        result, dag, timing = setup
        idx = next(
            i for i, r in enumerate(result.records) if r.kind == "main"
        )
        rec = result.records[idx]
        bad = _tamper(result, idx, end=rec.start + 1.0)
        with pytest.raises(ValidationError):
            validate_dag_schedule(bad, dag, timing)

    def test_wrong_seq_scale(self, setup) -> None:
        result, dag, timing = setup
        with pytest.raises(ValidationError):
            validate_dag_schedule(result, dag, timing, seq_scale=2.0)

    def test_misreported_makespan(self, setup) -> None:
        result, dag, timing = setup
        bad = replace(result, makespan=result.makespan + 1.0)
        with pytest.raises(ValidationError):
            validate_dag_schedule(bad, dag, timing)

    def test_double_booked_processor(self, setup) -> None:
        result, dag, timing = setup
        seqs = [i for i, r in enumerate(result.records) if r.kind == "seq"]
        a, b = seqs[0], seqs[1]
        ra = result.records[a]
        bad = _tamper(
            result, b,
            start=ra.start, end=ra.end,
            procs_start=ra.procs_start, procs_stop=ra.procs_stop,
        )
        with pytest.raises(ValidationError):
            validate_dag_schedule(bad, dag, timing)


class TestMalformedInputs:
    """Error paths ahead of the validator: bad edges, durations, groups."""

    def _dag_with(self, *tasks):
        from repro.workflow.dag import DAG

        dag = DAG()
        for task in tasks:
            dag.add_task(task)
        return dag

    def _task(self, name, month=0, seconds=60.0):
        from repro.workflow.task import Task, TaskKind

        return Task(name, TaskKind.PRE, 0, month, seconds)

    def test_edge_to_unknown_producer_rejected(self) -> None:
        from repro.exceptions import WorkflowError

        dag = self._dag_with(self._task("caif"))
        with pytest.raises(WorkflowError, match="unknown producer"):
            dag.add_edge("ghost[s0,m0]", "caif[s0,m0]")

    def test_edge_to_unknown_consumer_rejected(self) -> None:
        from repro.exceptions import WorkflowError

        dag = self._dag_with(self._task("caif"))
        with pytest.raises(WorkflowError, match="unknown consumer"):
            dag.add_edge("caif[s0,m0]", "ghost[s0,m0]")

    def test_self_dependency_rejected(self) -> None:
        from repro.exceptions import WorkflowError

        dag = self._dag_with(self._task("caif"))
        with pytest.raises(WorkflowError, match="self-dependency"):
            dag.add_edge("caif[s0,m0]", "caif[s0,m0]")

    def test_cycle_detected(self) -> None:
        from repro.exceptions import WorkflowError

        dag = self._dag_with(self._task("caif"), self._task("mp"))
        dag.add_edge("caif[s0,m0]", "mp[s0,m0]")
        dag.add_edge("mp[s0,m0]", "caif[s0,m0]")
        with pytest.raises(WorkflowError, match="cycle"):
            dag.topological_order()

    def test_negative_nominal_duration_rejected_at_construction(self) -> None:
        from repro.exceptions import WorkflowError

        with pytest.raises(WorkflowError, match="nominal_seconds"):
            self._task("caif", seconds=-1.0)

    def test_negative_duration_from_callable_rejected(self) -> None:
        from repro.exceptions import WorkflowError

        dag = self._dag_with(self._task("caif"))
        with pytest.raises(WorkflowError, match="negative duration"):
            dag.critical_path(duration=lambda task: -5.0)

    def test_validator_flags_negative_record_duration(self, setup) -> None:
        result, dag, timing = setup
        idx = next(
            i for i, r in enumerate(result.records) if r.kind == "seq"
        )
        rec = result.records[idx]
        bad = _tamper(result, idx, end=rec.start - 1.0)
        with pytest.raises(ValidationError, match="duration"):
            validate_dag_schedule(bad, dag, timing)

    def test_empty_grouping_rejected(self) -> None:
        from repro.exceptions import SchedulingError

        with pytest.raises(SchedulingError, match="at least one"):
            Grouping((), 1, 9)

    def test_zero_size_group_rejected(self) -> None:
        from repro.exceptions import SchedulingError

        with pytest.raises(SchedulingError, match="positive ints"):
            Grouping((4, 0), 1, 9)

    def test_more_groups_than_chains_rejected(self) -> None:
        from repro.exceptions import SimulationError
        from repro.workflow.ocean_atmosphere import fused_ensemble_dag

        timing = TableTimingModel(
            {g: 100.0 for g in range(4, 12)}, post_seconds=180.0
        )
        dag = fused_ensemble_dag(EnsembleSpec(1, 2))
        grouping = Grouping((4, 4), 0, 8)
        with pytest.raises(SimulationError, match="at most one group"):
            simulate_dag(dag, grouping, timing)
