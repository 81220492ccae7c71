"""An independent DAG-level simulator: the oracle for unequal chains.

:func:`simulate_dag` schedules *any* fused-style Ocean-Atmosphere
workflow — a :class:`~repro.workflow.dag.DAG` whose MAIN tasks form
disjoint per-scenario chains and whose sequential tasks are pure
consumers (analysis/compression: nothing moldable depends on them) —
under a :class:`~repro.core.grouping.Grouping`, with the same policy as
the rectangular engine of :mod:`repro.simulation.engine`:

* a ready MAIN task's priority is its chain progress (fewest MAIN
  ancestors first — "the month of the less advanced simulation"), ties
  broken by readiness time then scenario id;
* the least-advanced ready main goes to the fastest free group;
* sequential tasks run on single processors: the dedicated post pool
  from time 0, plus each group's processors once the group has started
  its last main task (permanent retirement).

It shares no code with :mod:`repro.simulation.engine`: it walks task
ids and dependency edges where the engine counts months.  That makes it
the reference the engine's ``chains=`` path is checked against — on
merged :func:`~repro.workflow.ocean_atmosphere.fused_scenario_dag`
chains of unequal lengths both give the same makespans, and on a
rectangular fused ensemble it reproduces the rectangular engine
exactly.  It also takes what the engine never needed: any number of
sequential satellite tasks per month (with dependencies among them) and
per-task sequential durations taken from the DAG rather than one
``TP``.  :func:`validate_dag_schedule` checks its schedules against the
workflow definition.

Input contract (checked eagerly, violations raise
:class:`~repro.exceptions.SimulationError`):

* every MAIN task has at most one MAIN predecessor and at most one MAIN
  successor, and chains never cross scenarios;
* no sequential task has a MAIN descendant (pre-processing tasks gate
  the coupled run — fuse them first, exactly as the paper does; see
  :func:`repro.workflow.fusion.fuse_ocean_atmosphere`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.core.grouping import Grouping
from repro.exceptions import SimulationError, ValidationError
from repro.platform.timing import TimingModel
from repro.simulation.groups import post_pool_range, proc_ranges
from repro.workflow.dag import DAG
from repro.workflow.task import Task, TaskKind

__all__ = [
    "DagTaskRecord",
    "DagSimulationResult",
    "simulate_dag",
    "validate_dag_schedule",
]


@dataclass(frozen=True)
class DagTaskRecord:
    """One executed DAG task occurrence."""

    task_id: str
    kind: str  # "main" | "seq"
    start: float
    end: float
    group: int  # group index for mains, -1 for sequential tasks
    procs_start: int
    procs_stop: int

    @property
    def duration(self) -> float:
        """Wall-clock seconds."""
        return self.end - self.start


@dataclass(frozen=True)
class DagSimulationResult:
    """Outcome of one DAG-level simulation."""

    makespan: float
    main_makespan: float
    grouping: Grouping
    records: tuple[DagTaskRecord, ...] = field(default=(), repr=False)

    @property
    def has_trace(self) -> bool:
        """Whether per-task records were collected."""
        return bool(self.records)

    def record_for(self, task_id: str) -> DagTaskRecord:
        """The record of one task; raises if absent or untraced."""
        for record in self.records:
            if record.task_id == task_id:
                return record
        raise SimulationError(f"no record for task {task_id!r}")


def _analyze(dag: DAG) -> tuple[dict[str, int], list[str]]:
    """Validate the chain structure; return (main depth map, topo order).

    ``depth[tid]`` counts MAIN ancestors of a MAIN task — its chain
    progress index, the scheduling priority.
    """
    order = dag.topological_order()
    depth: dict[str, int] = {}
    main_preds: dict[str, int] = {}
    main_succs: dict[str, int] = {}
    gates_main: dict[str, bool] = {}

    for tid in reversed(order):
        task = dag.task(tid)
        gated = task.kind is TaskKind.MAIN
        for succ in dag.successors(tid):
            if gates_main.get(succ, False):
                gated = True
        gates_main[tid] = gated

    for tid in order:
        task = dag.task(tid)
        if task.kind is TaskKind.MAIN:
            mains_before = [
                p for p in dag.predecessors(tid)
                if dag.task(p).kind is TaskKind.MAIN
            ]
            if len(mains_before) > 1:
                raise SimulationError(
                    f"MAIN task {tid!r} has {len(mains_before)} MAIN "
                    f"predecessors; chains must be linear"
                )
            for p in mains_before:
                if dag.task(p).scenario != task.scenario:
                    raise SimulationError(
                        f"MAIN chain crosses scenarios on edge "
                        f"{p!r} -> {tid!r}"
                    )
            main_preds[tid] = len(mains_before)
            depth[tid] = depth[mains_before[0]] + 1 if mains_before else 0
            seq_gating = [
                p for p in dag.predecessors(tid)
                if dag.task(p).kind is not TaskKind.MAIN
            ]
            if seq_gating:
                raise SimulationError(
                    f"MAIN task {tid!r} is gated by sequential task(s) "
                    f"{seq_gating[:3]}; fuse pre-processing into the main "
                    f"task first (repro.workflow.fusion)"
                )
        else:
            # For a sequential task, gates_main means some descendant is
            # MAIN — i.e. it is pre-processing that would deadlock on an
            # empty pool.  The paper's answer is fusion; so is ours.
            if gates_main[tid]:
                raise SimulationError(
                    f"sequential task {tid!r} has a MAIN descendant; "
                    f"fuse pre-processing into the main task first"
                )

    for tid in order:
        task = dag.task(tid)
        if task.kind is not TaskKind.MAIN:
            continue
        succs = [
            s for s in dag.successors(tid)
            if dag.task(s).kind is TaskKind.MAIN
        ]
        if len(succs) > 1:
            raise SimulationError(
                f"MAIN task {tid!r} has {len(succs)} MAIN successors; "
                f"chains must be linear"
            )
        main_succs[tid] = len(succs)
    return depth, order


def simulate_dag(
    dag: DAG,
    grouping: Grouping,
    timing: TimingModel,
    *,
    seq_scale: float = 1.0,
    record_trace: bool = False,
) -> DagSimulationResult:
    """Simulate a fused-style workflow DAG under a processor grouping.

    ``seq_scale`` multiplies every sequential task's ``nominal_seconds``
    (use ``timing.post_time() / constants.POST_SECONDS`` to put the
    satellites on the same machine-speed scale as the mains).
    """
    if seq_scale < 0:
        raise SimulationError(f"seq_scale must be >= 0, got {seq_scale!r}")
    if len(dag) == 0:
        return DagSimulationResult(0.0, 0.0, grouping)
    for g in grouping.group_sizes:
        timing.validate_group(g)

    depth, order = _analyze(dag)
    scenarios = {t.scenario for t in dag.tasks()}
    if grouping.n_groups > len(scenarios):
        raise SimulationError(
            f"{grouping.n_groups} groups for {len(scenarios)} scenario "
            f"chain(s) — at most one group per chain can be busy"
        )

    group_times = [timing.main_time(g) for g in grouping.group_sizes]
    ranges = proc_ranges(grouping)

    # --- main phase: schedule MAIN chains on groups -----------------------
    mains = [tid for tid in order if dag.task(tid).kind is TaskKind.MAIN]
    unstarted = len(mains)
    pending_main_pred: dict[str, int] = {}
    for tid in mains:
        pending_main_pred[tid] = sum(
            1 for p in dag.predecessors(tid)
            if dag.task(p).kind is TaskKind.MAIN
        )
    # ready mains per scenario (at most one at a time since chains are linear)
    ready: dict[str, float] = {
        tid: 0.0 for tid in mains if pending_main_pred[tid] == 0
    }
    finish_times: dict[str, float] = {}
    running: list[tuple[float, int, str]] = []  # (end, group, task)
    idle_groups = list(range(len(group_times)))
    group_last_end = [0.0] * len(group_times)
    records: list[DagTaskRecord] = []
    main_makespan = 0.0

    def match(now: float, free: list[int]) -> None:
        nonlocal unstarted
        free = sorted(free, key=lambda g: (group_times[g], g))
        while free and ready and unstarted > 0:
            tid = min(
                ready,
                key=lambda t: (depth[t], ready[t], dag.task(t).scenario, t),
            )
            group = free.pop(0)
            end = now + group_times[group]
            heapq.heappush(running, (end, group, tid))
            del ready[tid]
            unstarted -= 1
            if record_trace:
                records.append(
                    DagTaskRecord(
                        tid, "main", now, end, group,
                        ranges[group].start, ranges[group].stop,
                    )
                )
        idle_groups.extend(free)

    initial, idle_groups[:] = idle_groups[:], []
    match(0.0, initial)

    while running:
        now, group, tid = heapq.heappop(running)
        finish_times[tid] = now
        group_last_end[group] = now
        if now > main_makespan:
            main_makespan = now
        for succ in dag.successors(tid):
            if dag.task(succ).kind is TaskKind.MAIN:
                pending_main_pred[succ] -= 1
                if pending_main_pred[succ] == 0:
                    ready[succ] = now
        free, idle_groups[:] = [*idle_groups, group], []
        match(now, free)

    if unstarted:
        raise SimulationError(
            f"{unstarted} MAIN task(s) never became ready — broken chain "
            f"structure slipped past validation"
        )

    # --- sequential phase: satellites on the pool --------------------------
    seq_tasks = [tid for tid in order if dag.task(tid).kind is not TaskKind.MAIN]
    makespan = main_makespan
    if seq_tasks:
        pool: list[tuple[float, int]] = [
            (0.0, proc) for proc in post_pool_range(grouping)
        ]
        for group, rng in enumerate(ranges):
            for proc in rng:
                pool.append((group_last_end[group], proc))
        heapq.heapify(pool)
        if not pool:
            raise SimulationError(
                "no processor ever becomes available for sequential tasks"
            )
        # Process in dependency-ready order: repeatedly take the ready
        # sequential task with the earliest readiness.
        pending: dict[str, int] = {}
        ready_seq: list[tuple[float, str]] = []
        for tid in seq_tasks:
            preds = dag.predecessors(tid)
            unmet = sum(1 for p in preds if p not in finish_times)
            pending[tid] = unmet
            if unmet == 0:
                release = max(
                    (finish_times[p] for p in preds), default=0.0
                )
                heapq.heappush(ready_seq, (release, tid))
        done = 0
        while ready_seq:
            release, tid = heapq.heappop(ready_seq)
            task: Task = dag.task(tid)
            free_at, proc = heapq.heappop(pool)
            start = max(free_at, release)
            end = start + task.nominal_seconds * seq_scale
            heapq.heappush(pool, (end, proc))
            finish_times[tid] = end
            done += 1
            if end > makespan:
                makespan = end
            if record_trace:
                records.append(
                    DagTaskRecord(tid, "seq", start, end, -1, proc, proc + 1)
                )
            for succ in dag.successors(tid):
                pending[succ] -= 1
                if pending[succ] == 0:
                    preds = dag.predecessors(succ)
                    heapq.heappush(
                        ready_seq,
                        (max(finish_times[p] for p in preds), succ),
                    )
        if done != len(seq_tasks):
            raise SimulationError(
                f"{len(seq_tasks) - done} sequential task(s) never became "
                f"ready — cyclic or dangling dependencies"
            )

    return DagSimulationResult(
        makespan=makespan,
        main_makespan=main_makespan,
        grouping=grouping,
        records=tuple(records),
    )


_EPS = 1e-6


def validate_dag_schedule(
    result: DagSimulationResult,
    dag: DAG,
    timing: TimingModel,
    *,
    seq_scale: float = 1.0,
) -> None:
    """Raise :class:`ValidationError` unless the DAG schedule is correct.

    Replays a traced result against the workflow definition:

    1. every DAG task is scheduled exactly once;
    2. every dependency edge is respected (consumer starts no earlier
       than producer ends);
    3. MAIN tasks occupy exactly their group's processor range and last
       exactly ``T[group size]``;
    4. sequential tasks occupy one in-range processor and last exactly
       ``nominal_seconds × seq_scale``;
    5. no processor is double-booked;
    6. the reported makespans equal the trace extents.
    """
    if not result.has_trace:
        raise ValidationError(
            "cannot validate without records; re-simulate with "
            "record_trace=True"
        )
    ranges = proc_ranges(result.grouping)
    seen: dict[str, tuple[float, float]] = {}

    for record in result.records:
        if record.task_id not in dag:
            raise ValidationError(f"record for unknown task {record.task_id!r}")
        if record.task_id in seen:
            raise ValidationError(f"task {record.task_id!r} scheduled twice")
        seen[record.task_id] = (record.start, record.end)
        task = dag.task(record.task_id)
        if task.kind is TaskKind.MAIN:
            if record.kind != "main":
                raise ValidationError(
                    f"MAIN task {record.task_id!r} recorded as {record.kind!r}"
                )
            if not 0 <= record.group < len(ranges):
                raise ValidationError(
                    f"main task {record.task_id!r} on unknown group "
                    f"{record.group}"
                )
            rng = ranges[record.group]
            if (record.procs_start, record.procs_stop) != (rng.start, rng.stop):
                raise ValidationError(
                    f"main task {record.task_id!r} procs "
                    f"{record.procs_start}:{record.procs_stop} != group "
                    f"range {rng.start}:{rng.stop}"
                )
            expected = timing.main_time(len(rng))
            if abs(record.duration - expected) > _EPS:
                raise ValidationError(
                    f"main task {record.task_id!r} duration "
                    f"{record.duration} != T[{len(rng)}] = {expected}"
                )
        else:
            if record.kind != "seq":
                raise ValidationError(
                    f"sequential task {record.task_id!r} recorded as "
                    f"{record.kind!r}"
                )
            if record.procs_stop - record.procs_start != 1:
                raise ValidationError(
                    f"sequential task {record.task_id!r} on more than one "
                    f"processor"
                )
            if not 0 <= record.procs_start < result.grouping.total_resources:
                raise ValidationError(
                    f"sequential task {record.task_id!r} on nonexistent "
                    f"processor {record.procs_start}"
                )
            expected = task.nominal_seconds * seq_scale
            if abs(record.duration - expected) > _EPS:
                raise ValidationError(
                    f"sequential task {record.task_id!r} duration "
                    f"{record.duration} != {expected}"
                )

    missing = [tid for tid in dag.task_ids() if tid not in seen]
    if missing:
        raise ValidationError(
            f"{len(missing)} task(s) never scheduled, e.g. {missing[:5]}"
        )

    for producer in dag.task_ids():
        for consumer in dag.successors(producer):
            if seen[consumer][0] < seen[producer][1] - _EPS:
                raise ValidationError(
                    f"dependency violated: {consumer!r} starts at "
                    f"{seen[consumer][0]} before {producer!r} ends at "
                    f"{seen[producer][1]}"
                )

    per_proc: dict[int, list[tuple[float, float]]] = {}
    for record in result.records:
        for proc in range(record.procs_start, record.procs_stop):
            per_proc.setdefault(proc, []).append((record.start, record.end))
    for proc, intervals in per_proc.items():
        intervals.sort()
        for (_s1, e1), (s2, _e2) in zip(intervals, intervals[1:], strict=False):
            if s2 < e1 - _EPS:
                raise ValidationError(f"processor {proc} double-booked")

    mains = [r for r in result.records if r.kind == "main"]
    actual_main = max((r.end for r in mains), default=0.0)
    actual_total = max((r.end for r in result.records), default=0.0)
    if abs(actual_main - result.main_makespan) > _EPS:
        raise ValidationError(
            f"reported main makespan {result.main_makespan} != trace "
            f"extent {actual_main}"
        )
    if abs(actual_total - result.makespan) > _EPS:
        raise ValidationError(
            f"reported makespan {result.makespan} != trace extent "
            f"{actual_total}"
        )
