"""The set-scan reference engine: the oracle for the engine's heap loops.

:func:`reference_simulate` is :func:`repro.simulation.engine.simulate`
built on :func:`_run_main_phase`, a main phase that keeps the waiting
scenarios in a set and scans it for the least advanced one at every
placement — ``O(NS)`` per event, readable, and sharing no loop with the
engine's makespan-only regimes or its logging loop.  It checks the
input, places posts and publishes metrics as ``simulate`` does (through
the engine's heap post phase and ``_publish_stats``), so its result,
records included, and its registry under ``obs.session()`` must equal
the engine's bit for bit.
"""

from __future__ import annotations

import heapq

from repro import obs
from repro.core.grouping import Grouping
from repro.exceptions import SimulationError
from repro.platform.timing import TimingModel
from repro.simulation.engine import _chain_months, _publish_stats, _run_post_phase
from repro.simulation.events import SimulationResult, TaskRecord
from repro.simulation.groups import proc_ranges
from repro.workflow.ocean_atmosphere import EnsembleSpec


def reference_simulate(
    grouping: Grouping,
    spec: EnsembleSpec,
    timing: TimingModel,
    *,
    cluster_name: str = "cluster",
    record_trace: bool = False,
    enforce_cardinality: bool = True,
    chains: tuple[int, ...] | None = None,
) -> SimulationResult:
    """``simulate`` on the set-scan main phase; same arguments, same result."""
    months = _chain_months(spec, chains)
    if enforce_cardinality:
        grouping.validate_against(timing, spec.scenarios)
    else:
        for g in grouping.group_sizes:
            timing.validate_group(g)

    group_times = [timing.main_time(g) for g in grouping.group_sizes]
    tp = timing.post_time()
    tasks_per_group = [0] * len(group_times) if obs.enabled() else None
    ranges = proc_ranges(grouping)
    main_records, post_ready, group_last_end = _run_main_phase(
        months, group_times, ranges, record_trace, tasks_per_group
    )
    main_makespan = max((end for _, _, _, end in post_ready), default=0.0)
    post_records, post_makespan = _run_post_phase(
        grouping, [entry[:3] for entry in post_ready], group_last_end,
        ranges, tp, record_trace,
    )
    makespan = max(main_makespan, post_makespan)
    if tasks_per_group is not None:
        _publish_stats(
            tasks_per_group, cluster_name, sum(months), group_times,
            group_last_end, makespan, main_makespan,
        )
    return SimulationResult(
        makespan=makespan,
        main_makespan=main_makespan,
        grouping=grouping,
        spec=spec,
        cluster_name=cluster_name,
        records=tuple(main_records + post_records),
    )


def _run_main_phase(
    months: list[int],
    group_times: list[float],
    ranges: list[range],
    record_trace: bool,
    tasks_per_group: list[int] | None = None,
) -> tuple[list[TaskRecord], list[tuple[float, int, int, float]], list[float]]:
    """Schedule every main task; return (records, post-ready list, last ends).

    When ``tasks_per_group`` is a list, each task placed on group ``g``
    adds one to ``tasks_per_group[g]``.  ``post_ready`` entries are ``(ready_time, scenario, month, main_end)``
    tuples emitted in completion order (``ready_time == main_end``; the
    duplication keeps the post phase free of record lookups).
    """
    ns = len(months)
    n_groups = len(group_times)

    months_done = [0] * ns
    wait_since = [0.0] * ns
    waiting: set[int] = set(range(ns))
    unstarted = sum(months)

    # (finish_time, group_index, scenario)
    running: list[tuple[float, int, int]] = []
    idle_groups: list[int] = list(range(n_groups))
    group_last_end = [0.0] * n_groups

    records: list[TaskRecord] = []
    post_ready: list[tuple[float, int, int, float]] = []

    def match(now: float, free: list[int]) -> None:
        """Assign waiting scenarios to free groups; leftovers go idle."""
        nonlocal unstarted
        free = sorted(free, key=lambda g: (group_times[g], g))
        while free and waiting and unstarted > 0:
            scenario = min(
                waiting, key=lambda s: (months_done[s], wait_since[s], s)
            )
            group = free.pop(0)
            month = months_done[scenario]
            end = now + group_times[group]
            heapq.heappush(running, (end, group, scenario))
            waiting.remove(scenario)
            unstarted -= 1
            if tasks_per_group is not None:
                tasks_per_group[group] += 1
            if record_trace:
                records.append(
                    TaskRecord(
                        "main",
                        scenario,
                        month,
                        now,
                        end,
                        group,
                        ranges[group].start,
                        ranges[group].stop,
                    )
                )
        idle_groups.extend(free)

    # Kick-off: all groups free, all scenarios waiting, time 0.
    initial, idle_groups = idle_groups, []
    match(0.0, initial)

    while running:
        now, group, scenario = heapq.heappop(running)
        month = months_done[scenario]
        months_done[scenario] += 1
        group_last_end[group] = now
        post_ready.append((now, scenario, month, now))
        if months_done[scenario] < months[scenario]:
            waiting.add(scenario)
            wait_since[scenario] = now
        free, idle_groups[:] = [*idle_groups, group], []
        match(now, free)

    if unstarted != 0 or waiting:
        raise SimulationError(
            f"main phase ended with {unstarted} unstarted tasks and "
            f"{len(waiting)} waiting scenarios — engine invariant broken"
        )
    return records, post_ready, group_last_end
