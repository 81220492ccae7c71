"""The record warp of a traced run: the oracle for fault replay.

:meth:`repro.faults.hooks.FaultHook.replay` scores a faulted schedule
from one cut of the memoized schedule log.  :func:`warp_records` warps
every record of a traced run (``record_trace=True``) one by one under
the hook's ``wallclock`` and drops what the crash destroyed, sharing no
code with the cut, so the two must return the same warped result and
the same :class:`~repro.faults.hooks.FaultOutcome`, field for field.
``tests/property/test_fault_replay.py`` and
``benchmarks/replay_differential.py`` compare them.
"""

from __future__ import annotations

from dataclasses import replace

from repro.exceptions import SimulationError
from repro.faults.hooks import (
    FaultHook,
    FaultOutcome,
    _completed_outcome,
    _count_injection,
)
from repro.simulation.events import SimulationResult


def warp_records(
    hook: FaultHook, result: SimulationResult, *, keep_records: bool = True
) -> tuple[SimulationResult, FaultOutcome]:
    """Warp a traced :class:`~repro.simulation.events.SimulationResult`.

    Returns ``(warped_result, outcome)``.  The input must carry
    records (``record_trace=True``).  Surviving records get warped
    start/end times; tasks in flight at the crash (and everything
    after) are dropped.  This record-by-record warp is the oracle
    :meth:`~repro.faults.hooks.FaultHook.replay` is checked against.
    """
    if hook.is_noop:
        outcome = _completed_outcome(result)
        if not keep_records:
            result = replace(result, records=())
        return result, outcome
    if not result.records:
        raise SimulationError(
            "fault hooks need a traced simulation (record_trace=True)"
        )
    survivors = []
    lost_work = 0.0
    completed: dict[int, int] = {
        s: 0 for s in range(result.spec.scenarios)
    }
    finished_posts: dict[int, int] = {
        s: 0 for s in range(result.spec.scenarios)
    }
    for record in result.records:
        start = hook.wallclock(record.start)
        end = hook.wallclock(record.end)
        if hook.crash_at is not None and end > hook.crash_at:
            if start < hook.crash_at:
                lost_work += (hook.crash_at - start) * record.n_procs
            continue
        survivors.append(replace(record, start=start, end=end))
        if record.kind == "main":
            completed[record.scenario] += 1
        else:
            finished_posts[record.scenario] += 1
    makespan = max((r.end for r in survivors), default=0.0)
    main_makespan = max(
        (r.end for r in survivors if r.kind == "main"), default=0.0
    )
    pending_posts = {
        s: completed[s] - min(finished_posts[s], completed[s])
        for s in completed
    }
    months_lost = (
        result.spec.scenarios * result.spec.months
        - sum(completed.values())
        if hook.crash_at is not None
        else 0
    )
    warped = replace(
        result,
        makespan=makespan,
        main_makespan=main_makespan,
        records=tuple(survivors) if keep_records else (),
    )
    outcome = FaultOutcome(
        cluster_name=result.cluster_name,
        crash_at=hook.crash_at,
        completed_months=completed,
        pending_posts=pending_posts,
        months_lost=months_lost,
        lost_work_seconds=lost_work,
        makespan=makespan,
    )
    _count_injection(result.cluster_name, months_lost)
    return warped, outcome
