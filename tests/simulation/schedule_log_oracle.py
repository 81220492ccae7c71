"""The schedule log flattened from a traced reference-engine run: the oracle.

:func:`repro.core.makespan.cached_schedule_log` builds its
:class:`~repro.core.makespan.ScheduleLog` from the fast engine's
logging loop (:func:`repro.simulation.engine.schedule_log`).
:func:`reference_schedule_log` builds the same log from the per-task
records of the set-scan oracle
(:func:`tests.simulation.reference_engine.reference_simulate`), which
shares neither the heaps nor the post merge with the logging loop, so
the two are compared field for field.
"""

from __future__ import annotations

import itertools

from repro.core.grouping import Grouping
from repro.core.makespan import ScheduleLog
from repro.platform.timing import TimingModel
from repro.workflow.ocean_atmosphere import EnsembleSpec
from tests.simulation.reference_engine import reference_simulate


def reference_schedule_log(
    grouping: Grouping, spec: EnsembleSpec, timing: TimingModel,
    chains: tuple[int, ...] | None = None,
) -> ScheduleLog:
    """Flatten one traced oracle simulation into a :class:`ScheduleLog`."""
    result = reference_simulate(
        grouping, spec, timing, record_trace=True, chains=chains
    )
    records = result.records
    main_ends: list[list[float]] = [[] for _ in range(spec.scenarios)]
    post_ends: list[list[float]] = [[] for _ in range(spec.scenarios)]
    for record in records:
        by_kind = main_ends if record.kind == "main" else post_ends
        by_kind[record.scenario].append(record.end)
    ends = tuple(record.end for record in records)
    mains = sum(len(e) for e in main_ends)
    return ScheduleLog(
        starts=tuple(record.start for record in records),
        ends=ends,
        procs=tuple(record.n_procs for record in records),
        mains=mains,
        end_peaks=(
            *itertools.accumulate(ends[:mains], max),
            *itertools.accumulate(ends[mains:], max),
        ),
        sorted_ends=tuple(sorted(ends)),
        main_ends=tuple(tuple(sorted(e)) for e in main_ends),
        post_ends=tuple(tuple(sorted(e)) for e in post_ends),
        makespan=result.makespan,
    )
