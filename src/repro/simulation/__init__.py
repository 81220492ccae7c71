"""Discrete-event makespan simulation of group schedules.

Implements the evaluation procedure of Section 4.3: "The execution of
multiprocessor tasks is done by sorting the ready time of each group of
processors and when a group becomes ready, the month of the less
advanced simulation waiting is scheduled on this group."  Post-processing
tasks run on the dedicated post pool and on the processors of main-task
groups once those permanently retire (the paper's ``Rleft`` reuse).

The engine is deterministic, trace-optional (makespans can be computed
without materializing task records), and validated: every schedule it
emits can be replayed through :mod:`repro.simulation.validate`, which
checks resource exclusivity and dependency correctness.
"""

from repro.simulation.events import TaskRecord, SimulationResult
from repro.simulation.engine import simulate, simulate_on_cluster
from repro.simulation.online import OnlineResult, simulate_online
from repro.simulation.export import to_chrome_trace, trace_to_csv
from repro.simulation.groups import proc_ranges
from repro.simulation.metrics import (
    utilization,
    busy_seconds_by_kind,
    scenario_finish_times,
    fairness_spread,
    idle_seconds,
)
from repro.simulation.trace import render_gantt, trace_summary
from repro.simulation.validate import validate_schedule

__all__ = [
    "TaskRecord",
    "SimulationResult",
    "simulate",
    "simulate_on_cluster",
    "OnlineResult",
    "simulate_online",
    "to_chrome_trace",
    "trace_to_csv",
    "proc_ranges",
    "utilization",
    "busy_seconds_by_kind",
    "scenario_finish_times",
    "fairness_spread",
    "idle_seconds",
    "render_gantt",
    "trace_summary",
    "validate_schedule",
]
