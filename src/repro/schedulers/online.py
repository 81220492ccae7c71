"""Online list-scheduling policies promoted to arena competitors.

The online baseline (:mod:`repro.simulation.online`) allocates from one
shared pool, task by task.  Its opening move — the first allocation wave
on an idle machine — is a complete static partition: every scenario that
can start gets a width, the leftovers idle.  These schedulers commit to
that wave as a :class:`~repro.core.grouping.Grouping` (leftover
processors become the post pool), which is precisely what an online
greedy list-scheduler "believes" the right partition is before any
release staggers the pool.

Racing them against the paper's heuristics quantifies the cost of
deciding greedily: at tight resource counts the greedy wave strands a
sub-``min_group`` remainder where the knapsack would have rebalanced
widths.
"""

from __future__ import annotations

from typing import ClassVar

from repro.core.grouping import Grouping
from repro.exceptions import SchedulingError, SimulationError
from repro.platform.cluster import ClusterSpec
from repro.schedulers.base import Scheduler, register_scheduler
from repro.simulation.online import first_wave_widths
from repro.workflow.ocean_atmosphere import EnsembleSpec

__all__ = ["OnlineGreedyScheduler", "OnlineKnapsackScheduler"]


class _OnlineScheduler(Scheduler):
    """Shared body: first allocation wave, leftovers to the post pool."""

    policy: ClassVar[str]

    def plan(self, cluster: ClusterSpec, spec: EnsembleSpec) -> Grouping:
        try:
            widths = first_wave_widths(
                cluster.resources, spec.scenarios, cluster.timing,
                policy=self.policy,
            )
        except SimulationError as exc:
            raise SchedulingError(str(exc)) from exc
        if not widths:
            raise SchedulingError(
                f"online policy {self.policy!r} starts no main task on "
                f"{cluster.resources} processors"
            )
        return Grouping.from_sizes(widths, cluster.resources)


@register_scheduler
class OnlineGreedyScheduler(_OnlineScheduler):
    name = "online-greedy"
    description = "First wave of the greedy-max online policy as a static partition"
    policy = "greedy-max"


@register_scheduler
class OnlineKnapsackScheduler(_OnlineScheduler):
    name = "online-knapsack"
    description = "First wave of the knapsack-aware online policy as a static partition"
    policy = "knapsack-aware"
    reads_dp_stack = True
