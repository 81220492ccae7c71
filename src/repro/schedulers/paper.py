"""The paper's four heuristics as registry entries.

The three uniform adapters delegate to
:func:`repro.core.heuristics.plan_grouping`.  The knapsack adapter plans
through :func:`repro.core.batch.batch_plan_groupings`, the path Figure
8's sweep rows take, so its DP reads the memoized ``dp`` stack of the
cluster's item table instead of solving the knapsack afresh.  Either
way an arena race over them evaluates *exactly* the groupings behind
the fig7/fig8 golden fixtures — nothing is special-cased, and the
gain-over-basic numbers the arena reports for these four reproduce the
figures bit-for-bit (``tests/schedulers/test_arena_golden.py`` pins
that equivalence).
"""

from __future__ import annotations

from typing import ClassVar

from repro.core.batch import batch_plan_groupings
from repro.core.grouping import Grouping
from repro.core.heuristics import HeuristicName, plan_grouping
from repro.exceptions import SchedulingError
from repro.platform.cluster import ClusterSpec
from repro.schedulers.base import Scheduler, register_scheduler
from repro.workflow.ocean_atmosphere import EnsembleSpec

__all__ = [
    "AllPostEndScheduler",
    "BasicScheduler",
    "KnapsackScheduler",
    "PAPER_SCHEDULERS",
    "RedistributeScheduler",
    "knapsack_plan",
]


def knapsack_plan(cluster: ClusterSpec, spec: EnsembleSpec) -> Grouping:
    """Improvement 3's grouping, planned on the memoized ``dp`` stack.

    The grouping :func:`~repro.core.heuristics.plan_grouping` builds for
    the knapsack heuristic; raises
    :class:`~repro.exceptions.SchedulingError` where it would.
    """
    (grouping,) = batch_plan_groupings(
        cluster.timing,
        [(cluster.resources, spec.scenarios, spec.months, HeuristicName.KNAPSACK)],
    )
    if grouping is None:
        raise SchedulingError(
            f"cluster {cluster.name!r} ({cluster.resources} processors) "
            f"cannot host any main-task group (min size "
            f"{cluster.timing.min_group})"
        )
    return grouping


class _PaperScheduler(Scheduler):
    """Shared adapter body: delegate to the heuristic registry."""

    heuristic: ClassVar[HeuristicName]

    def plan(self, cluster: ClusterSpec, spec: EnsembleSpec) -> Grouping:
        return plan_grouping(cluster, spec, self.heuristic)


@register_scheduler
class BasicScheduler(_PaperScheduler):
    name = "basic"
    description = "Paper §4.1: uniform groups at the analytically best width"
    heuristic = HeuristicName.BASIC


@register_scheduler
class RedistributeScheduler(_PaperScheduler):
    name = "redistribute"
    description = "Paper improvement 1: idle processors spread across groups"
    heuristic = HeuristicName.REDISTRIBUTE


@register_scheduler
class AllPostEndScheduler(_PaperScheduler):
    name = "allpost_end"
    description = "Paper improvement 2: no post pool, post-processing at the end"
    heuristic = HeuristicName.ALLPOST_END


@register_scheduler
class KnapsackScheduler(_PaperScheduler):
    name = "knapsack"
    description = "Paper improvement 3: knapsack-optimal group multiset"
    heuristic = HeuristicName.KNAPSACK
    reads_dp_stack = True

    def plan(self, cluster: ClusterSpec, spec: EnsembleSpec) -> Grouping:
        return knapsack_plan(cluster, spec)


#: The four adapters in the paper's presentation order — the arena's
#: default baseline ordering and the set golden-parity tests race.
PAPER_SCHEDULERS: tuple[str, ...] = (
    "basic", "redistribute", "allpost_end", "knapsack",
)
