"""Performance vectors — Section 5, step (2) of the protocol.

"Each cluster computes a vector containing the time needed to execute
from 1 to NS simulations using the Knapsack modeling given before."

``performance_vector(cluster, spec, heuristic)[k-1]`` is the simulated
makespan of running ``k`` scenarios (of ``spec.months`` months each) on
the cluster under the named heuristic.  The vector drives Algorithm 1's
greedy repartition; computing it per-heuristic is what lets Figure 10
compare the improvements in the grid setting.

The SeD's step-2 reply, the replanner and Figure 10 all call it.  It
plans the ``1..NS`` entries in one
:func:`~repro.core.batch.batch_plan_groupings` call and reads each entry
from the memoized simulator, so an entry is bit-for-bit a fresh engine
run's makespan and a repeated grouping costs one engine run per process.
"""

from __future__ import annotations

from repro.core.batch import batch_plan_groupings
from repro.core.heuristics import HeuristicName, plan_grouping
from repro.core.makespan import cached_simulated_makespan
from repro.exceptions import SchedulingError
from repro.platform.cluster import ClusterSpec
from repro.workflow.ocean_atmosphere import EnsembleSpec

__all__ = ["performance_vector", "cluster_makespan"]


def cluster_makespan(
    cluster: ClusterSpec,
    spec: EnsembleSpec,
    heuristic: HeuristicName | str = HeuristicName.KNAPSACK,
) -> float:
    """Simulated makespan of one ensemble on one cluster (memoized)."""
    grouping = plan_grouping(cluster, spec, heuristic)
    return cached_simulated_makespan(grouping, spec, cluster.timing)


def performance_vector(
    cluster: ClusterSpec,
    spec: EnsembleSpec,
    heuristic: HeuristicName | str = HeuristicName.KNAPSACK,
) -> list[float]:
    """Makespans for 1..NS scenarios on this cluster, under one heuristic.

    Index ``k-1`` holds the makespan of ``k`` scenarios.  The vector is
    non-decreasing in ``k`` for any sane heuristic (more scenarios, same
    processors).  Raises :class:`~repro.exceptions.SchedulingError` when
    the cluster cannot host any group.
    """
    timing = cluster.timing
    groupings = batch_plan_groupings(
        timing,
        [(cluster.resources, k, spec.months, heuristic) for k in range(1, spec.scenarios + 1)],
    )
    vector: list[float] = []
    for k, grouping in enumerate(groupings, start=1):
        if grouping is None:
            raise SchedulingError(
                f"cluster {cluster.name!r} ({cluster.resources} processors) "
                f"cannot host any main-task group (min size {timing.min_group})"
            )
        vector.append(cached_simulated_makespan(grouping, EnsembleSpec(k, spec.months), timing))
    return vector
