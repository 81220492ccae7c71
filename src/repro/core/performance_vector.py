"""Performance vectors — Section 5, step (2) of the protocol.

"Each cluster computes a vector containing the time needed to execute
from 1 to NS simulations using the Knapsack modeling given before."

``performance_vector(cluster, spec, heuristic)[k-1]`` is the simulated
makespan of running ``k`` scenarios (of ``spec.months`` months each) on
the cluster under the named heuristic.  The vector drives Algorithm 1's
greedy repartition; computing it per-heuristic is what lets Figure 10
compare the improvements in the grid setting.

The SeD's step-2 reply, the replanner and Figure 10 all call it.  A
first request plans the ``1..NS`` entries in one
:func:`~repro.core.batch.batch_plan_groupings` call and reads each entry
from the memoized simulator, so an entry is bit-for-bit a fresh engine
run's makespan and a repeated grouping costs one engine run per process.
The whole vector is then memoized as the ``vector`` kernel-cache kind,
so a repeated request is one lookup.
"""

from __future__ import annotations

from repro.core.basic import no_group_fits
from repro.core.batch import batch_plan_groupings
from repro.core.heuristics import HeuristicName, plan_grouping
from repro.core.makespan import _memoized, cached_simulated_makespan
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

    The result is memoized (the ``vector`` kind) on values only: the
    ``{G: T[G]}`` table, the post time, ``R``, ``NS``, ``NM`` and the
    heuristic, never the cluster's name, so clusters sharing a timing
    table share one entry.  That key is complete because the planners
    and the engine read a timing model only through its table, its post
    time, ``min_group``/``max_group`` (the table's key range) and
    ``validate_group`` (a check against that range).  The entry is a
    tuple; each call returns a fresh list.
    """
    timing = cluster.timing
    key = (
        tuple(timing.main_time_table().items()), timing.post_time(),
        cluster.resources, spec.scenarios, spec.months, HeuristicName(heuristic),
    )
    return list(_memoized("vector", key, _build_vector, cluster, spec, heuristic))


def _build_vector(
    cluster: ClusterSpec, spec: EnsembleSpec, heuristic: HeuristicName | str
) -> tuple[float, ...]:
    """The vector built entry by entry: one batch plan, one cached run each."""
    timing = cluster.timing
    groupings = batch_plan_groupings(
        timing,
        [(cluster.resources, k, spec.months, heuristic) for k in range(1, spec.scenarios + 1)],
    )
    vector: list[float] = []
    for k, grouping in enumerate(groupings, start=1):
        if grouping is None:
            raise no_group_fits(cluster)
        vector.append(cached_simulated_makespan(grouping, EnsembleSpec(k, spec.months), timing))
    return tuple(vector)
