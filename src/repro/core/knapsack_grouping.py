"""Improvement 3 — knapsack-optimal multiset of group sizes.

Section 4.2: "there are 8 possible items (groups of 4 to 11 nodes).
The cost of an item is represented by the number of resources of that
grouping.  The value of a specific grouping G is given by 1/T[G], which
represents the fraction of a multiprocessor task that gets executed
during a time unit for that specific group of processors. [...]
The goal is to maximize Σ n_i × (1/T[i]) under the constraints
Σ i × n_i ≤ R and Σ n_i ≤ NS."

The groups may therefore have *different* sizes — this is what lets the
knapsack squeeze throughput out of resource counts where no uniform
``G`` divides ``R`` nicely.  Processors not packed into any group form
the post pool (the objective's tie rule prefers lighter packings, so no
processor is wasted inside an oversized group when a smaller one has
equal throughput).

The knapsack is solved on the memoized dp stack
(:func:`~repro.knapsack.dp.solve_dp`), keyed on the cluster's item
table: the performance vector's batch planner builds that stack, so a
SeD's execution, the replanner and the arena's knapsack decisions
trace back from it.  The resulting grouping is itself memoized (the
``plan`` kernel-cache kind), so a repeated plan is one lookup.
"""

from __future__ import annotations

from typing import Callable

from repro import obs
from repro.core.basic import no_group_fits
from repro.core.grouping import Grouping
from repro.core.makespan import _memoized
from repro.knapsack.dp import solve_dp
from repro.knapsack.items import CardinalityKnapsack, KnapsackSolution
from repro.platform.cluster import ClusterSpec
from repro.platform.timing import TimingModel
from repro.workflow.ocean_atmosphere import EnsembleSpec

__all__ = ["knapsack_problem_for", "knapsack_grouping", "throughput_knapsack"]

Solver = Callable[[CardinalityKnapsack], KnapsackSolution]


def throughput_knapsack(
    timing: TimingModel, capacity: int, max_items: int
) -> CardinalityKnapsack:
    """Improvement 3's knapsack: one ``1/T[G]`` item per admissible ``G``.

    Every knapsack planner builds its instance here, so one timing
    model always yields one item tuple, the key of its dp stack.
    """
    values = {g: 1.0 / t for g, t in timing.main_time_table().items()}
    return CardinalityKnapsack.from_weights_values(values, capacity, max_items)


def knapsack_problem_for(
    cluster: ClusterSpec, spec: EnsembleSpec
) -> CardinalityKnapsack:
    """The paper's knapsack instance for one cluster and ensemble."""
    return throughput_knapsack(cluster.timing, cluster.resources, spec.scenarios)


def knapsack_grouping(
    cluster: ClusterSpec,
    spec: EnsembleSpec,
    *,
    solver: Solver = solve_dp,
) -> Grouping:
    """Improvement 3's partition: solve the knapsack, pack the rest as posts.

    ``solver`` defaults to the exact DP, read from the memoized stack;
    the greedy solver can be injected for the ablation study.  Raises
    :class:`~repro.exceptions.SchedulingError` when the cluster cannot
    host a single group (the knapsack comes back empty).

    With the default solver the grouping is memoized (the ``plan``
    kind) on values only: the ``{G: T[G]}`` table, ``R`` and ``NS``,
    never the cluster's name.  That key is complete because the plan
    reads nothing else: the instance is the ``1/T[G]`` table at
    capacity ``R`` and cap ``NS``, and the grouping packs the rest of
    ``R`` as posts.  ``NM`` and ``TP`` are left out on purpose, so the
    replanner's chain plans of different lengths share one entry.  The
    cluster's name and ``min_group`` appear only in the error, and
    errors are not stored.  The stored :class:`Grouping` is frozen, so
    every hit shares it.  Any other solver bypasses the memo, so an
    injected solver is always a second computation.
    ``heuristic.candidate_evaluations`` counts every request, hit or
    miss.
    """
    table = cluster.timing.main_time_table()
    if obs.enabled():
        # One candidate evaluation per knapsack item: each admissible
        # group size has its 1/T[g] value priced into the plan.
        obs.inc(
            "heuristic.candidate_evaluations",
            len(table),
            heuristic="knapsack",
            cluster=cluster.name,
        )
    if solver is not solve_dp:
        return _plan(cluster, spec, solver)
    key = (tuple(table.items()), cluster.resources, spec.scenarios)
    return _memoized("plan", key, _plan, cluster, spec, solver)


def _plan(cluster: ClusterSpec, spec: EnsembleSpec, solver: Solver) -> Grouping:
    """One fresh solve of the cluster's knapsack, the rest packed as posts."""
    sizes = solver(knapsack_problem_for(cluster, spec)).as_multiset()
    if not sizes:
        raise no_group_fits(cluster)
    return Grouping.from_sizes(sizes, cluster.resources)
