"""The unpruned local-search walk: the oracle for bound pruning.

:class:`repro.schedulers.refine.LocalSearchScheduler` skips the
simulation of every proposal whose exact lower bound is at or above the
best makespan so far.  :func:`unpruned_local_search` simulates every
admissible proposal, as the scheduler did before it pruned, so the two
must decide alike.  It also returns each simulated proposal's group
sizes and makespan, so a test can check the bound against them.
"""

from __future__ import annotations

from repro.core.grouping import Grouping
from repro.core.heuristics import HeuristicName, plan_grouping
from repro.core.makespan import cached_simulated_makespan
from repro.exceptions import SchedulingError
from repro.platform.cluster import ClusterSpec
from repro.schedulers.base import get_scheduler
from repro.schedulers.refine import _propose
from repro.workflow.ocean_atmosphere import EnsembleSpec


def unpruned_local_search(
    cluster: ClusterSpec, spec: EnsembleSpec, seed: int = 0
) -> tuple[Grouping, list[tuple[tuple[int, ...], float]]]:
    """The walk's decision and every simulated ``(group sizes, makespan)``."""
    scheduler = get_scheduler("local-search", seed=seed)
    timing = cluster.timing
    try:
        current = plan_grouping(cluster, spec, HeuristicName.KNAPSACK)
    except SchedulingError:
        current = plan_grouping(cluster, spec, HeuristicName.BASIC)
    best = current
    best_makespan = cached_simulated_makespan(current, spec, timing)
    scored = [(current.group_sizes, best_makespan)]
    rng = scheduler._rng(cluster, spec)
    for _ in range(scheduler.iterations):
        proposal = _propose(
            list(best.group_sizes), best.post_pool, rng,
            min_group=timing.min_group,
            max_group=timing.max_group,
            max_groups=spec.scenarios,
        )
        if proposal is None:
            continue
        sizes, post = proposal
        if not sizes:
            continue
        candidate = Grouping.from_sizes(sizes, cluster.resources, post_pool=post)
        try:
            candidate.validate_against(timing, spec.scenarios)
        except SchedulingError:
            continue
        makespan = cached_simulated_makespan(candidate, spec, timing)
        scored.append((candidate.group_sizes, makespan))
        if makespan < best_makespan:
            best = candidate
            best_makespan = makespan
    return best, scored
