"""The round-robin Improvement 1/2 loops: the oracle for the closed form.

:func:`repro.core.basic.uniform_family_grouping` builds the basic,
redistribute and allpost_end groupings from ``G*`` in closed form, for
the scalar heuristics and the batch planner alike.  The functions here
are Section 4.2's rules taken literally: start from the basic
heuristic's ``G*`` and ``nbmax``, then hand the leftover processors to
the groups round-robin, one processor each, never past the moldability
maximum.  They share no code with the closed form beyond the scalar
``G*`` selection (:func:`~repro.core.basic.best_uniform_group`), so the
two must agree grouping for grouping.

Improvement 1 keeps ``⌈nbmax / ⌊TG/TP⌋⌉`` processors for posts (at
least 1 whenever there are leftover processors at all); the paper's
example (R=53, NS=10 → G=7, 7 groups, post needs 1, 3 idle) gives
3 groups of 8 and 4 groups of 7.  Improvement 2 keeps none.  Anything
still left once every group is at the maximum returns to the post pool.
"""

from __future__ import annotations

import math

from repro.core.basic import best_uniform_group
from repro.core.grouping import Grouping
from repro.core.heuristics import HeuristicName
from repro.core.makespan import _floor_ratio
from repro.platform.cluster import ClusterSpec
from repro.workflow.ocean_atmosphere import EnsembleSpec


def needed_post_pool(cluster: ClusterSpec, group_size: int, n_groups: int) -> int:
    """Post processors needed to absorb one wave's posts within one wave.

    ``⌈nbmax / ⌊TG/TP⌋⌉`` — each post processor digests ``⌊TG/TP⌋``
    posts per main-task wave (Section 4.2's ``Runused`` derivation).
    Returns 0 when a single wave produces no post backlog at all
    (degenerate ``⌊TG/TP⌋ = 0`` is impossible since TG > TP for every
    admissible group).
    """
    per_proc = _floor_ratio(cluster.main_time(group_size), cluster.post_time())
    if per_proc <= 0:
        # Posts are longer than mains: one processor per concurrent group
        # is the minimum to avoid unbounded backlog.
        return n_groups
    return math.ceil(n_groups / per_proc)


def basic_grouping(cluster: ClusterSpec, spec: EnsembleSpec) -> Grouping:
    """The basic heuristic's partition: ``nbmax`` groups of ``G*``."""
    g = best_uniform_group(cluster, spec)
    nbmax = min(spec.scenarios, cluster.resources // g)
    return Grouping.uniform(g, nbmax, cluster.resources)


def redistribute_grouping(cluster: ClusterSpec, spec: EnsembleSpec) -> Grouping:
    """Improvement 1's partition (see module docstring)."""
    g = best_uniform_group(cluster, spec)
    nbmax = min(spec.scenarios, cluster.resources // g)
    r2 = cluster.resources - nbmax * g
    if r2 == 0:
        return Grouping.uniform(g, nbmax, cluster.resources)

    post = min(r2, needed_post_pool(cluster, g, nbmax))
    surplus = r2 - post
    sizes = [g] * nbmax
    max_size = cluster.timing.max_group
    idx = 0
    scanned = 0
    while surplus > 0 and scanned < nbmax:
        if sizes[idx] < max_size:
            sizes[idx] += 1
            surplus -= 1
            scanned = 0
        else:
            scanned += 1
        idx = (idx + 1) % nbmax
    # Whatever could not be absorbed (every group at the maximum) goes
    # back to post-processing.
    post += surplus
    return Grouping.from_sizes(sizes, cluster.resources, post_pool=post)


def allpost_end_grouping(cluster: ClusterSpec, spec: EnsembleSpec) -> Grouping:
    """Improvement 2's partition (see module docstring)."""
    g = best_uniform_group(cluster, spec)
    nbmax = min(spec.scenarios, cluster.resources // g)
    surplus = cluster.resources - nbmax * g

    sizes = [g] * nbmax
    max_size = cluster.timing.max_group
    idx = 0
    failures = 0
    while surplus > 0 and failures < nbmax:
        if sizes[idx] < max_size:
            sizes[idx] += 1
            surplus -= 1
            failures = 0
        else:
            failures += 1
        idx = (idx + 1) % nbmax
    # Processors that no group can absorb (everything at the maximum)
    # keep serving posts — leaving them idle would be strictly worse and
    # the paper's rule only applies while groups can still grow.
    return Grouping.from_sizes(sizes, cluster.resources, post_pool=surplus)


#: The oracle of each uniform heuristic; the knapsack has its own
#: (``tests/knapsack/dp_oracle.py``).
UNIFORM_ORACLES = {
    HeuristicName.BASIC: basic_grouping,
    HeuristicName.REDISTRIBUTE: redistribute_grouping,
    HeuristicName.ALLPOST_END: allpost_end_grouping,
}
