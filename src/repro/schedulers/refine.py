"""Seeded local-search refiner over knapsack partitions.

Improvement 3's knapsack maximizes aggregate throughput ``Σ 1/T(g)``,
an analytic proxy — the *simulated* makespan also feels post-pool
contention and end-of-run draining that the proxy ignores.  This
scheduler starts from the knapsack partition (falling back to basic
where the knapsack has no admissible multiset) and hill-climbs on the
simulated makespan itself, perturbing the group multiset with small
moves: widen or narrow one group, move a processor between two groups,
split the post pool into a new group, or dissolve a group into the
post pool.

All randomness flows from one injected RNG seeded by
``(seed, cluster, R, NS, NM)`` — the same inputs replay the same walk
bit-for-bit (reprolint D002: no module/global RNG state is touched).
A move is accepted only when it *strictly* improves the simulated
makespan, so the walk is monotone and the result never loses to its
own starting point.

Most proposals cannot win, and the walk skips their simulations on an
exact lower bound (:class:`_CompletionFloor`).  The engine ends every
main task at ``now + T[g]``, with ``now`` no earlier than that group's
previous end and the kick-off at ``0.0 + T[g]``; float addition is
monotone, so group ``g``'s k-th completion is at least ``A_g[k]``, the
k-fold float accumulation of ``T[g]``.  Every post ends at
``max(free_at, ready) + TP >= ready + TP``.  The makespan is therefore
at least the ``NS·NM``-th smallest of ``A_g[k] + TP`` over every group
and ``k`` — no float margin involved.  A proposal whose bound is at or
above the best makespan cannot be strictly better, so it is skipped.
:func:`_propose` draws from the RNG whether or not its proposal is
simulated, so the walk, and the decision, are those of the unpruned
search (``tests/schedulers/local_search_oracle.py``).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections.abc import Sequence
from itertools import accumulate, repeat

from repro.core.grouping import Grouping
from repro.core.heuristics import HeuristicName, plan_grouping
from repro.core.makespan import cached_simulated_makespan
from repro.exceptions import ConfigurationError, SchedulingError
from repro.platform.cluster import ClusterSpec
from repro.platform.timing import TimingModel
from repro.schedulers.base import Scheduler, register_scheduler
from repro.workflow.ocean_atmosphere import EnsembleSpec

__all__ = ["LocalSearchScheduler"]

#: Perturbation budget: proposals drawn per decision.  Enough to drain
#: the neighbourhood at paper-scale grids (R ≤ 120) while keeping
#: decision latency within the BENCH_arena budget.
DEFAULT_ITERATIONS = 64


def _propose(
    sizes: list[int],
    post: int,
    rng: random.Random,
    *,
    min_group: int,
    max_group: int,
    max_groups: int,
) -> tuple[list[int], int] | None:
    """One random neighbour of ``(sizes, post)``, or None if inapplicable.

    Moves conserve ``sum(sizes) + post + idle == R`` by construction:
    processors only ever move between one group and the post pool, or
    between two groups.
    """
    move = rng.randrange(4)
    sizes = list(sizes)
    if move == 0:  # widen one group from the post pool
        if post < 1 or not sizes:
            return None
        i = rng.randrange(len(sizes))
        if sizes[i] >= max_group:
            return None
        sizes[i] += 1
        return sizes, post - 1
    if move == 1:  # narrow one group into the post pool
        if not sizes:
            return None
        i = rng.randrange(len(sizes))
        if sizes[i] <= min_group:
            return None
        sizes[i] -= 1
        return sizes, post + 1
    if move == 2:  # move a processor between two groups
        if len(sizes) < 2:
            return None
        i = rng.randrange(len(sizes))
        j = rng.randrange(len(sizes))
        if i == j or sizes[i] <= min_group or sizes[j] >= max_group:
            return None
        sizes[i] -= 1
        sizes[j] += 1
        return sizes, post
    # move == 3: split the post pool into a new minimal group, or
    # dissolve the narrowest group into the post pool.
    if post >= min_group and len(sizes) < max_groups:
        sizes.append(min_group)
        return sizes, post - min_group
    if len(sizes) > 1:
        victim = sizes.pop()  # sizes stay sorted desc → narrowest last
        return sizes, post + victim
    return None


class _CompletionFloor:
    """An exact lower bound on the simulated makespan of a group multiset.

    ``row(g)`` holds ``A_g[k] + TP`` for ``k = 1..tasks``: the earliest
    a post fed by the k-th completion of a group of size ``g`` can end
    (see the module docstring).  The rows are built once per group size
    and reused by every proposal of a decision.
    """

    def __init__(self, timing: TimingModel, tasks: int) -> None:
        self._table = timing.main_time_table()
        self._tp = timing.post_time()
        self._tasks = tasks
        self._rows: dict[int, list[float]] = {}

    def row(self, size: int) -> list[float] | None:
        """Ascending post-end floors of one group, ``None`` if inadmissible."""
        row = self._rows.get(size)
        if row is None:
            gt = self._table.get(size)
            if gt is None:
                return None
            tp = self._tp
            row = self._rows[size] = [
                t + tp for t in accumulate(repeat(gt, self._tasks))
            ]
        return row

    def can_win(self, sizes: Sequence[int], best: float) -> bool:
        """Whether ``sizes`` might simulate strictly below ``best``.

        True when at least ``tasks`` floors lie strictly below ``best``
        (the bound, the ``tasks``-th smallest floor over every group, is
        then below it), or when a size is inadmissible, so that
        validation, not the bound, rejects the proposal.
        """
        below = 0
        for g in sizes:
            row = self.row(g)
            if row is None:
                return True
            below += bisect_left(row, best)
        return below >= self._tasks


@register_scheduler
class LocalSearchScheduler(Scheduler):
    name = "local-search"
    description = (
        "Seeded hill-climb on simulated makespan, perturbing the knapsack "
        "partition"
    )
    reads_dp_stack = True

    def __init__(self, seed: int = 0, iterations: int = DEFAULT_ITERATIONS):
        super().__init__(seed)
        if iterations < 0:
            raise ConfigurationError(
                f"iterations must be >= 0, got {iterations}"
            )
        self.iterations = iterations

    def _rng(self, cluster: ClusterSpec, spec: EnsembleSpec) -> random.Random:
        return random.Random(
            f"scheduler:local-search:{self.seed}:{cluster.name}:"
            f"{cluster.resources}:{spec.scenarios}:{spec.months}"
        )

    def plan(self, cluster: ClusterSpec, spec: EnsembleSpec) -> Grouping:
        timing = cluster.timing
        try:
            current = plan_grouping(cluster, spec, HeuristicName.KNAPSACK)
        except SchedulingError:
            current = plan_grouping(cluster, spec, HeuristicName.BASIC)
        best = current
        best_makespan = cached_simulated_makespan(current, spec, timing)
        floor = _CompletionFloor(timing, spec.scenarios * spec.months)
        rng = self._rng(cluster, spec)
        for _ in range(self.iterations):
            proposal = _propose(
                list(best.group_sizes), best.post_pool, rng,
                min_group=timing.min_group,
                max_group=timing.max_group,
                max_groups=spec.scenarios,
            )
            if proposal is None:
                continue
            sizes, post = proposal
            if not sizes or not floor.can_win(sizes, best_makespan):
                continue
            candidate = Grouping.from_sizes(
                sizes, cluster.resources, post_pool=post
            )
            try:
                candidate.validate_against(timing, spec.scenarios)
            except SchedulingError:
                continue
            makespan = cached_simulated_makespan(candidate, spec, timing)
            if makespan < best_makespan:
                best = candidate
                best_makespan = makespan
        return best
