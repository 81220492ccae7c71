"""Advance-reservation scheduler (after Prajapati & Shah, arXiv:1211.1447).

Advance-reservation DAG scheduling books every window a workflow will
need *before* execution starts, then commits to the booking that
finishes earliest.  Mapped onto our moldable month-chains, a booking is
a uniform reservation: ``n`` main windows of width ``G`` cycling through
the scenarios, plus a pool of post windows sized to the steady-state
post arrival rate — each group emits one post (cost ``TP``) every
``T(G)`` seconds, so ``n`` groups keep ``ceil(n · TP / T(G))`` post
processors busy.  Reserving more wastes the machine; reserving fewer
backs up the post queue and stretches the horizon.

The booking space is at most ``|group_sizes| × NS × 2`` and the search
is exhaustive in effect, not sampled: the scheduler commits to the
booking with the earliest simulated completion horizon, ties broken
toward the smaller reservation (fewer processors booked, then narrower
groups, then fewer groups).  It simulates only the bookings that can
win.  ``n`` groups of ``G`` on equal chains run ``W = ceil(NS·NM / n)``
waves, so the main phase ends at ``t_W``, the ``W``-th repeated float
addition of ``T(G)`` — the very floats the engine's uniform waves
produce — and every post ends at least ``TP`` after its main task.
``t_W + TP`` is therefore an exact lower bound on the horizon of every
post reservation of ``(G, n)``.  Bookings are scored in ``(bound, G,
n)`` order and the search stops at the first bound strictly above the
best horizon found so far: no later booking can finish earlier, and a
booking whose bound equals that horizon is still simulated, since the
tie rule must decide between them.  Fully deterministic: the winner is
the tie rule's minimum over every booking, whichever were simulated.
"""

from __future__ import annotations

import math
from itertools import accumulate, repeat

from repro.core.grouping import Grouping
from repro.core.makespan import cached_simulated_makespan
from repro.exceptions import SchedulingError
from repro.platform.cluster import ClusterSpec
from repro.schedulers.base import Scheduler, register_scheduler
from repro.workflow.ocean_atmosphere import EnsembleSpec

__all__ = ["ReservationScheduler"]


def _post_reservation(n_groups: int, width: int, cluster: ClusterSpec) -> int:
    """Post processors the steady-state arrival rate keeps busy."""
    timing = cluster.timing
    return math.ceil(n_groups * timing.post_time() / timing.main_time(width))


@register_scheduler
class ReservationScheduler(Scheduler):
    name = "reservation"
    description = (
        "Advance reservation: book uniform main windows plus a rate-matched "
        "post pool, commit to the earliest-finishing booking"
    )

    def plan(self, cluster: ClusterSpec, spec: EnsembleSpec) -> Grouping:
        timing = cluster.timing
        resources = cluster.resources
        tasks = spec.scenarios * spec.months
        tp = timing.post_time()
        bookings: list[tuple[float, int, int]] = []
        for width in timing.group_sizes:
            if width > resources:
                continue
            # wave_ends[w - 1] is t_w: w repeated additions of T(G) from 0.0.
            wave_ends = list(accumulate(repeat(timing.main_time(width), tasks)))
            for n_groups in range(1, min(spec.scenarios, resources // width) + 1):
                waves = -(-tasks // n_groups)
                bookings.append((wave_ends[waves - 1] + tp, width, n_groups))
        bookings.sort()
        best_key: tuple[float, int, int, int] | None = None
        best: Grouping | None = None
        for bound, width, n_groups in bookings:
            if best_key is not None and bound > best_key[0]:
                break
            leftover = resources - n_groups * width
            rate_matched = min(leftover, _post_reservation(
                n_groups, width, cluster
            ))
            # Two candidate bookings per (G, n): rate-matched post
            # reservation (spare capacity idles) and every leftover
            # booked as post.  dict keys de-duplicate when equal.
            for post in dict.fromkeys((rate_matched, leftover)):
                grouping = Grouping.uniform(
                    width, n_groups, resources, post_pool=post
                )
                horizon = cached_simulated_makespan(grouping, spec, timing)
                key = (horizon, n_groups * width + post, width, n_groups)
                if best_key is None or key < best_key:
                    best_key = key
                    best = grouping
        if best is None:
            raise SchedulingError(
                f"no admissible reservation on {resources} processors "
                f"(min main width {timing.min_group})"
            )
        return best
