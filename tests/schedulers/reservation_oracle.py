"""The exhaustive reservation enumeration: the oracle for bound pruning.

:class:`repro.schedulers.reservation.ReservationScheduler` scores
bookings in lower-bound order and stops once no booking can win.
:func:`exhaustive_reservation` simulates every booking ``(G, n, post)``
and keeps the tie rule's minimum, so the two must decide alike.  It
also returns every booking's bound and horizon, so a test can check
that the bound never exceeds the horizon it stands for.
"""

from __future__ import annotations

import math

from repro.core.grouping import Grouping
from repro.core.makespan import cached_simulated_makespan
from repro.platform.cluster import ClusterSpec
from repro.workflow.ocean_atmosphere import EnsembleSpec


def booking_bound(cluster: ClusterSpec, spec: EnsembleSpec, width: int, n: int) -> float:
    """``t_W + TP``: ``W = ceil(NS·NM / n)`` additions of ``T(G)``, plus ``TP``."""
    gt = cluster.timing.main_time(width)
    t = 0.0
    for _ in range(math.ceil(spec.scenarios * spec.months / n)):
        t += gt
    return t + cluster.timing.post_time()


def exhaustive_reservation(
    cluster: ClusterSpec, spec: EnsembleSpec
) -> tuple[Grouping | None, list[tuple[float, float]]]:
    """The earliest-finishing booking and every booking's ``(bound, horizon)``.

    ``None`` when no booking fits on the cluster.
    """
    timing = cluster.timing
    resources = cluster.resources
    best_key: tuple[float, int, int, int] | None = None
    best: Grouping | None = None
    scored: list[tuple[float, float]] = []
    for width in timing.group_sizes:
        if width > resources:
            continue
        for n in range(1, min(spec.scenarios, resources // width) + 1):
            leftover = resources - n * width
            rate_matched = min(leftover, math.ceil(
                n * timing.post_time() / timing.main_time(width)
            ))
            bound = booking_bound(cluster, spec, width, n)
            for post in dict.fromkeys((rate_matched, leftover)):
                grouping = Grouping.uniform(width, n, resources, post_pool=post)
                horizon = cached_simulated_makespan(grouping, spec, timing)
                scored.append((bound, horizon))
                key = (horizon, n * width + post, width, n)
                if best_key is None or key < best_key:
                    best_key, best = key, grouping
    return best, scored
