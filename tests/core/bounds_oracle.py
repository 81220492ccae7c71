"""Makespan lower bounds: the engine's lower-bound oracle.

Two classical bounds apply to the ensemble-of-moldable-chains problem,
both independent of any grouping decision:

Chain bound
    Some scenario must run its ``NM`` months sequentially; even on a
    dedicated largest group, that takes ``NM · T[G_max]``, plus its last
    post task.  No schedule on any number of processors beats it.

Area bound
    The machine has ``R`` processors.  Every main task consumes at least
    ``min_G (G · T[G])`` processor-seconds (the work-minimizing width —
    *not* necessarily the smallest or largest group; the Amdahl tax on
    the 3 sequential components makes work U-shaped in G), and every
    post task exactly ``TP``.  Total work divided by ``R`` lower-bounds
    the makespan.

The combined bound is their maximum.  The engine tests assert that
every simulated schedule respects it: a violation would mean the
simulator invents parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import SchedulingError
from repro.platform.timing import TimingModel
from repro.workflow.ocean_atmosphere import EnsembleSpec


@dataclass(frozen=True)
class LowerBounds:
    """The two bounds and their maximum."""

    chain: float
    area: float

    @property
    def combined(self) -> float:
        """The tighter (larger) of the two bounds."""
        return max(self.chain, self.area)

    def gap_of(self, makespan: float) -> float:
        """Relative distance of a makespan above the combined bound (%).

        Negative values are impossible for correct schedules; the
        property tests rely on exactly that.
        """
        return (makespan - self.combined) / self.combined * 100.0


def lower_bounds(
    resources: int, spec: EnsembleSpec, timing: TimingModel
) -> LowerBounds:
    """Compute both lower bounds for one instance."""
    if resources < 1:
        raise SchedulingError(f"resources must be >= 1, got {resources!r}")

    fastest_main = min(timing.main_time(g) for g in timing.group_sizes)
    chain = spec.months * fastest_main + timing.post_time()

    min_work = min(g * timing.main_time(g) for g in timing.group_sizes)
    total_work = spec.total_months * (min_work + timing.post_time())
    area = total_work / resources

    return LowerBounds(chain=chain, area=area)
