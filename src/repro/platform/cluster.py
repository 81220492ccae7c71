"""Cluster descriptions.

A cluster, in the paper's sense, is a pool of *homogeneous* processors
with shared data access ("data on a site are available to all of its
nodes").  The heuristics therefore need only the processor count and the
timing model; individual node identities matter only to the simulator,
which indexes processors ``0 .. resources-1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.exceptions import PlatformError
from repro.platform.timing import TimingModel

__all__ = ["ClusterSpec"]


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster.

    Parameters
    ----------
    name:
        Human-readable identifier (e.g. the Grid'5000 site/cluster name).
    resources:
        Total number of processors ``R``.
    timing:
        The cluster's :class:`~repro.platform.timing.TimingModel`.
    """

    name: str
    resources: int
    timing: TimingModel = field(repr=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise PlatformError("cluster name must be non-empty")
        if not isinstance(self.resources, int) or self.resources < 1:
            raise PlatformError(
                f"cluster {self.name!r}: resources must be a positive int, "
                f"got {self.resources!r}"
            )
        if not isinstance(self.timing, TimingModel):
            raise PlatformError(
                f"cluster {self.name!r}: timing must be a TimingModel, "
                f"got {type(self.timing).__name__}"
            )

    # -- convenience accessors used throughout the heuristics ---------------

    def main_time(self, group_size: int) -> float:
        """``T[G]`` on this cluster."""
        return self.timing.main_time(group_size)

    def post_time(self) -> float:
        """``TP`` on this cluster."""
        return self.timing.post_time()

    def main_time_table(self) -> Mapping[int, float]:
        """The cluster's full ``{G: T[G]}`` benchmark table."""
        return self.timing.main_time_table()

    @property
    def group_sizes(self) -> tuple[int, ...]:
        """Admissible main-task group sizes on this cluster."""
        return self.timing.group_sizes

    def can_run_main(self) -> bool:
        """Whether at least one main-task group fits on the cluster."""
        return self.resources >= self.timing.min_group

    def with_resources(self, resources: int) -> "ClusterSpec":
        """A copy of this cluster with a different processor count."""
        return replace(self, resources=resources)

    def describe(self) -> str:
        """One-line human-readable summary."""
        t = self.timing
        return (
            f"{self.name}: R={self.resources}, "
            f"T[{t.min_group}]={t.main_time(t.min_group):.0f}s, "
            f"T[{t.max_group}]={t.main_time(t.max_group):.0f}s, "
            f"TP={t.post_time():.0f}s"
        )
