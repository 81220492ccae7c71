"""Timing models for the moldable main task and the post-processing task.

The scheduling heuristics of the paper consume a platform exclusively
through the table ``T[G]`` — the wall-clock time of one fused
main-processing task (*process_coupled_run* plus the two tiny
pre-processing tasks) on a group of ``G`` processors — and the scalar
``TP``, the duration of one fused post-processing task.  A
:class:`TimingModel` encapsulates exactly that interface.

Three concrete models are provided:

:class:`AmdahlTimingModel`
    Encodes the paper's structural knowledge of the application: the
    ARPEGE atmosphere is MPI-parallel but stops scaling above 8
    processors, while OPA, TRIP and the OASIS coupler are sequential and
    occupy one processor each.  Hence ``T(G) = pre + serial +
    parallel / min(G - 3, 8)`` for ``G ∈ [4, 11]``.

:class:`TableTimingModel`
    A direct lookup table, matching how the authors obtained their times
    (benchmarks on each Grid'5000 cluster).

:class:`ScaledTimingModel`
    Wraps another model and multiplies its times by a constant factor —
    the mechanism used to derive the five benchmark clusters of Section 6
    from a single reference calibration.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from types import MappingProxyType
from typing import Mapping

from repro import constants
from repro.exceptions import PlatformError

__all__ = [
    "TimingModel",
    "AmdahlTimingModel",
    "TableTimingModel",
    "ScaledTimingModel",
    "reference_timing",
]


class TimingModel(ABC):
    """Abstract timing of the two fused Ocean-Atmosphere tasks.

    Subclass constructors freeze the ``{G: T[G]}`` table over the
    admissible range ``min_group .. max_group`` into ``_table``, and
    subclasses implement :meth:`post_time`.  No time changes after
    construction: :meth:`main_time` is one lookup in that table, and all
    other behaviour (table export, speedup queries, validation) derives
    from those primitives.
    """

    #: Smallest admissible processor group for the main task.
    min_group: int = constants.MIN_GROUP_SIZE

    #: Largest useful processor group for the main task.
    max_group: int = constants.MAX_GROUP_SIZE

    #: ``{G: T[G]}`` over ``min_group .. max_group``, frozen at construction.
    _table: dict[int, float]

    def main_time(self, group_size: int) -> float:
        """Seconds for one fused main task on ``group_size`` processors.

        Raises :class:`PlatformError` (from :meth:`validate_group`) for a
        size outside the table.
        """
        if not isinstance(group_size, int) or group_size not in self._table:
            self.validate_group(group_size)
        return self._table[group_size]

    @abstractmethod
    def post_time(self) -> float:
        """Seconds for one fused post-processing task (single processor)."""

    # -- derived helpers ----------------------------------------------------

    @property
    def group_sizes(self) -> tuple[int, ...]:
        """Admissible group sizes, ``min_group .. max_group`` inclusive."""
        return tuple(range(self.min_group, self.max_group + 1))

    def validate_group(self, group_size: int) -> None:
        """Raise :class:`PlatformError` if ``group_size`` is inadmissible."""
        if not isinstance(group_size, int):
            raise PlatformError(f"group size must be an int, got {group_size!r}")
        if not self.min_group <= group_size <= self.max_group:
            raise PlatformError(
                f"group size {group_size} outside the admissible range "
                f"[{self.min_group}, {self.max_group}]"
            )

    def main_time_table(self) -> Mapping[int, float]:
        """The full ``{G: T[G]}`` table over the admissible range (read-only)."""
        return MappingProxyType(self._table)

    def speedup(self, group_size: int) -> float:
        """Speedup of ``group_size`` processors over the minimal group."""
        return self.main_time(self.min_group) / self.main_time(group_size)

    def efficiency(self, group_size: int) -> float:
        """Parallel efficiency relative to the minimal group.

        Normalized so that the minimal group has efficiency 1; larger
        groups trade efficiency for speed, which is exactly the tension
        the knapsack heuristic arbitrates.
        """
        return self.speedup(group_size) * self.min_group / group_size

    def work(self, group_size: int) -> float:
        """Processor-seconds consumed by one main task on a group."""
        return self.main_time(group_size) * group_size

    def is_monotone(self) -> bool:
        """True when ``T[G]`` is non-increasing in ``G`` (it should be)."""
        table = self.main_time_table()
        values = [table[g] for g in self.group_sizes]
        return all(a >= b for a, b in zip(values, values[1:], strict=False))

    def posts_per_main(self) -> int:
        """``⌊TG/TP⌋`` for the *fastest* group — a paper-formula building block.

        The analytic formulas use ``⌊TG/TP⌋`` with the ``TG`` of the
        currently considered grouping; this convenience uses the largest
        group and is only meant for quick diagnostics.
        """
        return math.floor(self.main_time(self.max_group) / self.post_time())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        t_min = self.main_time(self.min_group)
        t_max = self.main_time(self.max_group)
        return (
            f"<{type(self).__name__} T[{self.min_group}]={t_min:.0f}s "
            f"T[{self.max_group}]={t_max:.0f}s TP={self.post_time():.0f}s>"
        )


class AmdahlTimingModel(TimingModel):
    """Amdahl-style moldable timing for *process_coupled_run*.

    ``T(G) = pre + serial + parallel / a(G)`` with
    ``a(G) = min(G - sequential_components, max_parallel)`` the number of
    processors actually exploited by the atmosphere model.

    Parameters
    ----------
    serial_seconds:
        Time of the non-scaling part of the coupled run (OPA, TRIP,
        OASIS synchronization, I/O).
    parallel_seconds:
        Total atmosphere work in processor-seconds; divided by the number
        of atmosphere processors.
    pre_seconds, post_seconds:
        Durations of the fused pre- and post-processing phases; default
        to the paper's Figure 1 values (2 s and 180 s).
    sequential_components:
        Processors reserved for the sequential components (default 3).
    max_parallel:
        Atmosphere processor count beyond which speedup stops (default 8).
    """

    def __init__(
        self,
        serial_seconds: float,
        parallel_seconds: float,
        *,
        pre_seconds: float = constants.PRE_SECONDS,
        post_seconds: float = constants.POST_SECONDS,
        sequential_components: int = constants.SEQUENTIAL_COMPONENTS,
        max_parallel: int = constants.MAX_ATMOSPHERE_PROCS,
    ) -> None:
        if serial_seconds < 0 or parallel_seconds <= 0:
            raise PlatformError(
                "serial_seconds must be >= 0 and parallel_seconds > 0, got "
                f"{serial_seconds!r}, {parallel_seconds!r}"
            )
        if post_seconds <= 0:
            raise PlatformError(f"post_seconds must be > 0, got {post_seconds!r}")
        if sequential_components < 0 or max_parallel < 1:
            raise PlatformError(
                "need sequential_components >= 0 and max_parallel >= 1, got "
                f"{sequential_components!r}, {max_parallel!r}"
            )
        self.serial_seconds = float(serial_seconds)
        self.parallel_seconds = float(parallel_seconds)
        self.pre_seconds = float(pre_seconds)
        self._post_seconds = float(post_seconds)
        self.sequential_components = int(sequential_components)
        self.max_parallel = int(max_parallel)
        self.min_group = self.sequential_components + 1
        self.max_group = self.sequential_components + self.max_parallel
        self._table = {
            g: self.pre_seconds + self.serial_seconds
            + self.parallel_seconds / self.atmosphere_procs(g)
            for g in self.group_sizes
        }

    @classmethod
    def calibrated(
        cls,
        main_time_at_max: float,
        *,
        serial_fraction: float = 0.5,
        pre_seconds: float = constants.PRE_SECONDS,
        post_seconds: float = constants.POST_SECONDS,
        sequential_components: int = constants.SEQUENTIAL_COMPONENTS,
        max_parallel: int = constants.MAX_ATMOSPHERE_PROCS,
    ) -> "AmdahlTimingModel":
        """Build a model anchored to the time on the largest group.

        ``main_time_at_max`` is ``T(max_group)`` *including* the fused
        pre-processing.  ``serial_fraction`` is the share of the coupled
        run (excluding pre) that does not scale; the rest is atmosphere
        work spread over ``max_parallel`` processors.
        """
        if main_time_at_max <= pre_seconds:
            raise PlatformError(
                f"main_time_at_max ({main_time_at_max!r}) must exceed "
                f"pre_seconds ({pre_seconds!r})"
            )
        if not 0.0 <= serial_fraction < 1.0:
            raise PlatformError(
                f"serial_fraction must be in [0, 1), got {serial_fraction!r}"
            )
        pcr = main_time_at_max - pre_seconds
        serial = pcr * serial_fraction
        parallel = (pcr - serial) * max_parallel
        return cls(
            serial,
            parallel,
            pre_seconds=pre_seconds,
            post_seconds=post_seconds,
            sequential_components=sequential_components,
            max_parallel=max_parallel,
        )

    def atmosphere_procs(self, group_size: int) -> int:
        """Processors effectively used by the atmosphere model."""
        self.validate_group(group_size)
        return min(group_size - self.sequential_components, self.max_parallel)

    def post_time(self) -> float:
        return self._post_seconds


class TableTimingModel(TimingModel):
    """Timing backed by an explicit benchmark table ``{G: seconds}``.

    Mirrors the paper's methodology: the authors benchmarked
    *process_coupled_run* on each Grid'5000 cluster and fed the resulting
    table to the heuristics.  The table must cover a contiguous range of
    group sizes.
    """

    def __init__(
        self,
        main_table: Mapping[int, float],
        *,
        post_seconds: float = constants.POST_SECONDS,
    ) -> None:
        if not main_table:
            raise PlatformError("main_table must not be empty")
        sizes = sorted(main_table)
        if any(not isinstance(g, int) for g in sizes):
            raise PlatformError("group sizes in main_table must be ints")
        if sizes != list(range(sizes[0], sizes[-1] + 1)):
            raise PlatformError(
                f"main_table group sizes must be contiguous, got {sizes}"
            )
        if any(main_table[g] <= 0 for g in sizes):
            raise PlatformError("main_table times must all be positive")
        if post_seconds <= 0:
            raise PlatformError(f"post_seconds must be > 0, got {post_seconds!r}")
        self._table = {g: float(main_table[g]) for g in sizes}
        self._post_seconds = float(post_seconds)
        self.min_group = sizes[0]
        self.max_group = sizes[-1]

    def post_time(self) -> float:
        return self._post_seconds


class ScaledTimingModel(TimingModel):
    """A timing model derived from another one by a constant speed factor.

    ``factor > 1`` is a slower machine, ``factor < 1`` a faster one.  The
    post-processing time is scaled too by default — post tasks run on the
    same hardware — but can be pinned with ``scale_post=False`` to study
    platforms whose I/O-bound post phase does not follow CPU speed.
    """

    def __init__(
        self, base: TimingModel, factor: float, *, scale_post: bool = True
    ) -> None:
        if factor <= 0:
            raise PlatformError(f"factor must be > 0, got {factor!r}")
        self.base = base
        self.factor = float(factor)
        self.scale_post = bool(scale_post)
        self.min_group = base.min_group
        self.max_group = base.max_group
        self._table = {
            g: t * self.factor for g, t in base.main_time_table().items()
        }

    def post_time(self) -> float:
        if self.scale_post:
            return self.base.post_time() * self.factor
        return self.base.post_time()


def reference_timing(*, serial_fraction: float = 0.5) -> AmdahlTimingModel:
    """The calibrated reference machine of Figure 1.

    Anchored so that one fused main task on the full 11-processor group
    takes ``pre + pcr = 2 + 1260`` seconds, with the paper's 180-second
    post task.
    """
    return AmdahlTimingModel.calibrated(
        constants.PRE_SECONDS + constants.PCR_SECONDS,
        serial_fraction=serial_fraction,
    )
