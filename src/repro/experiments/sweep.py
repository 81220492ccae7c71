"""Declarative parameter sweeps over the benchmark clusters.

The paper's figures are all sweeps over ``R × NS × heuristic``: a
:class:`SweepGrid` names the axes and :func:`run_sweep` evaluates them
through :func:`repro.experiments.gridrun.run_grid`, which owns the
chunking, the process-pool fan-out and the resumable journal.

Each point runs through the memoized kernels of
:mod:`repro.core.makespan` and the bookkeeping-free fast path of
:mod:`repro.simulation.engine`; the heuristic axis iterates innermost so
the points sharing a ``(cluster, R, NS, NM)`` kernel land in the same
chunk — and therefore the same worker-process cache.  Planning runs
through the vectorized kernels of :mod:`repro.core.batch`, one call per
cluster per chunk, with observability on or off.

Figure 8 and the ablation studies are sweeps too: they read
:meth:`SweepResult.cells`, every heuristic's makespan per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.core.heuristics import HeuristicName
from repro.core.makespan import (
    cached_simulated_makespan,
    set_makespan_cache_enabled,
)
from repro.exceptions import ConfigurationError
from repro.experiments.gridrun import GridKind, run_grid
from repro.experiments.results_io import (
    GenericResult,
    dump_result,
    register_codec,
)
from repro.experiments.runner import ALL_HEURISTICS, resource_sweep
from repro.workflow.ocean_atmosphere import EnsembleSpec

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "SweepGrid",
    "SweepPoint",
    "SweepResult",
    "SweepRow",
    "run_sweep",
]

#: Points per chunk when the caller does not choose.  A multiple of the
#: heuristic-axis length keeps every ``(cluster, R, NS, NM)`` kernel's
#: heuristics inside one chunk (one worker cache), and 32 points is a
#: few hundred milliseconds of work — fine-grained enough to journal and
#: to keep an 8-worker pool busy on figure-scale grids.
DEFAULT_CHUNK_SIZE = 32

_HEURISTIC_NAMES = tuple(h.value for h in ALL_HEURISTICS)

# Unused: the layer tracer in perfbench/layers.py rebinds this name here.
plan_grouping = None


@dataclass(frozen=True)
class SweepPoint:
    """One cell of a sweep grid: a cluster/ensemble/heuristic combination."""

    cluster: str
    resources: int
    scenarios: int
    months: int
    heuristic: str

    def key(self) -> tuple[str, int, int, int, str]:
        """The point's identity — what journals and resume match on."""
        return (
            self.cluster,
            self.resources,
            self.scenarios,
            self.months,
            self.heuristic,
        )


@dataclass(frozen=True)
class SweepGrid:
    """A declarative parameter grid: the cartesian product of five axes.

    Axes are tuples so grids hash and compare structurally; use
    :meth:`from_ranges` for the common ``r_min..r_max`` form.  Points
    enumerate in axis order with ``heuristic`` innermost.
    """

    clusters: tuple[str, ...]
    resources: tuple[int, ...]
    scenarios: tuple[int, ...]
    months: tuple[int, ...]
    heuristics: tuple[str, ...]

    def __post_init__(self) -> None:
        for axis in ("clusters", "resources", "scenarios", "months", "heuristics"):
            if not getattr(self, axis):
                raise ConfigurationError(f"sweep grid axis {axis!r} is empty")
        for axis in ("resources", "scenarios", "months"):
            for value in getattr(self, axis):
                if not isinstance(value, int) or value < 1:
                    raise ConfigurationError(
                        f"sweep grid axis {axis!r} needs integers >= 1, "
                        f"got {value!r}"
                    )
        for name in self.heuristics:
            try:
                HeuristicName(name)
            except ValueError:
                raise ConfigurationError(
                    f"unknown heuristic {name!r}; expected one of "
                    f"{_HEURISTIC_NAMES}"
                ) from None

    @classmethod
    def from_ranges(
        cls,
        *,
        clusters: Sequence[str] = ("sagittaire",),
        r_min: int = 11,
        r_max: int = 120,
        step: int = 1,
        scenarios: Sequence[int] = (10,),
        months: Sequence[int] = (12,),
        heuristics: Sequence[str] | None = None,
    ) -> "SweepGrid":
        """Build a grid from a figure-style resource range."""
        return cls(
            clusters=tuple(clusters),
            resources=tuple(resource_sweep(r_min, r_max, step)),
            scenarios=tuple(int(s) for s in scenarios),
            months=tuple(int(m) for m in months),
            heuristics=(
                _HEURISTIC_NAMES if heuristics is None else tuple(heuristics)
            ),
        )

    @property
    def size(self) -> int:
        """Total number of points in the grid."""
        return (
            len(self.clusters)
            * len(self.resources)
            * len(self.scenarios)
            * len(self.months)
            * len(self.heuristics)
        )

    def points(self) -> list[SweepPoint]:
        """Every point, in deterministic order (heuristic innermost)."""
        return [
            SweepPoint(cluster, r, ns, nm, heuristic)
            for cluster in self.clusters
            for r in self.resources
            for ns in self.scenarios
            for nm in self.months
            for heuristic in self.heuristics
        ]

    def as_dict(self) -> dict[str, Any]:
        """JSON form — also the journal's grid-identity line."""
        return {
            "clusters": list(self.clusters),
            "resources": list(self.resources),
            "scenarios": list(self.scenarios),
            "months": list(self.months),
            "heuristics": list(self.heuristics),
        }

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "SweepGrid":
        """Inverse of :meth:`as_dict`."""
        return cls(
            clusters=tuple(str(c) for c in raw["clusters"]),
            resources=tuple(int(r) for r in raw["resources"]),
            scenarios=tuple(int(s) for s in raw["scenarios"]),
            months=tuple(int(m) for m in raw["months"]),
            heuristics=tuple(str(h) for h in raw["heuristics"]),
        )


@dataclass(frozen=True)
class SweepRow:
    """One evaluated point: its simulated makespan and chosen grouping.

    ``makespan is None`` marks an infeasible point — the heuristic could
    not produce a grouping there (e.g. knapsack on too few processors);
    recording the miss keeps resumes from retrying it forever.
    """

    point: SweepPoint
    makespan: float | None
    grouping: str

    def as_dict(self) -> dict[str, Any]:
        """JSON form used by the journal and the ``sweep`` codec."""
        return {
            "cluster": self.point.cluster,
            "resources": self.point.resources,
            "scenarios": self.point.scenarios,
            "months": self.point.months,
            "heuristic": self.point.heuristic,
            "makespan": self.makespan,
            "grouping": self.grouping,
        }

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "SweepRow":
        """Inverse of :meth:`as_dict`."""
        makespan = raw["makespan"]
        return cls(
            point=SweepPoint(
                cluster=str(raw["cluster"]),
                resources=int(raw["resources"]),
                scenarios=int(raw["scenarios"]),
                months=int(raw["months"]),
                heuristic=str(raw["heuristic"]),
            ),
            makespan=None if makespan is None else float(makespan),
            grouping=str(raw["grouping"]),
        )


@dataclass(frozen=True)
class SweepResult:
    """A sweep's evaluated rows, in grid order.

    Carries no timings or environment details on purpose: a resumed
    sweep must compare equal to an uninterrupted one.
    """

    grid: SweepGrid
    rows: tuple[SweepRow, ...]

    @property
    def complete(self) -> bool:
        """Whether every grid point has a row."""
        return len(self.rows) == self.grid.size

    def cells(self) -> dict[tuple[str, int, int, int], dict[str, float]]:
        """Feasible makespans per ``(cluster, R, NS, NM)`` cell, by heuristic.

        Cells and heuristics keep grid order; infeasible points are left
        out, so a cell where no heuristic fits has no entry.
        """
        cells: dict[tuple[str, int, int, int], dict[str, float]] = {}
        for row in self.rows:
            if row.makespan is not None:
                cells.setdefault(row.point.key()[:4], {})[row.point.heuristic] = (
                    row.makespan
                )
        return cells

    def summary(self) -> dict[str, Any]:
        """Aggregate counts plus per-heuristic wins (JSON-friendly).

        A heuristic *wins* a ``(cluster, R, NS, NM)`` cell when it has
        the strictly smallest makespan there; exact ties award every
        tied heuristic.
        """
        cells = self.cells()
        feasible = sum(len(makespans) for makespans in cells.values())
        wins: dict[str, int] = {h: 0 for h in self.grid.heuristics}
        for makespans in cells.values():
            best = min(makespans.values())
            for heuristic, makespan in makespans.items():
                if makespan == best:
                    wins[heuristic] += 1
        return {
            "points": self.grid.size,
            "evaluated": len(self.rows),
            "feasible": feasible,
            "infeasible": len(self.rows) - feasible,
            "wins": wins,
        }


def _sweep_payload(result: SweepResult) -> dict[str, Any]:
    return {
        "grid": result.grid.as_dict(),
        "rows": [row.as_dict() for row in result.rows],
    }


def _sweep_restore(raw: dict[str, Any]) -> SweepResult:
    return SweepResult(
        grid=SweepGrid.from_dict(raw["grid"]),
        rows=tuple(SweepRow.from_dict(row) for row in raw["rows"]),
    )


register_codec("sweep", SweepResult, _sweep_payload, _sweep_restore)


# ---------------------------------------------------------------------------
# Evaluation (module-level: these run in worker processes).
# ---------------------------------------------------------------------------


def _eval_chunk(
    chunk: tuple[SweepPoint, ...], use_cache: bool = True
) -> tuple[SweepRow, ...]:
    """Evaluate one chunk (the unit shipped to worker processes).

    Each cluster's points are planned in one
    :func:`repro.core.batch.batch_plan_groupings` call (one ``G*``
    evaluation over the chunk's cells, one knapsack DP for all of them);
    simulation runs through the scalar cached kernel, so every row is
    bit-identical to ``plan_grouping`` plus ``simulate`` on its point
    (the batch-parity suite asserts this).
    """
    from repro.core.batch import batch_plan_groupings
    from repro.platform.benchmarks import benchmark_timing

    by_cluster: dict[str, list[int]] = {}
    for position, point in enumerate(chunk):
        by_cluster.setdefault(point.cluster, []).append(position)

    previous = set_makespan_cache_enabled(use_cache)
    try:
        rows: list[SweepRow | None] = [None] * len(chunk)
        for cluster_name, positions in by_cluster.items():
            timing = benchmark_timing(cluster_name)
            points = [chunk[p] for p in positions]
            groupings = batch_plan_groupings(
                timing,
                [(p.resources, p.scenarios, p.months, p.heuristic) for p in points],
            )
            for position, point, grouping in zip(
                positions, points, groupings, strict=True
            ):
                if grouping is None:
                    rows[position] = SweepRow(point, None, "")
                else:
                    spec = EnsembleSpec(point.scenarios, point.months)
                    makespan = cached_simulated_makespan(grouping, spec, timing)
                    rows[position] = SweepRow(point, makespan, grouping.describe())
        return tuple(row for row in rows if row is not None)
    finally:
        set_makespan_cache_enabled(previous)


# ---------------------------------------------------------------------------
# Journal codec.
# ---------------------------------------------------------------------------


def _grid_line(grid: SweepGrid) -> str:
    return dump_result(GenericResult(kind="sweep-grid", data={"grid": grid.as_dict()}))


def _rows_line(rows: Iterable[SweepRow]) -> str:
    return dump_result(
        GenericResult(
            kind="sweep-rows", data={"rows": [row.as_dict() for row in rows]}
        )
    )


_SWEEP = GridKind(
    name="sweep",
    what="grid",
    grid_line=_grid_line,
    rows_line=_rows_line,
    row_from_dict=SweepRow.from_dict,
    chunk_size=DEFAULT_CHUNK_SIZE,
    span="sweep.run",
    runs_metric="sweep.runs",
    points_metric="sweep.points",
    chunks_metric="sweep.chunks",
    seconds_metric="sweep.seconds",
    resumed_metric="sweep.resumed_points",
)


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------


def run_sweep(
    grid: SweepGrid,
    *,
    workers: int | None = None,
    chunk_size: int | None = None,
    journal_path: str | Path | None = None,
    resume: bool = True,
    max_chunks: int | None = None,
    use_cache: bool = True,
) -> SweepResult:
    """Evaluate a grid, journaling each chunk so the sweep is resumable.

    Parameters
    ----------
    workers:
        ``None``/``0``/``1`` evaluates serially; larger values fan the
        chunks out over a process pool.  Parallel results are
        bit-identical to serial ones.
    chunk_size:
        Points per chunk (default :data:`DEFAULT_CHUNK_SIZE`).  The
        journal advances one chunk at a time, so smaller chunks lose
        less work to an interruption.
    journal_path:
        NDJSON file to append completed chunks to.  When it already
        holds rows for this grid and ``resume`` is true, those points
        are skipped; set ``resume=False`` to overwrite.  ``None``
        disables journaling.
    max_chunks:
        Stop after this many chunks — a work budget.  The returned
        result is then partial (``result.complete`` is false) and a
        later call with the same journal finishes the remainder.
    use_cache:
        Route evaluation through the memoized kernels of
        :mod:`repro.core.makespan` (on by default; off recomputes every
        point, which the benchmarks use as the baseline).

    Returns the rows evaluated so far — journaled history plus this
    call's work — ordered by grid position.
    """
    rows = run_grid(
        _SWEEP,
        grid,
        partial(_eval_chunk, use_cache=use_cache),
        workers=workers,
        chunk_size=chunk_size,
        journal_path=journal_path,
        resume=resume,
        max_chunks=max_chunks,
    )
    return SweepResult(grid=grid, rows=rows)
