"""The scheduler arena: race registered schedulers across grids and faults.

A race is a cartesian grid — clusters × resources × scenarios × months
× fault traces × schedulers — evaluated point by point: each scheduler
*decides* a grouping (validated, latency-timed), and the grouping is
simulated either fault-free (through the memoized kernels, so the paper
adapters reproduce the fig7/fig8 golden numbers bit-for-bit) or against
a seeded :class:`~repro.faults.trace.FaultTrace`.

Faults change how a grouping is scored, not which grouping a scheduler
picks: a decision depends only on ``(seed, cluster, spec)`` (the
:class:`~repro.schedulers.base.Scheduler` purity contract).  So each
scheduler decides once per ``(grid seed, cluster, R, NS, NM)`` and
every fault label of that cell reuses the decision through
:func:`repro.core.makespan.cached_decision` — the ``decision`` kind of
the kernel caches, bypassed by ``use_cache=False`` like the others.

The result reports the paper's own metric — gain over basic — plus
win/loss matrices and per-scheduler decision latency.

Races run, journal and resume through
:func:`repro.experiments.gridrun.run_grid`, like sweeps.  Rows
deliberately carry **no timings**: decision latency is a property of
the host that ran the race, so it flows through the ``latency_sink``
argument and the ``scheduler.decide_seconds`` metric, never the
journal — resume equality depends on it.

Fault axis entries are labels: ``"none"`` (fault-free) or
``"seed-<n>"`` (a trace drawn by :func:`~repro.faults.trace.generate_trace`
from the grid's MTBF/MTTR over the point's fault-free basic horizon,
seeded by ``n``).  The label, the seed, and the grid's fault statistics
are all part of the journal's grid identity, so a journal can never be
resumed against different chaos.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.core.batch import warm_dp_stack
from repro.core.grouping import Grouping
from repro.core.heuristics import HeuristicName, plan_grouping
from repro.core.makespan import (
    cached_decision,
    cached_simulated_makespan,
    set_makespan_cache_enabled,
)
from repro.exceptions import ConfigurationError, SchedulingError
from repro.experiments.gridrun import GridKind, run_grid
from repro.experiments.results_io import (
    GenericResult,
    dump_result,
    register_codec,
)
from repro.experiments.runner import resource_sweep
from repro.faults.hooks import FaultHook
from repro.faults.trace import FaultProfile, FaultTrace, generate_trace
from repro.platform.benchmarks import benchmark_cluster
from repro.platform.cluster import ClusterSpec
from repro.schedulers.base import get_scheduler, list_schedulers
from repro.workflow.ocean_atmosphere import EnsembleSpec

__all__ = [
    "ARENA_PRESETS",
    "DEFAULT_CHUNK_SIZE",
    "ArenaGrid",
    "ArenaPoint",
    "ArenaResult",
    "ArenaRow",
    "fault_label",
    "run_arena",
]

#: Points per chunk when the caller does not choose.  Arena points are
#: heavier than sweep points (each cell's first fault label decides and
#: every label replays faults), so chunks are half the sweep size; keep
#: it a multiple of typical scheduler-axis lengths so one cell's
#: competitors share a worker cache and a fault hook.  Decisions are
#: memoized per process, so a cell whose fault labels land in different
#: worker processes decides once in each.
DEFAULT_CHUNK_SIZE = 16

#: Fault-free label on the fault axis.
NO_FAULTS = "none"

#: Default fault statistics for seeded traces (transient-heavy grid
#: weather: one event every ~6 h, ~1 h to recover).  Part of the grid
#: identity, overridable per grid.
DEFAULT_MTBF_HOURS = 6.0
DEFAULT_MTTR_HOURS = 1.0


def fault_label(seed: int) -> str:
    """The fault-axis label for a seeded trace."""
    return f"seed-{int(seed)}"


def _fault_seed(label: str) -> int | None:
    """Parse a fault label; ``None`` means fault-free."""
    if label == NO_FAULTS:
        return None
    if label.startswith("seed-"):
        try:
            return int(label[len("seed-"):])
        except ValueError:
            pass
    raise ConfigurationError(
        f"bad fault label {label!r}; use {NO_FAULTS!r} or 'seed-<int>'"
    )


@dataclass(frozen=True)
class ArenaPoint:
    """One cell of a race: scheduler × platform × ensemble × fault trace."""

    cluster: str
    resources: int
    scenarios: int
    months: int
    fault: str
    scheduler: str

    def key(self) -> tuple[str, int, int, int, str, str]:
        """The point's identity — what journals and resume match on."""
        return (
            self.cluster,
            self.resources,
            self.scenarios,
            self.months,
            self.fault,
            self.scheduler,
        )

    def cell(self) -> tuple[str, int, int, int, str]:
        """Everything but the scheduler — the unit schedulers compete in."""
        return self.key()[:5]


@dataclass(frozen=True)
class ArenaGrid:
    """A declarative race: the cartesian product of six axes.

    ``seed`` is handed to every scheduler (stochastic competitors replay
    from it); ``mtbf_hours``/``mttr_hours`` parameterize seeded fault
    traces.  All three are part of the grid identity — the journal of a
    race under one chaos regime cannot resume under another.
    """

    clusters: tuple[str, ...]
    resources: tuple[int, ...]
    scenarios: tuple[int, ...]
    months: tuple[int, ...]
    faults: tuple[str, ...]
    schedulers: tuple[str, ...]
    seed: int = 0
    mtbf_hours: float = DEFAULT_MTBF_HOURS
    mttr_hours: float = DEFAULT_MTTR_HOURS

    def __post_init__(self) -> None:
        for axis in (
            "clusters", "resources", "scenarios", "months",
            "faults", "schedulers",
        ):
            if not getattr(self, axis):
                raise ConfigurationError(f"arena grid axis {axis!r} is empty")
        for axis in ("resources", "scenarios", "months"):
            for value in getattr(self, axis):
                if not isinstance(value, int) or value < 1:
                    raise ConfigurationError(
                        f"arena grid axis {axis!r} needs integers >= 1, "
                        f"got {value!r}"
                    )
        registered = list_schedulers()
        for name in self.schedulers:
            if name not in registered:
                raise ConfigurationError(
                    f"unknown scheduler {name!r}; registered: "
                    f"{sorted(registered)}"
                )
        for label in self.faults:
            _fault_seed(label)
        if self.mtbf_hours <= 0 or self.mttr_hours <= 0:
            raise ConfigurationError(
                f"mtbf_hours and mttr_hours must be > 0, got "
                f"{self.mtbf_hours!r}/{self.mttr_hours!r}"
            )

    @classmethod
    def from_preset(
        cls,
        preset: str,
        *,
        schedulers: Sequence[str] | None = None,
        fault_seeds: Sequence[int] = (),
        include_fault_free: bool = True,
        seed: int = 0,
        r_min: int | None = None,
        r_max: int | None = None,
        step: int | None = None,
        scenarios: int | None = None,
        months: int | None = None,
        mtbf_hours: float = DEFAULT_MTBF_HOURS,
        mttr_hours: float = DEFAULT_MTTR_HOURS,
    ) -> "ArenaGrid":
        """A race grid shaped like one of the paper's figures.

        Presets mirror the golden-fixture parameters (see
        ``tests/data/regenerate_golden.py``); any of the range knobs
        may be overridden for quicker CI-scale races.  The fault axis
        is fault-free plus one label per entry of ``fault_seeds``.
        """
        if preset not in ARENA_PRESETS:
            raise ConfigurationError(
                f"unknown arena preset {preset!r}; "
                f"valid presets: {sorted(ARENA_PRESETS)}"
            )
        base = ARENA_PRESETS[preset]
        faults: list[str] = [NO_FAULTS] if include_fault_free else []
        faults.extend(fault_label(s) for s in fault_seeds)
        if not faults:
            raise ConfigurationError(
                "a race needs at least one fault axis entry; pass "
                "fault_seeds or include_fault_free=True"
            )
        names = tuple(schedulers) if schedulers is not None else list_schedulers()
        return cls(
            clusters=base["clusters"],
            resources=tuple(resource_sweep(
                base["r_min"] if r_min is None else r_min,
                base["r_max"] if r_max is None else r_max,
                base["step"] if step is None else step,
            )),
            scenarios=(base["scenarios"] if scenarios is None else scenarios,),
            months=(base["months"] if months is None else months,),
            faults=tuple(faults),
            schedulers=names,
            seed=seed,
            mtbf_hours=mtbf_hours,
            mttr_hours=mttr_hours,
        )

    @property
    def size(self) -> int:
        """Total number of points in the race."""
        return (
            len(self.clusters)
            * len(self.resources)
            * len(self.scenarios)
            * len(self.months)
            * len(self.faults)
            * len(self.schedulers)
        )

    def points(self) -> list[ArenaPoint]:
        """Every point, in deterministic order (scheduler innermost)."""
        return [
            ArenaPoint(cluster, r, ns, nm, fault, scheduler)
            for cluster in self.clusters
            for r in self.resources
            for ns in self.scenarios
            for nm in self.months
            for fault in self.faults
            for scheduler in self.schedulers
        ]

    def as_dict(self) -> dict[str, Any]:
        """JSON form — also the journal's grid-identity line."""
        return {
            "clusters": list(self.clusters),
            "resources": list(self.resources),
            "scenarios": list(self.scenarios),
            "months": list(self.months),
            "faults": list(self.faults),
            "schedulers": list(self.schedulers),
            "seed": self.seed,
            "mtbf_hours": self.mtbf_hours,
            "mttr_hours": self.mttr_hours,
        }

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "ArenaGrid":
        """Inverse of :meth:`as_dict`."""
        return cls(
            clusters=tuple(str(c) for c in raw["clusters"]),
            resources=tuple(int(r) for r in raw["resources"]),
            scenarios=tuple(int(s) for s in raw["scenarios"]),
            months=tuple(int(m) for m in raw["months"]),
            faults=tuple(str(f) for f in raw["faults"]),
            schedulers=tuple(str(s) for s in raw["schedulers"]),
            seed=int(raw.get("seed", 0)),
            mtbf_hours=float(raw.get("mtbf_hours", DEFAULT_MTBF_HOURS)),
            mttr_hours=float(raw.get("mttr_hours", DEFAULT_MTTR_HOURS)),
        )


#: Figure-shaped race presets, mirroring the golden-fixture parameters.
#: fig10's multi-cluster degradation story maps onto the fault axis
#: (seeded outages) rather than the paper's cluster-count axis.
ARENA_PRESETS: dict[str, dict[str, Any]] = {
    "fig7": {
        "clusters": ("sagittaire",),
        "r_min": 11, "r_max": 60, "step": 1,
        "scenarios": 10, "months": 12,
    },
    "fig8": {
        "clusters": ("sagittaire", "grelon", "chti", "paravent", "azur"),
        "r_min": 11, "r_max": 43, "step": 4,
        "scenarios": 10, "months": 12,
    },
    "fig10": {
        "clusters": ("sagittaire", "grelon", "chti", "paravent", "azur"),
        "r_min": 11, "r_max": 43, "step": 8,
        "scenarios": 10, "months": 12,
    },
}


@dataclass(frozen=True)
class ArenaRow:
    """One evaluated point.

    ``makespan is None`` marks an infeasible point (the scheduler could
    not produce a grouping there); ``completed`` is false when a fault
    trace crashed the run before the last month (the recorded makespan
    is then the progress horizon at the crash).  No timings on purpose:
    a resumed race must compare equal to an uninterrupted one.
    """

    point: ArenaPoint
    makespan: float | None
    grouping: str
    completed: bool

    def as_dict(self) -> dict[str, Any]:
        """JSON form used by the journal and the ``arena`` codec."""
        return {
            "cluster": self.point.cluster,
            "resources": self.point.resources,
            "scenarios": self.point.scenarios,
            "months": self.point.months,
            "fault": self.point.fault,
            "scheduler": self.point.scheduler,
            "makespan": self.makespan,
            "grouping": self.grouping,
            "completed": self.completed,
        }

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "ArenaRow":
        """Inverse of :meth:`as_dict`."""
        makespan = raw["makespan"]
        return cls(
            point=ArenaPoint(
                cluster=str(raw["cluster"]),
                resources=int(raw["resources"]),
                scenarios=int(raw["scenarios"]),
                months=int(raw["months"]),
                fault=str(raw["fault"]),
                scheduler=str(raw["scheduler"]),
            ),
            makespan=None if makespan is None else float(makespan),
            grouping=str(raw["grouping"]),
            completed=bool(raw["completed"]),
        )


@dataclass(frozen=True)
class ArenaResult:
    """A race's evaluated rows, in grid order."""

    grid: ArenaGrid
    rows: tuple[ArenaRow, ...]

    @property
    def complete(self) -> bool:
        """Whether every grid point has a row."""
        return len(self.rows) == self.grid.size

    def row_for(self, point: ArenaPoint) -> ArenaRow:
        """The row recorded for one point (KeyError if absent)."""
        for row in self.rows:
            if row.point == point:
                return row
        raise KeyError(point)

    def cells(self) -> dict[tuple, dict[str, ArenaRow]]:
        """Rows grouped by competition cell: ``{cell: {scheduler: row}}``."""
        grouped: dict[tuple, dict[str, ArenaRow]] = {}
        for row in self.rows:
            grouped.setdefault(row.point.cell(), {})[row.point.scheduler] = row
        return grouped

    def gain_rows(self, baseline: str = "basic") -> dict[tuple, dict[str, float]]:
        """Per-cell gain-over-baseline percentages (the paper's metric).

        Cells where the baseline is infeasible or did not complete are
        skipped; within a cell, so are competitors without a completed
        makespan.  Scored in one vectorized pass via
        :func:`repro.core.batch.batch_gains_over_baseline`, which is
        bit-for-bit equal to the per-cell
        :func:`repro.analysis.gains.gains_over_baseline` the figures
        use — so paper-adapter gains match the golden fixtures exactly.
        """
        from repro.core.batch import batch_gains_over_baseline

        keys: list[tuple] = []
        scored: list[dict[str, float]] = []
        for cell, by_scheduler in self.cells().items():
            base = by_scheduler.get(baseline)
            if base is None or base.makespan is None or not base.completed:
                continue
            makespans = {
                name: row.makespan
                for name, row in by_scheduler.items()
                if row.makespan is not None and row.completed
            }
            if baseline not in makespans:
                continue
            keys.append(cell)
            scored.append(makespans)
        return dict(
            zip(keys, batch_gains_over_baseline(scored, baseline_key=baseline), strict=True)
        )

    def mean_gains(self, baseline: str = "basic") -> dict[str, float]:
        """Mean gain over the baseline per scheduler, across scored cells."""
        totals: dict[str, list[float]] = {}
        for cell_gains in self.gain_rows(baseline).values():
            for name, gain in cell_gains.items():
                totals.setdefault(name, []).append(gain)
        return {
            name: sum(values) / len(values)
            for name, values in totals.items()
        }

    def win_matrix(self) -> dict[str, dict[str, int]]:
        """Pairwise wins: ``matrix[a][b]`` counts cells where ``a``
        strictly beats ``b`` (both feasible and completed; ties and
        one-sided infeasibility score for neither).
        """
        names = self.grid.schedulers
        matrix: dict[str, dict[str, int]] = {
            a: {b: 0 for b in names if b != a} for a in names
        }
        for by_scheduler in self.cells().values():
            scored = {
                name: row.makespan
                for name, row in by_scheduler.items()
                if row.makespan is not None and row.completed
            }
            for a in names:
                for b in names:
                    if a == b or a not in scored or b not in scored:
                        continue
                    if scored[a] < scored[b]:
                        matrix[a][b] += 1
        return matrix

    def summary(self) -> dict[str, Any]:
        """Aggregate race standings (JSON-friendly).

        A scheduler *wins* a cell when it has the strictly smallest
        completed makespan there; exact ties award every tied scheduler.
        """
        evaluated = [row for row in self.rows if row.makespan is not None]
        completed = [row for row in evaluated if row.completed]
        wins: dict[str, int] = {s: 0 for s in self.grid.schedulers}
        for by_scheduler in self.cells().values():
            scored = {
                name: row.makespan
                for name, row in by_scheduler.items()
                if row.makespan is not None and row.completed
            }
            if not scored:
                continue
            best = min(scored.values())
            for name, makespan in scored.items():
                if makespan == best:
                    wins[name] += 1
        return {
            "points": self.grid.size,
            "evaluated": len(self.rows),
            "feasible": len(evaluated),
            "completed": len(completed),
            "crashed": len(evaluated) - len(completed),
            "wins": wins,
            "mean_gain_over_basic": self.mean_gains(),
            "win_matrix": self.win_matrix(),
        }

    def standings(self) -> tuple[list[list[Any]], list[list[Any]]]:
        """The standings and win-matrix rows, as every view prints them.

        Standings rows are ``[scheduler, wins, mean gain vs basic (%)]``
        in grid order, the gain as text: ``baseline`` for basic, ``-``
        for a scheduler never scored.  Matrix rows are ``[a, *cells]``:
        the cells where ``a`` strictly beats each column's scheduler,
        ``-`` on the diagonal.
        """
        summary = self.summary()
        gains = summary["mean_gain_over_basic"]
        matrix = summary["win_matrix"]
        names = self.grid.schedulers
        standings = [
            [
                name,
                summary["wins"][name],
                "baseline" if name == "basic" else (
                    f"{gains[name]:+.2f}" if name in gains else "-"
                ),
            ]
            for name in names
        ]
        rows = [[a, *("-" if a == b else matrix[a][b] for b in names)] for a in names]
        return standings, rows


def _arena_payload(result: ArenaResult) -> dict[str, Any]:
    return {
        "grid": result.grid.as_dict(),
        "rows": [row.as_dict() for row in result.rows],
    }


def _arena_restore(raw: dict[str, Any]) -> ArenaResult:
    return ArenaResult(
        grid=ArenaGrid.from_dict(raw["grid"]),
        rows=tuple(ArenaRow.from_dict(row) for row in raw["rows"]),
    )


register_codec("arena", ArenaResult, _arena_payload, _arena_restore)


# ---------------------------------------------------------------------------
# Evaluation (module-level: these run in worker processes).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ChaosConfig:
    """The grid knobs evaluation needs beyond the point itself."""

    seed: int
    mtbf_hours: float
    mttr_hours: float


def _trace_for_point(
    point: ArenaPoint,
    cluster: Any,
    spec: EnsembleSpec,
    config: _ChaosConfig,
    fault_seed: int,
) -> FaultTrace:
    """The seeded trace every scheduler in this cell faces.

    The horizon is the cell's fault-free *basic* makespan — scheduler-
    independent, so competitors in one cell race against identical
    weather.  Where even basic is infeasible, a serial upper bound
    (every month at the narrowest width, posts after) keeps the horizon
    deterministic.
    """
    timing = cluster.timing
    try:
        base = plan_grouping(cluster, spec, HeuristicName.BASIC)
        horizon = cached_simulated_makespan(base, spec, timing)
    except SchedulingError:
        horizon = spec.scenarios * spec.months * (
            timing.main_time(timing.min_group) + timing.post_time()
        )
    profile = FaultProfile(
        mtbf_seconds=config.mtbf_hours * 3600.0,
        mttr_seconds=config.mttr_hours * 3600.0,
    )
    return generate_trace({point.cluster: profile}, horizon, fault_seed)


def _decide(
    name: str, seed: int, cluster: Any, spec: EnsembleSpec
) -> tuple[Grouping | None, float]:
    """One fresh decision: ``(grouping, seconds)``, ``None`` if infeasible."""
    scheduler = get_scheduler(name, seed=seed)
    started = time.perf_counter()
    try:
        grouping: Grouping | None = scheduler.decide(cluster, spec)
    except SchedulingError:
        grouping = None
    return grouping, time.perf_counter() - started


def _eval_point(
    point: ArenaPoint,
    cluster: ClusterSpec,
    config: _ChaosConfig,
    hooks: dict[tuple, FaultHook],
) -> tuple[ArenaRow, float]:
    """Decide and simulate one point; returns ``(row, decide_seconds)``.

    The latency is returned *beside* the row, never inside it: rows are
    journaled and must be identical across hosts and resumes.  The
    decision is memoized on the point without its fault label plus the
    grid seed, so a point that reuses one reports that decision's
    measured latency.  ``hooks`` memoizes each cell's compiled fault
    hook: every scheduler of a cell faces the same trace.
    """
    from repro.faults.hooks import simulate_with_faults

    spec = EnsembleSpec(point.scenarios, point.months)
    grouping, decide_seconds = cached_decision(
        (point.scheduler, config.seed, point.cluster, point.resources,
         point.scenarios, point.months),
        partial(_decide, point.scheduler, config.seed, cluster, spec),
    )
    if grouping is None:
        return ArenaRow(point, None, "", False), decide_seconds

    fault_seed = _fault_seed(point.fault)
    if fault_seed is None:
        makespan = cached_simulated_makespan(grouping, spec, cluster.timing)
        completed = True
    else:
        hook = hooks.get(point.cell())
        if hook is None:
            trace = _trace_for_point(point, cluster, spec, config, fault_seed)
            hook = hooks[point.cell()] = FaultHook.from_trace(
                trace, point.cluster
            )
        _, outcome = simulate_with_faults(
            grouping, spec, cluster.timing, hook, cluster_name=point.cluster
        )
        makespan = outcome.makespan
        completed = not outcome.crashed
    return (
        ArenaRow(point, makespan, grouping.describe(), completed),
        decide_seconds,
    )


def _eval_chunk(
    chunk: tuple[ArenaPoint, ...],
    config: _ChaosConfig,
    use_cache: bool = True,
    dp_ceiling: tuple[int, int] = (0, 0),
) -> tuple[tuple[ArenaRow, ...], tuple[float, ...]]:
    """Evaluate one chunk (the unit shipped to worker processes).

    The chunk memoizes each ``(cluster, R)``'s benchmark cluster and
    each cell's fault hook; both memos live and die with the chunk, so
    worker processes share nothing.  ``dp_ceiling`` is the grid's
    largest ``(R, NS)``: before a cluster's first decision that reads
    the knapsack ``dp`` stack, the chunk builds that stack at the
    ceiling (a cache hit once an earlier chunk has), so every
    knapsack-family decision of the race traces back from one stack.
    """
    previous = set_makespan_cache_enabled(use_cache)
    clusters: dict[tuple[str, int], ClusterSpec] = {}
    hooks: dict[tuple, FaultHook] = {}
    warmed: set[str] = set()
    results = []
    try:
        for point in chunk:
            cluster = clusters.get((point.cluster, point.resources))
            if cluster is None:
                cluster = clusters[point.cluster, point.resources] = (
                    benchmark_cluster(point.cluster, point.resources)
                )
            if (
                point.cluster not in warmed
                and get_scheduler(point.scheduler).reads_dp_stack
            ):
                warm_dp_stack(cluster.timing, *dp_ceiling)
                warmed.add(point.cluster)
            results.append(_eval_point(point, cluster, config, hooks))
    finally:
        set_makespan_cache_enabled(previous)
    return (
        tuple(row for row, _ in results),
        tuple(latency for _, latency in results),
    )


# ---------------------------------------------------------------------------
# Journal codec.
# ---------------------------------------------------------------------------


def _grid_line(grid: ArenaGrid) -> str:
    return dump_result(
        GenericResult(kind="arena-grid", data={"grid": grid.as_dict()})
    )


def _rows_line(rows: Iterable[ArenaRow]) -> str:
    return dump_result(
        GenericResult(
            kind="arena-rows", data={"rows": [row.as_dict() for row in rows]}
        )
    )


_ARENA = GridKind(
    name="arena",
    what="race",
    grid_line=_grid_line,
    rows_line=_rows_line,
    grid_from_dict=ArenaGrid.from_dict,
    row_from_dict=ArenaRow.from_dict,
    result=ArenaResult,
    chunk_size=DEFAULT_CHUNK_SIZE,
    span="arena.race",
    runs_metric="arena.races",
    points_metric="arena.points",
    chunks_metric="arena.chunks",
    seconds_metric="arena.seconds",
    resumed_metric="arena.resumed_points",
)


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------


def run_arena(
    grid: ArenaGrid,
    *,
    workers: int | None = None,
    chunk_size: int | None = None,
    journal_path: str | Path | None = None,
    resume: bool = True,
    max_chunks: int | None = None,
    use_cache: bool = True,
    latency_sink: dict[str, list[float]] | None = None,
) -> ArenaResult:
    """Race a grid, journaling each chunk so the race is resumable.

    The contract mirrors :func:`repro.experiments.sweep.run_sweep`:
    ``workers in (None, 0, 1)`` is serial, the journal advances one
    chunk at a time, ``max_chunks`` caps this call's work (the result
    is then partial and a later call with the same journal finishes),
    and a resumed race equals an uninterrupted one row for row.

    ``latency_sink``, when given, collects one decision latency per
    point *this call* evaluated, keyed by scheduler name — resumed
    points contribute none (their decisions happened in an earlier
    process).  A point that reused its cell's decision from another
    fault label reports that decision's measured latency; every cell
    has the same number of labels, so per-scheduler means and
    percentiles are those of the decisions actually made.  Latency
    also flows through the ``scheduler.decide_seconds`` metric, once
    per decision made, when observability is on.  ``use_cache=False``
    bypasses the decision memo with the kernel caches: every point
    decides afresh.
    """
    def collect(
        result: tuple[tuple[ArenaRow, ...], tuple[float, ...]],
    ) -> tuple[ArenaRow, ...]:
        rows, latencies = result
        if latency_sink is not None:
            for row, latency in zip(rows, latencies):
                latency_sink.setdefault(row.point.scheduler, []).append(latency)
        return rows

    config = _ChaosConfig(grid.seed, grid.mtbf_hours, grid.mttr_hours)
    rows = run_grid(
        _ARENA,
        grid,
        partial(
            _eval_chunk,
            config=config,
            use_cache=use_cache,
            dp_ceiling=(max(grid.resources), max(grid.scenarios)),
        ),
        workers=workers,
        chunk_size=chunk_size,
        journal_path=journal_path,
        resume=resume,
        max_chunks=max_chunks,
        collect=collect,
        schedulers=len(grid.schedulers),
    )
    return ArenaResult(grid=grid, rows=rows)
