"""The compute workloads: seeded inputs, timed rounds and output checks.

Every workload is built from ``--seed`` alone and replays the same
inputs in every round of a run, so the exact counts a round records
(cache hits and misses, journal bytes, fault events, ...) must repeat
from round to round.  Each workload calls ``repro`` only through its
public entry points; ``warm`` makes the first call, outside the timed
loop.

Input cost is held near constant across seeds on purpose — the seed
moves resource offsets, scenario counts, trace draws and job parameters
within narrow bands, never the size of the work — so runs on different
seeds can be compared.
"""

from __future__ import annotations

import dataclasses
import random
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any

from repro import obs
from repro.core.heuristics import HeuristicName, plan_grouping
from repro.core.makespan import clear_makespan_cache, makespan_cache_stats
from repro.exceptions import SchedulingError
from repro.experiments.sweep import SweepGrid, run_sweep
from repro.faults import hooks as fault_hooks
from repro.faults import trace as fault_trace
from repro.faults.trace import FaultKind, FaultProfile
from repro.middleware.deployment import run_campaign
from repro.middleware.recovery import run_campaign_with_faults
from repro.platform.benchmarks import (
    REFERENCE_CLUSTER_SPEEDS,
    benchmark_cluster,
    benchmark_grid,
)
from repro.schedulers.arena import ArenaGrid, ArenaPoint, run_arena
from repro.schedulers.base import get_scheduler
from repro.simulation.engine import simulate
from repro.workflow.ocean_atmosphere import EnsembleSpec

CLUSTERS = tuple(REFERENCE_CLUSTER_SPEEDS)
HEURISTICS = tuple(h.value for h in HeuristicName)

#: Rows re-derived through the scalar reference path per run.
REFERENCE_SAMPLE = 24


@dataclasses.dataclass
class Round:
    """One timed pass over a workload's inputs."""

    ops: int
    seconds: float
    #: wall time of each public call in the round, milliseconds
    call_ms: list[float]
    #: exact counts that must repeat between rounds of one seed
    counts: dict[str, int]
    #: the outputs, compared bit for bit between rounds
    outputs: list[Any]
    #: decision latencies reported by ``run_arena``, per scheduler
    decide_s: dict[str, list[float]] = dataclasses.field(default_factory=dict)
    #: mean of the calibration kernel times just before and after the round
    kernel_s: float = 0.0
    #: the same for the calibration exchange (``service`` only)
    exchange_s: float = 0.0
    #: the wall time a traced round's layer times add up to: ``seconds``,
    #: or for concurrent connections the sum of their threads' walls
    basis: float | None = None

    def __post_init__(self) -> None:
        if self.basis is None:
            self.basis = self.seconds


def _cache_delta(before: dict[str, int]) -> dict[str, int]:
    after = makespan_cache_stats()["simulated"]
    return {
        "sim_hits": after["hits"] - before["hits"],
        "sim_misses": after["misses"] - before["misses"],
    }


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


#: Distinct simulations a sweep draw needs — distinct ``(cluster, R, NS,
#: NM, grouping)`` among its feasible rows, fixed by the heuristics'
#: output, not by how the program caches.  Simulation is two thirds of
#: a sweep, and over seeds this count ranges 207-285; draws are redrawn
#: until it falls in this band, so every seed's sweep costs about the same.
SWEEP_SIMULATIONS = (235, 250)


def _sweep_grid(rng: random.Random, cluster: str) -> SweepGrid:
    """One cluster's axes: one R per fifth of 11..120, NS (10, 20) or (11, 19)."""
    resources = tuple(11 + 22 * k + rng.randrange(22) for k in range(5))
    shift = rng.randint(0, 1)
    return SweepGrid(
        clusters=(cluster,),
        resources=resources,
        scenarios=(10 + shift, 20 - shift),
        months=(12, 120),
        heuristics=HEURISTICS,
    )


def _distinct_simulations(grids: list[SweepGrid]) -> int:
    return len({
        (r.point.cluster, r.point.resources, r.point.scenarios, r.point.months,
         r.grouping)
        for grid in grids
        for r in run_sweep(grid).rows
        if r.makespan is not None
    })


class SweepWorkload:
    """Fig8-shaped, cold-cache, journaled ``run_sweep``, one call per cluster.

    ``observed`` runs every call inside ``obs.session()``, the way
    ``--metrics-out`` does, which today switches the sweep to the scalar
    planner and the reference engine.
    """

    unit = "configs"
    observed = False

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = _rng("sweep", seed)
        while True:
            self.grids = [_sweep_grid(rng, cluster) for cluster in CLUSTERS]
            low, high = SWEEP_SIMULATIONS
            if low <= _distinct_simulations(self.grids) <= high:
                break
        self.journal = workdir / "sweep.ndjson"
        self.sample_rng = random.Random(f"perfbench:sweep-sample:{seed}")

    def _call(self, grid: SweepGrid):
        clear_makespan_cache()
        if self.observed:
            with obs.session():
                return run_sweep(grid, journal_path=self.journal, resume=False)
        return run_sweep(grid, journal_path=self.journal, resume=False)

    @classmethod
    def warm(cls) -> None:
        """First call: a one-cell sweep (imports, numpy kernels, codecs)."""
        grid = SweepGrid(CLUSTERS[:1], (11,), (4,), (6,), HEURISTICS)
        with obs.session() if cls.observed else nullcontext():
            run_sweep(grid)

    def round(self) -> Round:
        counts = {"rows": 0, "infeasible": 0, "sim_hits": 0, "sim_misses": 0,
                  "journal_bytes": 0}
        outputs: list[Any] = []
        call_ms: list[float] = []
        started = time.perf_counter()
        for grid in self.grids:
            call_started = time.perf_counter()
            result = self._call(grid)
            call_ms.append((time.perf_counter() - call_started) * 1e3)
            stats = makespan_cache_stats()["simulated"]
            counts["sim_hits"] += stats["hits"]
            counts["sim_misses"] += stats["misses"]
            counts["journal_bytes"] += self.journal.stat().st_size
            counts["rows"] += len(result.rows)
            counts["infeasible"] += sum(r.makespan is None for r in result.rows)
            outputs.extend(result.rows)
        seconds = time.perf_counter() - started
        return Round(counts["rows"], seconds, call_ms, counts, outputs)

    def check(self, outputs: list[Any]) -> tuple[int, int]:
        """Re-derive a seeded sample through ``plan_grouping`` + reference engine."""
        failed = 0
        sample = self.sample_rng.sample(outputs, min(REFERENCE_SAMPLE, len(outputs)))
        for row in sample:
            point = row.point
            cluster = benchmark_cluster(point.cluster, point.resources)
            spec = EnsembleSpec(point.scenarios, point.months)
            try:
                grouping = plan_grouping(cluster, spec, point.heuristic)
            except SchedulingError:
                failed += not (row.makespan is None and row.grouping == "")
                continue
            makespan = simulate(grouping, spec, cluster.timing, fast=False).makespan
            failed += not (
                row.makespan == makespan and row.grouping == grouping.describe()
            )
        return len(sample), failed


class ObservedSweepWorkload(SweepWorkload):
    """The same sweep with collection on."""

    observed = True


#: Accepted weather of one arena fault label, summed over the grid's
#: cells: total events and cells whose trace crashes the cluster.  Label
#: seeds are drawn until both fall in these bands, so every seed's race
#: replays about the same amount of weather.
ARENA_EVENTS = (60, 75)
ARENA_CRASHES = (5, 10)


class ArenaWorkload:
    """Fig8 arena, all registered schedulers, fault-free plus two seeded labels.

    The resource axis is fig8's at step 8 (five values) so a round stays
    near a second.
    """

    unit = "points"

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = _rng("arena", seed)
        fault_free = ArenaGrid.from_preset("fig8", step=8)
        fault_seeds: list[int] = []
        while len(fault_seeds) < 2:
            candidate = rng.randrange(1, 1_000_000)
            if candidate not in fault_seeds and _steady_weather(fault_free, candidate):
                fault_seeds.append(candidate)
        base = ArenaGrid.from_preset("fig8", fault_seeds=fault_seeds, step=8)
        self.grids = [
            dataclasses.replace(base, clusters=(cluster,)) for cluster in base.clusters
        ]
        self.journal = workdir / "arena.ndjson"
        self.sample_rng = random.Random(f"perfbench:arena-sample:{seed}")

    def _call(self, grid: ArenaGrid, sink: dict[str, list[float]]):
        clear_makespan_cache()
        return run_arena(
            grid, journal_path=self.journal, resume=False, latency_sink=sink
        )

    @staticmethod
    def warm() -> None:
        """First call: a one-row race."""
        grid = ArenaGrid.from_preset("fig8", schedulers=("basic",))
        run_arena(dataclasses.replace(grid, clusters=CLUSTERS[:1], resources=(11,)))

    def round(self) -> Round:
        counts = {"rows": 0, "infeasible": 0, "crashed": 0, "sim_hits": 0,
                  "sim_misses": 0, "journal_bytes": 0}
        outputs: list[Any] = []
        call_ms: list[float] = []
        sink: dict[str, list[float]] = {}
        started = time.perf_counter()
        for grid in self.grids:
            call_started = time.perf_counter()
            result = self._call(grid, sink)
            call_ms.append((time.perf_counter() - call_started) * 1e3)
            stats = makespan_cache_stats()["simulated"]
            counts["sim_hits"] += stats["hits"]
            counts["sim_misses"] += stats["misses"]
            counts["journal_bytes"] += self.journal.stat().st_size
            counts["rows"] += len(result.rows)
            counts["infeasible"] += sum(r.makespan is None for r in result.rows)
            counts["crashed"] += sum(
                r.makespan is not None and not r.completed for r in result.rows
            )
            outputs.extend(result.rows)
        seconds = time.perf_counter() - started
        return Round(counts["rows"], seconds, call_ms, counts, outputs, sink)

    def check(self, outputs: list[Any]) -> tuple[int, int]:
        """Re-derive a seeded sample through ``decide`` + reference engine or replay."""
        grid = self.grids[0]
        failed = 0
        sample = self.sample_rng.sample(outputs, min(REFERENCE_SAMPLE, len(outputs)))
        for row in sample:
            point = row.point
            cluster = benchmark_cluster(point.cluster, point.resources)
            spec = EnsembleSpec(point.scenarios, point.months)
            try:
                grouping = get_scheduler(point.scheduler, seed=grid.seed).decide(
                    cluster, spec
                )
            except SchedulingError:
                failed += not (row.makespan is None and row.grouping == "")
                continue
            if point.fault == "none":
                makespan = simulate(grouping, spec, cluster.timing, fast=False).makespan
                completed = True
            else:
                trace = _arena_trace(grid, point)
                _, outcome = fault_hooks.simulate_with_faults(
                    grouping, spec, cluster.timing, trace, cluster_name=point.cluster
                )
                makespan, completed = outcome.makespan, not outcome.crashed
            failed += not (
                row.makespan == makespan
                and row.grouping == grouping.describe()
                and row.completed == completed
            )
        return len(sample), failed


def _steady_weather(grid: ArenaGrid, fault_seed: int) -> bool:
    """Whether a label's traces fall in the accepted weather bands."""
    events = crashes = 0
    for cluster in grid.clusters:
        for resources in grid.resources:
            trace = _arena_trace(grid, ArenaPoint(
                cluster, resources, grid.scenarios[0], grid.months[0],
                f"seed-{fault_seed}", "basic",
            ))
            events += len(trace)
            crashes += trace.counts_by_kind().get(FaultKind.CRASH.value, 0)
    return (ARENA_EVENTS[0] <= events <= ARENA_EVENTS[1]
            and ARENA_CRASHES[0] <= crashes <= ARENA_CRASHES[1])


def _arena_trace(grid: ArenaGrid, point: ArenaPoint):
    """The documented arena trace: seeded over the cell's basic makespan."""
    cluster = benchmark_cluster(point.cluster, point.resources)
    spec = EnsembleSpec(point.scenarios, point.months)
    timing = cluster.timing
    try:
        basic = plan_grouping(cluster, spec, HeuristicName.BASIC)
        horizon = simulate(basic, spec, timing, fast=False).makespan
    except SchedulingError:
        horizon = spec.scenarios * spec.months * (
            timing.main_time(timing.min_group) + timing.post_time()
        )
    profile = FaultProfile(
        mtbf_seconds=grid.mtbf_hours * 3600.0, mttr_seconds=grid.mttr_hours * 3600.0
    )
    seed = int(point.fault[len("seed-"):])
    return fault_trace.generate_trace({point.cluster: profile}, horizon, seed)


#: ``(clusters, R, NS, NM)`` strata of the campaign list.  The seed
#: jitters R by up to 2 processors and shuffles the order; NS and NM stay
#: put, because a performance vector costs ~NS^3 x NM and one more
#: scenario would move a campaign's cost by a third.
CAMPAIGN_STRATA = (
    (3, 40, 20, 24),
    (4, 60, 16, 24),
    (5, 80, 16, 36),
    (6, 100, 18, 12),
    (7, 118, 12, 24),
    (8, 50, 16, 24),
    (9, 70, 12, 36),
    (10, 90, 14, 12),
)


def campaign_list(seed: int) -> list[tuple[int, int, int, int]]:
    """The seeded campaign list, in a seeded order."""
    rng = _rng("campaign", seed)
    campaigns = [
        (
            clusters,
            resources + rng.randint(-2, 2),
            scenarios,
            months,
        )
        for clusters, resources, scenarios, months in CAMPAIGN_STRATA
    ]
    rng.shuffle(campaigns)
    return campaigns


#: The one replanned campaign of every ``campaign`` round, ``(clusters,
#: R, NS, NM)``: small on purpose.  Replanning allocates recovery DAGs,
#: and host contention slows it by a factor the calibration kernel does
#: not track (a separate replan workload spread 18-31% between runs), so
#: it is kept to a small share of the round while its layers are still
#: exercised.
REPLAN_SHAPE = (3, 40, 8, 12)
#: Fault events of the replanned campaign: exactly this many outages and
#: slowdowns.  Crashes are left out: a trace that crashes every cluster
#: is a legitimate refusal, and no operation of the benchmark may fail.
REPLAN_OUTAGES = 2
REPLAN_SLOWDOWNS = 1


class CampaignWorkload:
    """Eight fault-free §5 campaigns, then one replanned through faults.

    The fault-free campaigns run through ``run_campaign``.  Preparation
    (untimed) runs the replanned campaign fault-free to fix its horizon
    and predicted makespan, then draws trace seeds until the trace holds
    exactly :data:`REPLAN_OUTAGES` outages and :data:`REPLAN_SLOWDOWNS`
    slowdowns; its timed call is ``generate_trace`` plus
    ``run_campaign_with_faults``.
    """

    unit = "campaigns"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.campaigns = [
            (benchmark_grid(c, r), ns, nm) for c, r, ns, nm in campaign_list(seed)
        ]
        rng = _rng("replan", seed)
        clusters, resources, scenarios, months = REPLAN_SHAPE
        grid = benchmark_grid(clusters, resources + rng.randint(-2, 2))
        predicted = run_campaign(grid, scenarios, months).predicted_makespan
        profile = FaultProfile(
            mtbf_seconds=predicted * clusters / 3.0,
            mttr_seconds=predicted / 20.0,
            kind_weights=(0.0, 0.6, 0.4),
        )
        profiles = {name: profile for name in grid.names}
        while True:
            trace_seed = rng.randrange(1 << 30)
            kinds = fault_trace.generate_trace(
                profiles, predicted, trace_seed
            ).counts_by_kind()
            if kinds == {FaultKind.OUTAGE.value: REPLAN_OUTAGES,
                         FaultKind.SLOWDOWN.value: REPLAN_SLOWDOWNS}:
                break
        self.replan = (grid, scenarios, months, profiles, predicted, trace_seed)

    @staticmethod
    def warm() -> None:
        """First calls: a two-cluster campaign, fault-free and replanned."""
        grid = benchmark_grid(2, 40)
        run_campaign(grid, 4, 6)
        run_campaign_with_faults(grid, 4, 6, fault_trace.FaultTrace())

    def round(self) -> Round:
        call_ms: list[float] = []
        outputs: list[Any] = []
        before = makespan_cache_stats()["simulated"]
        started = time.perf_counter()
        for grid, scenarios, months in self.campaigns:
            call_started = time.perf_counter()
            result = run_campaign(grid, scenarios, months)
            call_ms.append((time.perf_counter() - call_started) * 1e3)
            outputs.append(
                (result.makespan, result.predicted_makespan,
                 result.repartition.counts)
            )
        grid, scenarios, months, profiles, predicted, trace_seed = self.replan
        call_started = time.perf_counter()
        trace = fault_trace.generate_trace(profiles, predicted, trace_seed)
        report = run_campaign_with_faults(grid, scenarios, months, trace)
        call_ms.append((time.perf_counter() - call_started) * 1e3)
        outputs.append(
            (report.original_makespan, predicted, report.makespan,
             report.months_lost, tuple(sorted(report.reassignment.items())))
        )
        seconds = time.perf_counter() - started
        counts = {"campaigns": len(outputs),
                  "scenarios": sum(sum(o[2]) for o in outputs[:-1]),
                  "fault_events": len(trace), "replans": report.replans,
                  **_cache_delta(before)}
        return Round(len(outputs), seconds, call_ms, counts, outputs)

    def check(self, outputs: list[Any]) -> tuple[int, int]:
        """Achieved = predicted makespan; the replanner's plan = the SeDs'.

        The replanner's fault-free makespan (scalar performance vectors)
        must equal the SeDs' predicted one, and the replanned makespan
        cannot beat it.
        """
        *campaigns, (original, predicted, final, _lost, _moves) = outputs
        failed = sum(achieved != expected for achieved, expected, _ in campaigns)
        failed += not (original == predicted and final >= original)
        return len(outputs), failed
