"""Shared helpers for the experiment drivers."""

from __future__ import annotations

import time
from functools import partial
from typing import Iterable, Sequence

from repro import obs
from repro.core.heuristics import HeuristicName, plan_grouping
from repro.exceptions import ConfigurationError, SchedulingError
from repro.platform.cluster import ClusterSpec
from repro.simulation.engine import simulate
from repro.workflow.ocean_atmosphere import EnsembleSpec

__all__ = [
    "ALL_HEURISTICS",
    "IMPROVEMENT_LABELS",
    "simulated_makespan",
    "makespans_by_heuristic",
    "run_cluster_simulation",
    "resource_sweep",
    "parallel_map",
]

#: Every heuristic, baseline first (the order figures report them in).
ALL_HEURISTICS: tuple[HeuristicName, ...] = (
    HeuristicName.BASIC,
    HeuristicName.REDISTRIBUTE,
    HeuristicName.ALLPOST_END,
    HeuristicName.KNAPSACK,
)

#: The paper's names for the improvement curves.
IMPROVEMENT_LABELS: dict[HeuristicName, str] = {
    HeuristicName.REDISTRIBUTE: "gain1 (redistribute idle)",
    HeuristicName.ALLPOST_END: "gain2 (all posts at end)",
    HeuristicName.KNAPSACK: "gain3 (knapsack)",
}


def simulated_makespan(
    cluster: ClusterSpec, spec: EnsembleSpec, heuristic: HeuristicName | str
) -> float:
    """Plan with ``heuristic`` and simulate; the figures' atomic step."""
    if obs.enabled():
        obs.inc(
            "experiment.simulations",
            heuristic=HeuristicName(heuristic).value,
            cluster=cluster.name,
        )
    grouping = plan_grouping(cluster, spec, heuristic)
    return simulate(
        grouping, spec, cluster.timing, cluster_name=cluster.name
    ).makespan


def makespans_by_heuristic(
    cluster: ClusterSpec,
    spec: EnsembleSpec,
    heuristics: Sequence[HeuristicName] = ALL_HEURISTICS,
) -> dict[str, float]:
    """Simulated makespan of every heuristic on one cluster.

    Heuristics that cannot produce a grouping on this cluster (too few
    processors) are skipped — Figure sweeps start at R=11 where all of
    them fit, but callers may probe smaller machines.
    """
    result: dict[str, float] = {}
    for heuristic in heuristics:
        try:
            result[heuristic.value] = simulated_makespan(cluster, spec, heuristic)
        except SchedulingError:
            continue
    if not result:
        raise SchedulingError(
            f"no heuristic can schedule on cluster {cluster.name!r} "
            f"({cluster.resources} processors)"
        )
    return result


def run_cluster_simulation(
    cluster_name: str,
    resources: int,
    spec: EnsembleSpec,
    heuristic: HeuristicName | str,
    *,
    record_trace: bool = False,
):
    """Plan and simulate one ensemble on a named benchmark cluster.

    The single-cluster job callable: module-level (hence picklable for
    worker processes) and parameterized by plain values, it is the path
    both ``repro-oa simulate`` and the campaign service's ``simulate``
    job kind go through.  Returns the full
    :class:`~repro.simulation.engine.SimulationResult`.
    """
    from repro.platform.benchmarks import benchmark_cluster
    from repro.simulation.engine import simulate_on_cluster

    with obs.span(
        "runner.simulate",
        cluster=cluster_name,
        resources=resources,
        heuristic=HeuristicName(heuristic).value,
    ):
        cluster = benchmark_cluster(cluster_name, resources)
        grouping = plan_grouping(cluster, spec, heuristic)
        return simulate_on_cluster(
            cluster, grouping, spec, record_trace=record_trace
        )


def resource_sweep(
    r_min: int, r_max: int, step: int = 1
) -> list[int]:
    """The resource counts of a figure sweep, bounds validated."""
    if r_min < 1 or r_max < r_min or step < 1:
        raise ConfigurationError(
            f"invalid sweep: r_min={r_min!r}, r_max={r_max!r}, step={step!r}"
        )
    return list(range(r_min, r_max + 1, step))


def parallel_map(fn, items, *, workers: int | None = None) -> list:
    """Map ``fn`` over ``items``, optionally across worker processes.

    ``workers in (None, 0, 1)`` runs serially — the default, because the
    figure sweeps are seconds-scale and fork overhead often loses.  With
    ``workers > 1`` a :class:`~concurrent.futures.ProcessPoolExecutor`
    fans the points out; ``fn`` and each item must be picklable (use
    module-level functions).  Results keep item order either way, so a
    parallel sweep is bit-identical to a serial one — determinism is not
    negotiable (the tests compare the two directly).
    """
    # Lazy: gridrun imports results_io, which imports the figure
    # drivers that import this module.
    from repro.experiments.gridrun import is_serial, ordered_map

    items = list(items)
    if not obs.enabled():
        return list(ordered_map(fn, items, workers))
    # Timed wrapper: each call reports its busy seconds back with the
    # result, so the parent can account pool utilization without any
    # cross-process metrics plumbing.  Values and order are unchanged.
    started = time.perf_counter()
    timed = list(ordered_map(partial(_timed_call, fn), items, workers))
    wall = time.perf_counter() - started
    mode = "serial" if is_serial(workers, len(items)) else "process"
    for _, seconds in timed:
        obs.observe("runner.item_seconds", seconds, mode=mode)
    obs.inc("runner.items", len(items), mode=mode)
    if mode == "process":
        busy = sum(seconds for _, seconds in timed)
        obs.set_gauge("runner.workers", workers, mode=mode)
        if wall > 0:
            obs.set_gauge(
                "runner.utilization", busy / (workers * wall), mode=mode
            )
    return [result for result, _ in timed]


def _timed_call(fn, item) -> tuple:
    """Run ``fn(item)`` and return ``(result, busy_seconds)`` (picklable)."""
    started = time.perf_counter()
    result = fn(item)
    return result, time.perf_counter() - started


def cycle_names(names: Iterable[str], count: int) -> list[str]:
    """Repeat a name list to ``count`` entries (Figure 10's speed cycling)."""
    pool = list(names)
    if not pool:
        raise ConfigurationError("need at least one name to cycle")
    return [pool[i % len(pool)] for i in range(count)]
