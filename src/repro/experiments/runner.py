"""Shared helpers for the experiment drivers.

:func:`heuristic_cells` is how Figure 8 and the ablation studies get
their makespans: one :func:`~repro.experiments.sweep.run_sweep` over
their ``R × NS × NM`` grid, read back cell by cell.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro import obs
from repro.core.heuristics import HeuristicName, plan_grouping
from repro.exceptions import ConfigurationError, SchedulingError
from repro.workflow.ocean_atmosphere import EnsembleSpec

__all__ = [
    "ALL_HEURISTICS",
    "IMPROVEMENT_LABELS",
    "heuristic_cells",
    "run_cluster_simulation",
    "resource_sweep",
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


def heuristic_cells(
    clusters: Sequence[str],
    resources: Sequence[int],
    scenarios: Sequence[int],
    months: Sequence[int],
    *,
    workers: int | None = None,
) -> dict[tuple[str, int, int, int], dict[str, float]]:
    """Every heuristic's simulated makespan per ``(cluster, R, NS, NM)`` cell.

    One :func:`~repro.experiments.sweep.run_sweep` over the benchmark
    clusters named; heuristics that cannot produce a grouping in a cell
    (too few processors) are left out of it, and a cell where none can
    is a :class:`~repro.exceptions.SchedulingError`.
    """
    # Lazy: sweep imports this module.
    from repro.experiments.sweep import SweepGrid, run_sweep

    grid = SweepGrid(
        clusters=tuple(clusters),
        resources=tuple(resources),
        scenarios=tuple(scenarios),
        months=tuple(months),
        heuristics=tuple(h.value for h in ALL_HEURISTICS),
    )
    cells = run_sweep(grid, workers=workers).cells()
    for point in grid.points():
        if point.key()[:4] not in cells:
            raise SchedulingError(
                f"no heuristic can schedule on cluster {point.cluster!r} "
                f"({point.resources} processors)"
            )
    return cells


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


def cycle_names(names: Iterable[str], count: int) -> list[str]:
    """Repeat a name list to ``count`` entries (Figure 10's speed cycling)."""
    pool = list(names)
    if not pool:
        raise ConfigurationError("need at least one name to cycle")
    return [pool[i % len(pool)] for i in range(count)]
