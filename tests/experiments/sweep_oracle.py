"""The scalar oracle for heuristic-grid drivers.

Plans every point with :func:`~repro.core.heuristics.plan_grouping` and
simulates it with a fresh, uncached :func:`~repro.simulation.engine.simulate`
call — the independent half of the differential tests for
:func:`~repro.experiments.sweep.run_sweep`, Figure 8 and the ablations,
which plan through the batch kernels and simulate through the cache.
"""

from __future__ import annotations

from repro.core.heuristics import plan_grouping
from repro.exceptions import SchedulingError
from repro.experiments.runner import ALL_HEURISTICS
from repro.experiments.sweep import SweepGrid, SweepRow
from repro.platform.benchmarks import benchmark_cluster
from repro.platform.cluster import ClusterSpec
from repro.simulation.engine import simulate
from repro.workflow.ocean_atmosphere import EnsembleSpec


def scalar_makespans(cluster: ClusterSpec, spec: EnsembleSpec) -> dict[str, float]:
    """Every heuristic's makespan on one cluster; infeasible ones skipped."""
    result: dict[str, float] = {}
    for heuristic in ALL_HEURISTICS:
        try:
            grouping = plan_grouping(cluster, spec, heuristic)
        except SchedulingError:
            continue
        result[heuristic.value] = simulate(
            grouping, spec, cluster.timing, cluster_name=cluster.name
        ).makespan
    return result


def scalar_sweep_rows(grid: SweepGrid) -> tuple[SweepRow, ...]:
    """The rows :func:`~repro.experiments.sweep.run_sweep` must return."""
    rows: list[SweepRow] = []
    for point in grid.points():
        cluster = benchmark_cluster(point.cluster, point.resources)
        spec = EnsembleSpec(point.scenarios, point.months)
        try:
            grouping = plan_grouping(cluster, spec, point.heuristic)
        except SchedulingError:
            rows.append(SweepRow(point, None, ""))
            continue
        makespan = simulate(grouping, spec, cluster.timing).makespan
        rows.append(SweepRow(point, makespan, grouping.describe()))
    return tuple(rows)
