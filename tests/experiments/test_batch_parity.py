"""Golden parity: the batch kernels reproduce the committed fixtures.

The property suite (``tests/property/test_batch_oracle.py``) proves the
batch kernels equal the scalar ones on randomized instances; this file
closes the loop against the *committed* regression fixtures: the
fig7/fig8/fig10 goldens pinned by ``tests/data/regenerate_golden.py``
must fall out of the batch path bit for bit, the batched sweep must
reproduce the scalar oracle of :mod:`tests.experiments.sweep_oracle`
row for row, and an arena race scored through the batch gain kernel must
produce the same standings as a scalar recomputation.
"""

from __future__ import annotations

import json

from repro import obs
from repro.analysis.gains import gains_over_baseline
from repro.core.batch import (
    batch_best_uniform_group,
    batch_gains_over_baseline,
    batch_plan_groupings,
)
from repro.core.heuristics import HeuristicName
from repro.core.performance_vector import performance_vector
from repro.core.repartition import repartition_dags
from repro.experiments.runner import cycle_names, resource_sweep
from repro.experiments.sweep import SweepGrid, run_sweep
from repro.platform.benchmarks import (
    REFERENCE_CLUSTER_SPEEDS,
    benchmark_cluster,
    benchmark_clusters,
)
from repro.platform.timing import reference_timing
from repro.schedulers.arena import ArenaGrid, run_arena
from repro.simulation.engine import simulate
from repro.workflow.ocean_atmosphere import EnsembleSpec
from tests.core.vector_oracle import scalar_performance_vector
from tests.data.regenerate_golden import GOLDEN_PARAMS, HERE
from tests.experiments.sweep_oracle import scalar_sweep_rows


def _golden_data(name: str) -> dict:
    return json.loads((HERE / f"{name}_golden.json").read_text())["data"]


def test_fig7_golden_staircase_via_batch() -> None:
    """One vectorized call reproduces the committed G* staircase."""
    params = GOLDEN_PARAMS["fig7"]
    resources = resource_sweep(
        params["r_min"], params["r_max"], params["step"]
    )
    best_g, feasible = batch_best_uniform_group(
        reference_timing(), resources, params["scenarios"], params["months"]
    )
    golden = _golden_data("fig7")
    assert list(golden["resources"]) == list(resources)
    assert feasible.all()
    assert [int(g) for g in best_g] == list(golden["best_group"])


def test_fig8_golden_raw_gains_via_batch() -> None:
    """Batch planning + the batch gain kernel reproduce fig8's goldens.

    ``raw_gains[heuristic][j][i]`` in the fixture is cluster ``j`` at
    ``resources[i]``; each cell is rebuilt here from
    :func:`batch_plan_groupings` (one call per cluster: every heuristic
    over the whole resource axis at once) and scored through
    :func:`batch_gains_over_baseline`.
    """
    params = GOLDEN_PARAMS["fig8"]
    spec = EnsembleSpec(params["scenarios"], params["months"])
    resources = resource_sweep(
        params["r_min"], params["r_max"], params["step"]
    )
    golden = _golden_data("fig8")
    assert list(golden["resources"]) == list(resources)
    protos = benchmark_clusters(params["r_min"])
    assert [c.name for c in protos] == list(golden["cluster_names"])

    # makespans[h][j][i]: heuristic h, cluster j, resource point i.
    makespans: dict[str, list[list[float]]] = {
        heuristic.value: [[] for _ in protos] for heuristic in HeuristicName
    }
    for j, proto in enumerate(protos):
        points = [
            (r, spec.scenarios, spec.months, heuristic)
            for r in resources
            for heuristic in HeuristicName
        ]
        groupings = batch_plan_groupings(proto.timing, points)
        for (_, _, _, heuristic), grouping in zip(points, groupings, strict=True):
            assert grouping is not None  # all feasible from R = 11
            makespans[heuristic.value][j].append(
                simulate(grouping, spec, proto.timing, cluster_name=proto.name).makespan
            )

    cells = [
        {name: makespans[name][j][i] for name in makespans}
        for j in range(len(protos))
        for i in range(len(resources))
    ]
    gains = batch_gains_over_baseline(cells)
    for idx, cell_gains in enumerate(gains):
        j, i = divmod(idx, len(resources))
        for name, value in cell_gains.items():
            assert value == golden["raw_gains"][name][j][i]


def test_fig10_golden_via_incremental_builders() -> None:
    """Batch-planned vectors equal the oracle and reproduce fig10's goldens.

    Each ``(speed, R, heuristic)`` vector from ``performance_vector``
    (the routine the fig10 pipeline calls) must equal the scalar oracle
    of :mod:`tests.core.vector_oracle`; the repartitioned makespans must
    still equal the fixture exactly.
    """
    params = GOLDEN_PARAMS["fig10"]
    spec = EnsembleSpec(params["scenarios"], params["months"])
    resources_list = resource_sweep(
        params["r_min"], params["r_max"], params["step"]
    )
    golden = _golden_data("fig10")

    vectors: dict[tuple[str, int, str], list[float]] = {}

    def vector(speed: str, r: int, heuristic: HeuristicName) -> list[float]:
        key = (speed, r, heuristic.value)
        if key not in vectors:
            cluster = benchmark_cluster(speed, r)
            oracle = scalar_performance_vector(cluster, spec, heuristic)
            assert performance_vector(cluster, spec, heuristic) == oracle
            vectors[key] = oracle
        return vectors[key]

    idx = 0
    for n in params["cluster_counts"]:
        speed_names = cycle_names(REFERENCE_CLUSTER_SPEEDS, n)
        for r in resources_list:
            assert tuple(golden["configurations"][idx]) == (n, r)
            for heuristic in HeuristicName:
                performance = [
                    vector(name, r, heuristic) for name in speed_names
                ]
                makespan = repartition_dags(
                    performance, spec.scenarios
                ).makespan
                assert makespan == golden["makespans"][heuristic.value][idx]
            idx += 1
    assert idx == len(golden["configurations"])


def test_batched_sweep_matches_scalar_rows() -> None:
    """fig8-shaped grid: the batched sweep equals the scalar oracle, row for row."""
    grid = SweepGrid.from_ranges(
        clusters=tuple(sorted(REFERENCE_CLUSTER_SPEEDS)),
        r_min=11,
        r_max=43,
        step=4,
        scenarios=(10,),
        months=(12,),
    )
    assert run_sweep(grid).rows == scalar_sweep_rows(grid)


def test_batched_sweep_parity_across_chunk_boundaries() -> None:
    """Chunks that split clusters and kernels: batch == scalar, row for row.

    With 7-point chunks over a 3-cluster grid at two ``NS`` and two
    ``NM`` values, chunks start mid-kernel and some span two clusters,
    so a planner call sees partial heuristic sets over ``(R, NS, NM)``
    cells that differ in ``NS`` or ``NM``.  The per-heuristic
    ``batch.plans`` counters equal the point counts.
    """
    grid = SweepGrid.from_ranges(
        clusters=("chti", "grelon", "sagittaire"),
        r_min=11,
        r_max=131,
        step=24,
        scenarios=(10, 11),
        months=(12, 24),
    )
    with obs.session() as (registry, _tracer):
        batched = run_sweep(grid, chunk_size=7)
        counters = registry.as_dict()["counters"]
    assert batched.rows == scalar_sweep_rows(grid)

    plans = {
        series["labels"]["heuristic"]: series["value"]
        for series in counters["batch.plans"]
    }
    per_heuristic = grid.size // len(grid.heuristics)
    assert plans == {h: per_heuristic for h in grid.heuristics}


def test_batched_arena_reproduces_fig8_standings(tmp_path) -> None:
    """The batch-scored arena race matches a scalar regrading exactly.

    Runs the fig8 preset fault-free (the ``BENCH_arena`` configuration)
    with every registered paper scheduler, then regrades every cell
    with the per-cell scalar :func:`gains_over_baseline` — the
    standings, mean gains, and per-cell gain rows must agree bit for
    bit, and a journaled resume must be a no-op.
    """
    grid = ArenaGrid.from_preset(
        "fig8",
        schedulers=("basic", "redistribute", "allpost_end", "knapsack"),
    )
    journal = tmp_path / "arena.ndjson"
    result = run_arena(grid, journal_path=journal)
    assert result.complete

    gain_rows = result.gain_rows()
    cells = result.cells()
    assert gain_rows  # the preset scores every cell
    for cell, got in gain_rows.items():
        makespans = {
            name: row.makespan
            for name, row in cells[cell].items()
            if row.makespan is not None and row.completed
        }
        assert got == gains_over_baseline(makespans)

    mean_gains = result.mean_gains()
    scalar_totals: dict[str, list[float]] = {}
    for cell, got in gain_rows.items():
        for name, value in got.items():
            scalar_totals.setdefault(name, []).append(value)
    for name, values in scalar_totals.items():
        assert mean_gains[name] == sum(values) / len(values)
    # The paper's ordering on this preset: knapsack in front.
    assert mean_gains["knapsack"] > mean_gains["allpost_end"] > 0

    resumed = run_arena(grid, journal_path=journal)
    assert resumed.rows == result.rows
    assert resumed.summary() == result.summary()
