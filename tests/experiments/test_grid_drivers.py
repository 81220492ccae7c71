"""Figure 8 and the ablation studies against the scalar oracle.

Both read their makespans from one :func:`~repro.experiments.sweep.run_sweep`
(batch planning, cached simulation) through
:func:`~repro.experiments.runner.heuristic_cells`.  Every cell must equal
:func:`tests.experiments.sweep_oracle.scalar_makespans` — ``plan_grouping``
plus an uncached ``simulate`` per heuristic — exactly, serially and
across a process pool.
"""

from __future__ import annotations

import pytest

from repro.analysis.gains import gains_over_baseline
from repro.core.exhaustive import exhaustive_grouping
from repro.exceptions import SchedulingError
from repro.experiments import ablations, fig8
from repro.experiments.runner import heuristic_cells
from repro.experiments.sweep import SweepGrid, run_sweep
from repro.platform.benchmarks import REFERENCE_CLUSTER_SPEEDS, benchmark_cluster
from repro.workflow.ocean_atmosphere import EnsembleSpec
from tests.experiments.sweep_oracle import scalar_makespans, scalar_sweep_rows


def _oracle(name: str, r: int, scenarios: int, months: int) -> dict[str, float]:
    return scalar_makespans(
        benchmark_cluster(name, r), EnsembleSpec(scenarios, months)
    )


@pytest.mark.parametrize("workers", [None, 2])
def test_fig8_cells_equal_the_oracle(workers) -> None:
    result = fig8.run(months=12, r_min=11, r_max=59, step=12, workers=workers)
    assert result.cluster_names == tuple(REFERENCE_CLUSTER_SPEEDS)
    for j, name in enumerate(result.cluster_names):
        for i, r in enumerate(result.resources):
            expected = gains_over_baseline(_oracle(name, r, 10, 12))
            got = {h: result.raw_gains[h][j][i] for h in result.raw_gains}
            assert got == expected, (name, r)


def test_fig8_without_a_feasible_heuristic_raises() -> None:
    with pytest.raises(SchedulingError) as raised:
        fig8.run(months=12, r_min=3, r_max=3)
    assert str(raised.value) == (
        "no heuristic can schedule on cluster 'sagittaire' (3 processors)"
    )


def test_small_clusters_match_the_oracle_point_for_point() -> None:
    """Below R = 11 some heuristics do not fit: rows record the same misses."""
    grid = SweepGrid.from_ranges(
        clusters=("sagittaire", "azur"), r_min=3, r_max=12,
        scenarios=(4,), months=(6,),
    )
    assert run_sweep(grid, chunk_size=5).rows == scalar_sweep_rows(grid)


@pytest.mark.parametrize("workers", [None, 2])
def test_heuristic_cells_equal_the_oracle(workers) -> None:
    cells = heuristic_cells(
        ("chti", "grelon"), (4, 15, 30), (3, 10), (6, 12), workers=workers
    )
    assert list(cells) == [
        (name, r, ns, nm)
        for name in ("chti", "grelon")
        for r in (4, 15, 30)
        for ns in (3, 10)
        for nm in (6, 12)
    ]
    for (name, r, ns, nm), makespans in cells.items():
        assert makespans == _oracle(name, r, ns, nm), (name, r, ns, nm)


def test_months_sensitivity_equals_the_oracle() -> None:
    result = ablations.run_months_sensitivity(
        months_values=(6, 12), resources=(15, 53)
    )
    assert result == {
        nm: {r: gains_over_baseline(_oracle("chti", r, 10, nm)) for r in (15, 53)}
        for nm in (6, 12)
    }


def test_scenarios_sensitivity_equals_the_oracle() -> None:
    result = ablations.run_scenarios_sensitivity(
        scenarios_values=(2, 5), months=12, resources=(30, 53)
    )
    assert result == {
        ns: {r: gains_over_baseline(_oracle("grelon", r, ns, 12)) for r in (30, 53)}
        for ns in (2, 5)
    }


def test_optimality_gap_equals_the_oracle() -> None:
    rows = ablations.run_optimality_gap(
        scenarios=3, months=6, resources=(11, 15), limit=20_000
    )
    spec = EnsembleSpec(3, 6)
    for row, r in zip(rows, (11, 15), strict=True):
        optimum = exhaustive_grouping(
            benchmark_cluster("grelon", r), spec, limit=20_000
        )
        assert row == {
            "R": float(r),
            "candidates": float(optimum.candidates),
            "optimal_makespan": optimum.best_makespan,
            **{
                f"{h}_gap_pct": optimum.gap_of(makespan)
                for h, makespan in _oracle("grelon", r, 3, 6).items()
            },
        }


def test_cpa_comparison_equals_the_oracle() -> None:
    rows = ablations.run_cpa_comparison(months=12, resources=(15, 40))
    for row, r in zip(rows, (15, 40), strict=True):
        expected = _oracle("sagittaire", r, 10, 12)
        assert row["basic"] == expected["basic"]
        assert row["knapsack"] == expected["knapsack"]
        assert row["cpa_vs_knapsack_pct"] == (
            (row["cpa"] - expected["knapsack"]) / expected["knapsack"] * 100.0
        )
