"""Cross-figure consistency: the figures must agree with each other.

Each figure driver computes through its own path; wherever two paths
answer the same question, the answers must coincide.  These tests wire
the figures together so a regression in any shared component shows up
as a visible contradiction, not a silently wrong plot.
"""

from __future__ import annotations

import pytest

from repro.core.basic import basic_grouping
from repro.core.heuristics import HeuristicName
from repro.core.performance_vector import cluster_makespan
from repro.experiments import fig7, fig8, fig10
from repro.platform.benchmarks import benchmark_cluster
from repro.platform.timing import reference_timing
from repro.workflow.ocean_atmosphere import EnsembleSpec
from tests.experiments.sweep_oracle import scalar_makespans


class TestFig7AgreesWithBasicHeuristic:
    def test_staircase_equals_basic_grouping_size(self) -> None:
        """fig7's G* must be exactly what basic_grouping would build."""
        from repro.platform.cluster import ClusterSpec

        spec = EnsembleSpec(10, 12)
        result = fig7.run(months=12, r_min=11, r_max=60, step=7)
        timing = reference_timing()
        for r, g_star in zip(result.resources, result.best_group):
            grouping = basic_grouping(
                ClusterSpec("reference", r, timing), spec
            )
            assert grouping.group_sizes[0] == g_star, r


class TestFig8AgreesWithDirectSimulation:
    def test_raw_gain_cell_matches_standalone_computation(self) -> None:
        """One (cluster, R) cell of fig8 equals the direct pipeline."""
        from repro.analysis.gains import gains_over_baseline

        result = fig8.run(months=12, r_min=30, r_max=30, step=1)
        spec = EnsembleSpec(10, 12)
        for j, name in enumerate(result.cluster_names):
            cluster = benchmark_cluster(name, 30)
            direct = gains_over_baseline(scalar_makespans(cluster, spec))
            for heuristic, rows in result.raw_gains.items():
                assert rows[j][0] == pytest.approx(direct[heuristic]), (
                    name,
                    heuristic,
                )


class TestFig10AgreesWithSingleCluster:
    def test_one_cluster_grid_equals_cluster_makespan(self) -> None:
        """fig10 with one cluster degenerates to the fig8 setting."""
        result = fig10.run(
            months=12, cluster_counts=(1,), r_min=30, r_max=30, step=1
        )
        spec = EnsembleSpec(10, 12)
        cluster = benchmark_cluster("sagittaire", 30)
        for heuristic in HeuristicName:
            direct = cluster_makespan(cluster, spec, heuristic)
            assert result.makespans[heuristic.value][0] == pytest.approx(
                direct
            ), heuristic

    def test_grid_never_slower_than_slowest_single_cluster(self) -> None:
        """Adding clusters to a grid can only help Algorithm 1."""
        spec = EnsembleSpec(10, 12)
        single = cluster_makespan(
            benchmark_cluster("sagittaire", 30), spec, "knapsack"
        )
        result = fig10.run(
            months=12, cluster_counts=(2, 3), r_min=30, r_max=30, step=1
        )
        for value in result.makespans["knapsack"]:
            assert value <= single + 1e-6


class TestReportAgreesWithFigures:
    def test_report_staircase_matches_fig7(self) -> None:
        from repro.analysis.report import ReportConfig, generate_report

        config = ReportConfig.quick()
        report = generate_report(config)
        result = fig7.run(
            scenarios=config.scenarios,
            months=config.months,
            step=config.fig7_step,
        )
        # Spot-check: the report's staircase mentions the last run's G*.
        last = result.best_group[-1]
        assert f"G*={last}" in report
