"""Integration tests: the paper's qualitative claims, end to end.

Each test quotes the claim it checks.  These run the real pipeline
(heuristic -> simulator -> gains) at reduced NM and assert the *shape*
of the result, which is what a simulator-based reproduction can promise.
"""

from __future__ import annotations

import pytest

from repro.analysis.gains import gains_over_baseline
from repro.core.heuristics import HeuristicName, plan_grouping
from repro.core.performance_vector import performance_vector
from repro.core.repartition import repartition_dags
from repro.platform.benchmarks import benchmark_cluster, benchmark_clusters
from repro.simulation.engine import simulate
from repro.workflow.ocean_atmosphere import EnsembleSpec
from tests.experiments.sweep_oracle import scalar_makespans

SPEC = EnsembleSpec(10, 60)


class TestSection4Claims:
    def test_gains_reach_several_percent(self) -> None:
        """'Simulations show improvements of the makespan up to 12%.'

        Over a sweep of low resource counts, the best knapsack gain must
        be substantial (we check >5%; the exact 12% depends on the
        authors' unpublished benchmark tables).
        """
        best = 0.0
        for r in range(11, 61, 2):
            for cluster in benchmark_clusters(r):
                gains = gains_over_baseline(
                    scalar_makespans(cluster, SPEC)
                )
                best = max(best, gains["knapsack"])
        assert best > 5.0

    def test_knapsack_best_at_low_resources(self) -> None:
        """'The representation as an instance of the Knapsack problem
        yields to the bests results with low resources.'"""
        knap_sum = 0.0
        others_sum = {"redistribute": 0.0, "allpost_end": 0.0}
        for r in range(11, 61, 2):
            for cluster in benchmark_clusters(r):
                gains = gains_over_baseline(
                    scalar_makespans(cluster, SPEC)
                )
                knap_sum += gains["knapsack"]
                for k in others_sum:
                    others_sum[k] += gains[k]
        assert knap_sum >= max(others_sum.values()) - 1e-9

    def test_no_gains_with_plenty_of_resources(self) -> None:
        """'With a lot of resources, there are no more gains since there
        are NS groups of 11 resources.'"""
        for r in (110, 115, 120):
            for cluster in benchmark_clusters(r):
                gains = gains_over_baseline(
                    scalar_makespans(cluster, SPEC)
                )
                for name, g in gains.items():
                    assert abs(g) < 1e-9, (r, cluster.name, name)

    def test_knapsack_can_be_slightly_negative_at_high_r(self) -> None:
        """'it even becomes a little less good with a lot of resources.'"""
        negatives = []
        for r in range(85, 110):
            cluster = benchmark_cluster("sagittaire", r)
            gains = gains_over_baseline(scalar_makespans(cluster, SPEC))
            negatives.append(gains["knapsack"])
        assert min(negatives) < 0.0
        # "a little": never catastrophically worse.
        assert min(negatives) > -8.0

    def test_improvement1_paper_example_magnitude(self) -> None:
        """'R = 53 ... gain of 4.5% (58 hours less on the makespan)'.

        With our synthetic tables the exact G* differs, but redistributing
        idle processors at R=53 must produce a positive gain of the same
        order on at least one benchmark cluster.
        """
        best = max(
            gains_over_baseline(
                scalar_makespans(benchmark_cluster(name, 53), SPEC)
            )["redistribute"]
            for name in ("sagittaire", "grelon", "chti", "paravent", "azur")
        )
        assert 1.0 < best < 15.0


class TestSection5Claims:
    def test_faster_clusters_execute_more_dags(self) -> None:
        """'The faster, the more DAGs it has to execute.'"""
        spec = EnsembleSpec(10, 12)
        clusters = [
            benchmark_cluster("sagittaire", 40),  # fastest
            benchmark_cluster("azur", 40),  # slowest
        ]
        vectors = [performance_vector(c, spec) for c in clusters]
        rep = repartition_dags(vectors, 10)
        assert rep.counts[0] > rep.counts[1]

    def test_adding_clusters_reduces_makespan(self) -> None:
        """Distributing over more clusters shortens the campaign."""
        spec = EnsembleSpec(10, 12)
        makespans = []
        for n in (1, 2, 4):
            clusters = benchmark_clusters(30, count=n)
            vectors = [performance_vector(c, spec) for c in clusters]
            makespans.append(repartition_dags(vectors, 10).makespan)
        assert makespans[0] > makespans[1] > makespans[2]

    def test_algorithm1_no_single_move_improves(self) -> None:
        """'If we map a scenario onto another cluster, the total makespan
        cannot decrease.'"""
        spec = EnsembleSpec(8, 12)
        clusters = benchmark_clusters(25, count=3)
        vectors = [performance_vector(c, spec) for c in clusters]
        rep = repartition_dags(vectors, 8)
        counts = list(rep.counts)
        for src in range(3):
            if counts[src] == 0:
                continue
            for dst in range(3):
                if dst == src:
                    continue
                moved = counts.copy()
                moved[src] -= 1
                moved[dst] += 1
                makespan = max(
                    vectors[i][moved[i] - 1]
                    for i in range(3)
                    if moved[i] > 0
                )
                assert makespan >= rep.makespan - 1e-9


class TestEndToEndConsistency:
    def test_heuristic_chain_simulates_and_validates(self) -> None:
        """Full pipeline with trace + independent validation, all four
        heuristics, on an awkward resource count."""
        from repro.simulation.validate import validate_schedule

        cluster = benchmark_cluster("paravent", 47)
        spec = EnsembleSpec(7, 9)
        for heuristic in HeuristicName:
            grouping = plan_grouping(cluster, spec, heuristic)
            result = simulate(
                grouping, spec, cluster.timing, record_trace=True
            )
            validate_schedule(result, cluster.timing)

    def test_gains_identical_through_middleware_and_direct(self) -> None:
        """The middleware path must report the same makespans as calling
        the scheduler/simulator directly (no hidden divergence)."""
        from repro.middleware.deployment import run_campaign
        from repro.platform.grid import GridSpec

        spec = EnsembleSpec(6, 8)
        clusters = benchmark_clusters(30, count=2)
        campaign = run_campaign(
            GridSpec.of(clusters), spec.scenarios, spec.months, "knapsack"
        )
        vectors = [
            performance_vector(c, spec, HeuristicName.KNAPSACK)
            for c in clusters
        ]
        direct = repartition_dags(vectors, spec.scenarios)
        assert campaign.makespan == pytest.approx(direct.makespan)
