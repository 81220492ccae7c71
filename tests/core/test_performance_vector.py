"""Unit tests for the performance-vector service (Section 5, step 2).

The shipping routine is checked against the scalar k-loop of
:mod:`tests.core.vector_oracle`, never against itself.  The mutation
drill proves the equality assertion has teeth: a seeded off-by-one
injected into a copy of the vector must be caught.
"""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.core.heuristics import HeuristicName
from repro.core.makespan import clear_makespan_cache, makespan_cache_disabled
from repro.core.performance_vector import cluster_makespan, performance_vector
from repro.exceptions import SchedulingError
from repro.platform.benchmarks import benchmark_cluster
from repro.platform.cluster import ClusterSpec
from repro.platform.timing import TableTimingModel
from repro.workflow.ocean_atmosphere import EnsembleSpec
from tests.core.vector_oracle import scalar_performance_vector

MAX_SCENARIOS = 40
MONTHS = 3  # small NM: the parity is structural, not NM-dependent


class TestPerformanceVector:
    @pytest.mark.parametrize("heuristic", list(HeuristicName))
    @pytest.mark.parametrize("name, resources", [("chti", 30), ("azur", 71)])
    def test_equals_scalar_oracle(self, heuristic, name, resources) -> None:
        # Cold, warm and uncached: every entry is the oracle's fresh run.
        cluster = benchmark_cluster(name, resources)
        spec = EnsembleSpec(9, 7)
        oracle = scalar_performance_vector(cluster, spec, heuristic)
        clear_makespan_cache()
        assert performance_vector(cluster, spec, heuristic) == oracle
        assert performance_vector(cluster, spec, heuristic) == oracle
        with makespan_cache_disabled():
            assert performance_vector(cluster, spec, heuristic) == oracle

    @pytest.mark.parametrize("heuristic", list(HeuristicName))
    def test_k_1_to_40_vs_oracle(self, heuristic) -> None:
        """All 40 entries of one batch-planned vector equal the k-loop's."""
        cluster = benchmark_cluster("sagittaire", 60)
        spec = EnsembleSpec(MAX_SCENARIOS, MONTHS)
        assert performance_vector(cluster, spec, heuristic) == (
            scalar_performance_vector(cluster, spec, heuristic)
        )

    def test_mutation_drill_catches_an_off_by_one(self) -> None:
        """Seeded drill: corrupting any single entry must fail the parity."""
        cluster = benchmark_cluster("chti", 45)
        spec = EnsembleSpec(MAX_SCENARIOS, MONTHS)
        vector = performance_vector(cluster, spec)
        scratch = scalar_performance_vector(cluster, spec)
        assert vector == scratch

        rng = random.Random(0xB47C4)
        index = rng.randrange(MAX_SCENARIOS)
        corrupted = list(vector)
        corrupted[index] += cluster.post_time()  # one post task too many
        assert corrupted != scratch

        for index in range(MAX_SCENARIOS):
            corrupted = list(vector)
            corrupted[index] += cluster.post_time()
            assert corrupted != scratch

    def test_cluster_too_small_for_any_group(self) -> None:
        """Raises exactly where the scalar oracle raises, on every heuristic."""
        tiny = ClusterSpec(
            "tiny",
            3,
            TableTimingModel({g: 100.0 for g in range(4, 12)}, post_seconds=10.0),
        )
        for heuristic in HeuristicName:
            with pytest.raises(SchedulingError):
                scalar_performance_vector(tiny, EnsembleSpec(2, MONTHS), heuristic)
            with pytest.raises(SchedulingError, match="cannot host any main-task group"):
                performance_vector(tiny, EnsembleSpec(2, MONTHS), heuristic)

    @pytest.mark.parametrize("heuristic", list(HeuristicName))
    def test_counts_one_batch_plan_per_entry(self, heuristic) -> None:
        """An observed vector of NS entries publishes ``batch.plans`` = NS."""
        cluster = benchmark_cluster("grelon", 40)
        with obs.session() as (registry, _tracer):
            performance_vector(cluster, EnsembleSpec(7, MONTHS), heuristic)
            counters = registry.as_dict()["counters"]
        plans = {
            series["labels"]["heuristic"]: series["value"]
            for series in counters["batch.plans"]
        }
        assert plans == {HeuristicName(heuristic).value: 7}

    def test_length_is_ns(self) -> None:
        cluster = benchmark_cluster("sagittaire", 25)
        vector = performance_vector(cluster, EnsembleSpec(5, 6))
        assert len(vector) == 5

    def test_non_decreasing(self) -> None:
        # More scenarios on the same processors can never finish sooner.
        cluster = benchmark_cluster("chti", 30)
        for heuristic in HeuristicName:
            vector = performance_vector(
                cluster, EnsembleSpec(6, 6), heuristic
            )
            assert all(
                a <= b + 1e-9 for a, b in zip(vector, vector[1:])
            ), heuristic

    def test_last_entry_is_full_ensemble_makespan(self) -> None:
        cluster = benchmark_cluster("azur", 28)
        spec = EnsembleSpec(4, 6)
        vector = performance_vector(cluster, spec, HeuristicName.KNAPSACK)
        assert vector[-1] == cluster_makespan(
            cluster, spec, HeuristicName.KNAPSACK
        )
        oracle = scalar_performance_vector(cluster, spec, HeuristicName.KNAPSACK)
        assert vector[-1] == oracle[-1]

    def test_faster_cluster_dominates(self) -> None:
        spec = EnsembleSpec(5, 6)
        fast = performance_vector(benchmark_cluster("sagittaire", 30), spec)
        slow = performance_vector(benchmark_cluster("azur", 30), spec)
        assert all(f < s for f, s in zip(fast, slow))

    def test_heuristic_affects_vector(self) -> None:
        cluster = benchmark_cluster("grelon", 26)
        spec = EnsembleSpec(8, 12)
        basic = performance_vector(cluster, spec, HeuristicName.BASIC)
        knap = performance_vector(cluster, spec, HeuristicName.KNAPSACK)
        assert any(k != b for k, b in zip(knap, basic))

    def test_single_scenario(self) -> None:
        # One scenario is a pure chain: NM sequential mains on the best
        # single group, posts filling behind.
        cluster = benchmark_cluster("sagittaire", 30)
        vector = performance_vector(cluster, EnsembleSpec(1, 8))
        # One 11-group: 8 x T[11]; the final post trails.
        expected_floor = 8 * cluster.main_time(11)
        assert vector[0] >= expected_floor
        assert vector[0] <= expected_floor + 8 * cluster.post_time()
