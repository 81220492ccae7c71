"""Unit tests for the performance-vector service (Section 5, step 2).

The shipping routine is checked against the scalar k-loop of
:mod:`tests.core.vector_oracle`, never against itself.  The mutation
drill proves the equality assertion has teeth: a seeded off-by-one
injected into a copy of the vector must be caught.  :class:`TestVectorMemo`
pins the ``vector`` kernel-cache kind: its key is the timing values and
``(R, NS, NM, heuristic)``, never the cluster's name, and it follows the
shared cache rules.
"""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.core.heuristics import HeuristicName
from repro.core.makespan import (
    clear_makespan_cache,
    makespan_cache_disabled,
    makespan_cache_stats,
)
from repro.core.performance_vector import cluster_makespan, performance_vector
from repro.exceptions import SchedulingError
from repro.platform.benchmarks import benchmark_cluster
from repro.platform.cluster import ClusterSpec
from repro.platform.timing import ScaledTimingModel, TableTimingModel
from repro.workflow.ocean_atmosphere import EnsembleSpec
from tests.core.vector_oracle import scalar_performance_vector

MAX_SCENARIOS = 40
MONTHS = 3  # small NM: the parity is structural, not NM-dependent


class TestPerformanceVector:
    @pytest.mark.parametrize("heuristic", list(HeuristicName))
    @pytest.mark.parametrize("name, resources", [("chti", 30), ("azur", 71)])
    def test_equals_scalar_oracle(self, heuristic, name, resources) -> None:
        # Cold, warm (a vector hit) and uncached: every entry is the
        # oracle's fresh run.
        cluster = benchmark_cluster(name, resources)
        spec = EnsembleSpec(9, 7)
        oracle = scalar_performance_vector(cluster, spec, heuristic)
        clear_makespan_cache()
        assert performance_vector(cluster, spec, heuristic) == oracle
        assert performance_vector(cluster, spec, heuristic) == oracle
        assert makespan_cache_stats()["vector"] == {"hits": 1, "misses": 1, "size": 1}
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


def _twin(cluster: ClusterSpec, name: str, *, post: float | None = None) -> ClusterSpec:
    """A new cluster and timing object holding ``cluster``'s values."""
    timing = TableTimingModel(
        cluster.timing.main_time_table(),
        post_seconds=cluster.post_time() if post is None else post,
    )
    return ClusterSpec(name, cluster.resources, timing)


class TestVectorMemo:
    SPEC = EnsembleSpec(9, MONTHS)

    def test_repeat_is_one_vector_hit_and_no_other_lookup(self) -> None:
        cluster = benchmark_cluster("grelon", 40)
        clear_makespan_cache()
        first = performance_vector(cluster, self.SPEC)
        before = makespan_cache_stats()
        assert before["vector"] == {"hits": 0, "misses": 1, "size": 1}
        assert performance_vector(cluster, self.SPEC) == first
        after = makespan_cache_stats()
        assert after["vector"] == {"hits": 1, "misses": 1, "size": 1}
        for kind in ("simulated", "dp"):
            assert after[kind] == before[kind], kind

    def test_same_timing_under_another_name_shares_the_entry(self) -> None:
        cluster = benchmark_cluster("chti", 33)
        twin = _twin(cluster, "chti-twin")
        assert twin.timing is not cluster.timing
        clear_makespan_cache()
        first = performance_vector(cluster, self.SPEC)
        assert performance_vector(twin, self.SPEC) == first
        assert makespan_cache_stats()["vector"] == {"hits": 1, "misses": 1, "size": 1}

    def test_other_timings_and_shapes_miss(self) -> None:
        cluster = benchmark_cluster("azur", 35)
        scaled = ClusterSpec("azur", 35, ScaledTimingModel(cluster.timing, 1.5))
        slow_post = _twin(cluster, "azur", post=cluster.post_time() + 1.0)
        clear_makespan_cache()
        vectors = [
            performance_vector(cluster, self.SPEC),
            performance_vector(scaled, self.SPEC),
            performance_vector(slow_post, self.SPEC),
            performance_vector(cluster, EnsembleSpec(9, MONTHS + 1)),
            performance_vector(cluster, self.SPEC, HeuristicName.BASIC),
        ]
        assert makespan_cache_stats()["vector"] == {"hits": 0, "misses": 5, "size": 5}
        assert vectors[1] != vectors[0]
        assert vectors[2] != vectors[0]
        assert vectors[1] == scalar_performance_vector(scaled, self.SPEC)
        assert vectors[2] == scalar_performance_vector(slow_post, self.SPEC)

    def test_disabled_cache_stores_nothing(self) -> None:
        cluster = benchmark_cluster("sagittaire", 29)
        clear_makespan_cache()
        with makespan_cache_disabled():
            uncached = performance_vector(cluster, self.SPEC)
            assert performance_vector(cluster, self.SPEC) == uncached
        assert makespan_cache_stats()["vector"] == {"hits": 0, "misses": 0, "size": 0}
        assert performance_vector(cluster, self.SPEC) == uncached

    def test_infeasible_cluster_raises_every_time_and_stores_nothing(self) -> None:
        tiny = ClusterSpec(
            "tiny",
            3,
            TableTimingModel({g: 100.0 for g in range(4, 12)}, post_seconds=10.0),
        )
        clear_makespan_cache()
        for _ in range(2):
            with pytest.raises(SchedulingError, match="'tiny'"):
                performance_vector(tiny, EnsembleSpec(2, MONTHS))
        assert makespan_cache_stats()["vector"] == {"hits": 0, "misses": 2, "size": 0}

    def test_mutating_a_returned_list_leaves_the_entry(self) -> None:
        cluster = benchmark_cluster("grelon", 27)
        clear_makespan_cache()
        vector = performance_vector(cluster, self.SPEC)
        expected = list(vector)
        vector[0] = -1.0
        vector.append(0.0)
        again = performance_vector(cluster, self.SPEC)
        assert again == expected
        assert again is not performance_vector(cluster, self.SPEC)
        assert isinstance(again, list)
