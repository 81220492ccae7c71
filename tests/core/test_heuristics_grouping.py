"""Unit tests for the four grouping heuristics."""

from __future__ import annotations

import pytest

from repro.core.basic import (
    allpost_end_grouping,
    basic_grouping,
    best_uniform_group,
    redistribute_grouping,
)
from repro.core.heuristics import (
    HEURISTICS,
    HeuristicName,
    get_heuristic,
    plan_grouping,
)
from repro.core.knapsack_grouping import knapsack_grouping, knapsack_problem_for
from repro.core.makespan import (
    clear_makespan_cache,
    makespan_cache_disabled,
    makespan_cache_stats,
)
from repro.exceptions import ConfigurationError, SchedulingError
from repro.knapsack.greedy import solve_greedy
from repro.platform.benchmarks import benchmark_cluster
from repro.platform.cluster import ClusterSpec
from repro.platform.timing import TableTimingModel, reference_timing
from repro.workflow.ocean_atmosphere import EnsembleSpec
from tests.core import uniform_family_oracle as oracle
from tests.knapsack.dp_oracle import scalar_knapsack_solver


def _redistribute(cluster: ClusterSpec, spec: EnsembleSpec):
    """Improvement 1's grouping, checked against the round-robin oracle."""
    grouping = redistribute_grouping(cluster, spec)
    assert grouping == oracle.redistribute_grouping(cluster, spec)
    return grouping


def _allpost_end(cluster: ClusterSpec, spec: EnsembleSpec):
    """Improvement 2's grouping, checked against the round-robin oracle."""
    grouping = allpost_end_grouping(cluster, spec)
    assert grouping == oracle.allpost_end_grouping(cluster, spec)
    return grouping


class TestBasic:
    def test_uniform_shape(self, fast_cluster, paper_spec) -> None:
        g = basic_grouping(fast_cluster, paper_spec)
        assert g.is_uniform
        assert g.total_resources == fast_cluster.resources
        assert g.idle_resources == 0  # everything not grouped is post pool

    def test_group_count_is_nbmax(self, fast_cluster, paper_spec) -> None:
        g = basic_grouping(fast_cluster, paper_spec)
        size = g.group_sizes[0]
        nbmax = min(paper_spec.scenarios, fast_cluster.resources // size)
        assert g.n_groups == nbmax

    def test_never_more_groups_than_scenarios(self) -> None:
        cluster = benchmark_cluster("sagittaire", 120)
        spec = EnsembleSpec(3, 12)
        g = basic_grouping(cluster, spec)
        assert g.n_groups <= 3

    def test_at_110_resources_ten_groups_of_11(self) -> None:
        # Section 4.3: "With a lot of resources, there are no more gains
        # since there are NS groups of 11 resources."
        cluster = benchmark_cluster("sagittaire", 110)
        g = basic_grouping(cluster, EnsembleSpec(10, 60))
        assert g.group_sizes == (11,) * 10
        assert g.post_pool == 0

    def test_minimal_cluster(self) -> None:
        cluster = benchmark_cluster("azur", 4)
        g = basic_grouping(cluster, EnsembleSpec(2, 3))
        assert g.group_sizes == (4,)

    def test_too_small_cluster_raises(self) -> None:
        cluster = ClusterSpec("tiny", 3, reference_timing())
        with pytest.raises(SchedulingError):
            best_uniform_group(cluster, EnsembleSpec(2, 3))

    def test_selection_minimizes_analytic_makespan(self, paper_spec) -> None:
        from repro.core.makespan import analytic_makespan

        cluster = benchmark_cluster("chti", 47)
        best = best_uniform_group(cluster, paper_spec)
        ms_best = analytic_makespan(
            47, best, paper_spec.scenarios, paper_spec.months,
            cluster.main_time(best), cluster.post_time(),
        )
        for g in cluster.group_sizes:
            if g > 47:
                continue
            ms = analytic_makespan(
                47, g, paper_spec.scenarios, paper_spec.months,
                cluster.main_time(g), cluster.post_time(),
            )
            assert ms_best <= ms + 1e-9


class TestRedistribute:
    def test_no_surplus_is_identity(self) -> None:
        # R=44 with G*=11 (hypothetically) leaves nothing; use a table
        # where G=4 always wins to control the arithmetic: R=16, 4 groups
        # of 4, R2=0.
        timing = TableTimingModel(
            {4: 100.0, 5: 99.0, 6: 98.0, 7: 97.0, 8: 96.0, 9: 95.0,
             10: 94.0, 11: 93.0},
            post_seconds=10.0,
        )
        cluster = ClusterSpec("flat", 16, timing)
        spec = EnsembleSpec(4, 6)
        basic = basic_grouping(cluster, spec)
        redis = _redistribute(cluster, spec)
        if basic.post_pool == 0:
            assert redis == basic

    def test_paper_example_at_53(self) -> None:
        # The paper's worked example: R=53, NS=10, G*=7 -> 3 groups grow
        # to 8, post keeps 1.  Force G*=7 with a table whose analytic
        # optimum is 7 (the synthetic Amdahl table picks 10 instead).
        table = {4: 7200.0, 5: 4400.0, 6: 2700.0, 7: 1800.0, 8: 1700.0,
                 9: 1650.0, 10: 1620.0, 11: 1600.0}
        cluster = ClusterSpec("paperlike", 53, TableTimingModel(table))
        spec = EnsembleSpec(10, 60)
        assert best_uniform_group(cluster, spec) == 7
        redis = _redistribute(cluster, spec)
        assert sorted(redis.group_sizes, reverse=True) == [8, 8, 8, 7, 7, 7, 7]
        assert redis.post_pool == 1

    def test_never_exceeds_max_group(self, five_clusters, paper_spec) -> None:
        for cluster in five_clusters:
            g = _redistribute(cluster, paper_spec)
            assert all(s <= cluster.timing.max_group for s in g.group_sizes)

    def test_no_idle_resources(self, five_clusters, paper_spec) -> None:
        for cluster in five_clusters:
            g = _redistribute(cluster, paper_spec)
            assert g.idle_resources == 0

    def test_group_count_preserved(self, fast_cluster, paper_spec) -> None:
        basic = basic_grouping(fast_cluster, paper_spec)
        redis = _redistribute(fast_cluster, paper_spec)
        assert redis.n_groups == basic.n_groups

    def test_needed_post_pool_formula(self) -> None:
        cluster = benchmark_cluster("sagittaire", 53)
        # T[7] ~ 1764 s, TP = 180 s -> 9 posts per processor per wave;
        # 7 groups need ceil(7/9) = 1 post processor.
        assert oracle.needed_post_pool(cluster, 7, 7) == 1

    def test_needed_post_pool_when_posts_longer_than_mains(self) -> None:
        cluster = ClusterSpec(
            "weird", 20,
            TableTimingModel({g: 50.0 for g in range(4, 12)}, post_seconds=60.0),
        )
        assert oracle.needed_post_pool(cluster, 4, 3) == 3
        # G* = 4, 3 groups: one post processor per group, 5 spread.
        redis = _redistribute(cluster, EnsembleSpec(3, 6))
        assert redis.group_sizes == (6, 6, 5)
        assert redis.post_pool == 3


class TestAllPostEnd:
    def test_zero_post_pool_normally(self, five_clusters, paper_spec) -> None:
        for cluster in five_clusters:
            g = _allpost_end(cluster, paper_spec)
            # Post pool only non-zero when every group is saturated at 11.
            if any(s < cluster.timing.max_group for s in g.group_sizes):
                assert g.post_pool == 0
            assert g.idle_resources == 0

    def test_absorbs_all_leftovers(self, fast_cluster, paper_spec) -> None:
        g = _allpost_end(fast_cluster, paper_spec)
        assert g.main_resources + g.post_pool == fast_cluster.resources

    def test_saturated_groups_return_surplus_to_posts(self) -> None:
        # 2 scenarios on 30 processors: 2 groups cap at 11, 8 left over.
        cluster = benchmark_cluster("sagittaire", 30)
        g = _allpost_end(cluster, EnsembleSpec(2, 6))
        assert g.group_sizes == (11, 11)
        assert g.post_pool == 8

    def test_sizes_differ_by_at_most_one_unless_saturated(
        self, five_clusters, paper_spec
    ) -> None:
        for cluster in five_clusters:
            g = _allpost_end(cluster, paper_spec)
            if max(g.group_sizes) < cluster.timing.max_group:
                assert max(g.group_sizes) - min(g.group_sizes) <= 1


class TestKnapsackGrouping:
    def test_respects_constraints(self, five_clusters, paper_spec) -> None:
        for cluster in five_clusters:
            g = knapsack_grouping(cluster, paper_spec)
            assert g.main_resources <= cluster.resources
            assert g.n_groups <= paper_spec.scenarios
            for s in g.group_sizes:
                cluster.timing.validate_group(s)

    def test_maximizes_throughput_vs_other_heuristics(
        self, five_clusters, paper_spec
    ) -> None:
        for cluster in five_clusters:
            knap = knapsack_grouping(cluster, paper_spec)
            for other in (basic_grouping, allpost_end_grouping):
                alt = other(cluster, paper_spec)
                assert knap.throughput(cluster.timing) >= alt.throughput(
                    cluster.timing
                ) - 1e-12

    def test_problem_statement_matches_paper(self, fast_cluster, paper_spec) -> None:
        problem = knapsack_problem_for(fast_cluster, paper_spec)
        assert problem.capacity == fast_cluster.resources
        assert problem.max_items == paper_spec.scenarios
        for item in problem.items:
            assert item.weight == item.name  # cost = group size
            assert item.value == pytest.approx(
                1.0 / fast_cluster.main_time(item.name)
            )

    def test_injectable_solver(self, fast_cluster, paper_spec) -> None:
        g = knapsack_grouping(fast_cluster, paper_spec, solver=solve_greedy)
        assert g.main_resources <= fast_cluster.resources

    def test_too_small_cluster_raises(self) -> None:
        cluster = ClusterSpec("tiny", 3, reference_timing())
        with pytest.raises(SchedulingError):
            knapsack_grouping(cluster, EnsembleSpec(2, 3))

    def test_at_110_resources_matches_basic(self) -> None:
        # NS groups of 11: knapsack and basic agree exactly.
        cluster = benchmark_cluster("grelon", 110)
        spec = EnsembleSpec(10, 12)
        assert knapsack_grouping(cluster, spec).group_sizes == (11,) * 10


def _twin(cluster: ClusterSpec, name: str, *, post: float | None = None) -> ClusterSpec:
    """The same ``{G: T[G]}`` table in a new timing object, under ``name``."""
    timing = TableTimingModel(
        cluster.timing.main_time_table(),
        post_seconds=cluster.post_time() if post is None else post,
    )
    return ClusterSpec(name, cluster.resources, timing)


class TestPlanMemo:
    """The default knapsack plan is memoized on its table, ``R`` and ``NS``."""

    SPEC = EnsembleSpec(10, 12)

    def test_repeat_is_one_plan_hit_and_no_dp_lookup(self) -> None:
        cluster = benchmark_cluster("grelon", 40)
        clear_makespan_cache()
        first = knapsack_grouping(cluster, self.SPEC)
        before = makespan_cache_stats()
        assert before["plan"] == {"hits": 0, "misses": 1, "size": 1}
        assert knapsack_grouping(cluster, self.SPEC) is first
        after = makespan_cache_stats()
        assert after["plan"] == {"hits": 1, "misses": 1, "size": 1}
        assert after["dp"] == before["dp"]

    def test_twin_cluster_and_other_nm_or_tp_share_the_entry(self) -> None:
        cluster = benchmark_cluster("chti", 33)
        twin = _twin(cluster, "chti-twin")
        slow_post = _twin(cluster, "chti", post=cluster.post_time() + 1.0)
        assert twin.timing is not cluster.timing
        clear_makespan_cache()
        first = knapsack_grouping(cluster, self.SPEC)
        assert knapsack_grouping(twin, self.SPEC) == first
        assert knapsack_grouping(slow_post, self.SPEC) == first
        assert knapsack_grouping(cluster, EnsembleSpec(10, 1)) == first
        assert makespan_cache_stats()["plan"] == {"hits": 3, "misses": 1, "size": 1}

    def test_other_r_ns_or_table_misses(self) -> None:
        cluster = benchmark_cluster("azur", 35)
        others = [
            cluster,
            ClusterSpec("azur", 36, cluster.timing),
            ClusterSpec("azur", 35, benchmark_cluster("grelon", 35).timing),
        ]
        clear_makespan_cache()
        planned = [knapsack_grouping(c, self.SPEC) for c in others]
        planned.append(knapsack_grouping(cluster, EnsembleSpec(2, 12)))
        assert makespan_cache_stats()["plan"] == {"hits": 0, "misses": 4, "size": 4}
        with makespan_cache_disabled():
            assert planned == [
                *(knapsack_grouping(c, self.SPEC) for c in others),
                knapsack_grouping(cluster, EnsembleSpec(2, 12)),
            ]
        assert planned[3] != planned[0]

    def test_disabled_cache_stores_nothing(self) -> None:
        cluster = benchmark_cluster("sagittaire", 29)
        clear_makespan_cache()
        with makespan_cache_disabled():
            uncached = knapsack_grouping(cluster, self.SPEC)
            assert knapsack_grouping(cluster, self.SPEC) == uncached
        assert makespan_cache_stats()["plan"] == {"hits": 0, "misses": 0, "size": 0}
        assert knapsack_grouping(cluster, self.SPEC) == uncached

    def test_infeasible_cluster_raises_every_time_and_stores_nothing(self) -> None:
        tiny = ClusterSpec("tiny", 3, reference_timing())
        clear_makespan_cache()
        for _ in range(2):
            with pytest.raises(SchedulingError, match="'tiny'"):
                knapsack_grouping(tiny, EnsembleSpec(2, 3))
        assert makespan_cache_stats()["plan"] == {"hits": 0, "misses": 2, "size": 0}

    def test_injected_and_patched_solvers_bypass_the_memo(self) -> None:
        cluster = benchmark_cluster("paravent", 47)
        clear_makespan_cache()
        knapsack_grouping(cluster, self.SPEC, solver=solve_greedy)
        with scalar_knapsack_solver():
            scalar = knapsack_grouping(cluster, self.SPEC)
        assert makespan_cache_stats()["plan"] == {"hits": 0, "misses": 0, "size": 0}
        assert knapsack_grouping(cluster, self.SPEC) == scalar


class TestRegistry:
    def test_all_four_heuristics_registered(self) -> None:
        assert set(HEURISTICS) == set(HeuristicName)

    def test_get_by_string(self) -> None:
        assert get_heuristic("basic") is HEURISTICS[HeuristicName.BASIC]

    def test_get_by_enum(self) -> None:
        assert (
            get_heuristic(HeuristicName.KNAPSACK)
            is HEURISTICS[HeuristicName.KNAPSACK]
        )

    def test_unknown_name_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            get_heuristic("magic")

    def test_plan_grouping_dispatch(self, fast_cluster, paper_spec) -> None:
        for name in HeuristicName:
            grouping = plan_grouping(fast_cluster, paper_spec, name)
            assert grouping.total_resources == fast_cluster.resources
