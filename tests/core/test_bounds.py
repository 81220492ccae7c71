"""Unit tests for the makespan lower bounds."""

from __future__ import annotations

import pytest

from repro.core.heuristics import HeuristicName, plan_grouping
from repro.exceptions import SchedulingError
from repro.platform.benchmarks import benchmark_cluster, benchmark_clusters
from repro.platform.timing import TableTimingModel
from repro.simulation.engine import simulate
from repro.workflow.ocean_atmosphere import EnsembleSpec
from tests.core.bounds_oracle import lower_bounds


class TestBoundValues:
    def test_chain_bound_by_hand(self) -> None:
        timing = TableTimingModel(
            {4: 200.0, 5: 150.0, 6: 100.0}, post_seconds=30.0
        )
        bounds = lower_bounds(60, EnsembleSpec(3, 5), timing)
        assert bounds.chain == pytest.approx(5 * 100.0 + 30.0)

    def test_area_bound_by_hand(self) -> None:
        # Work per main: min(4x200, 5x150, 6x100) = 600; + post 30.
        timing = TableTimingModel(
            {4: 200.0, 5: 150.0, 6: 100.0}, post_seconds=30.0
        )
        bounds = lower_bounds(10, EnsembleSpec(3, 5), timing)
        assert bounds.area == pytest.approx(15 * (600.0 + 30.0) / 10)

    def test_combined_is_max(self) -> None:
        timing = TableTimingModel({4: 100.0}, post_seconds=10.0)
        small_machine = lower_bounds(4, EnsembleSpec(8, 4), timing)
        big_machine = lower_bounds(1000, EnsembleSpec(8, 4), timing)
        assert small_machine.combined == small_machine.area
        assert big_machine.combined == big_machine.chain

    def test_gap_of(self) -> None:
        timing = TableTimingModel({4: 100.0}, post_seconds=10.0)
        bounds = lower_bounds(100, EnsembleSpec(2, 3), timing)
        assert bounds.gap_of(bounds.combined) == pytest.approx(0.0)
        assert bounds.gap_of(bounds.combined * 1.5) == pytest.approx(50.0)

    def test_rejects_bad_resources(self) -> None:
        timing = TableTimingModel({4: 100.0}, post_seconds=10.0)
        with pytest.raises(SchedulingError):
            lower_bounds(0, EnsembleSpec(1, 1), timing)

    def test_area_uses_work_minimizing_width(self) -> None:
        # Work is U-shaped on the Amdahl model: the bound must pick the
        # interior minimum, not an endpoint.
        cluster = benchmark_cluster("sagittaire", 50)
        works = {g: g * cluster.main_time(g) for g in cluster.group_sizes}
        best = min(works.values())
        assert works[4] > best and works[11] > best
        bounds = lower_bounds(50, EnsembleSpec(1, 1), cluster.timing)
        assert bounds.area == pytest.approx(
            (best + cluster.post_time()) / 50
        )


class TestBoundsHold:
    def test_every_heuristic_respects_the_bound(self) -> None:
        spec = EnsembleSpec(6, 9)
        for r in (11, 23, 40, 70, 110):
            for cluster in benchmark_clusters(r, count=3):
                bounds = lower_bounds(r, spec, cluster.timing)
                for heuristic in HeuristicName:
                    grouping = plan_grouping(cluster, spec, heuristic)
                    makespan = simulate(
                        grouping, spec, cluster.timing
                    ).makespan
                    assert makespan >= bounds.combined - 1e-6

    def test_knapsack_near_bound_at_large_r(self) -> None:
        # With NS full-width groups the chain bound is nearly achieved
        # (only post-tail slack remains).
        spec = EnsembleSpec(10, 60)
        cluster = benchmark_cluster("sagittaire", 110)
        bounds = lower_bounds(110, spec, cluster.timing)
        grouping = plan_grouping(cluster, spec, "knapsack")
        makespan = simulate(grouping, spec, cluster.timing).makespan
        # Remaining slack is the deferred-post tail: 600 posts on 110
        # processors after the mains, ~1.3% of the horizon.
        assert bounds.gap_of(makespan) < 2.0
