"""Scalability guards: the engines must stay fast at large dimensions.

These are correctness-of-complexity tests — if someone accidentally
introduces quadratic behaviour in the hot loops, the suite catches it
as a hard wall-clock regression (generous thresholds, CI-safe).
"""

from __future__ import annotations

import time

from repro.core.grouping import Grouping
from repro.core.heuristics import plan_grouping
from repro.platform.benchmarks import benchmark_cluster
from repro.simulation.engine import simulate
from repro.simulation.online import simulate_online
from repro.workflow.ocean_atmosphere import EnsembleSpec


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


class TestEngineScalability:
    def test_rectangular_engine_200k_tasks(self) -> None:
        # 50 scenarios x 2000 months = 100k mains + 100k posts.
        spec = EnsembleSpec(50, 2000)
        cluster = benchmark_cluster("sagittaire", 230)
        grouping = Grouping.uniform(11, 20, 230)
        elapsed = _timed(lambda: simulate(grouping, spec, cluster.timing))
        assert elapsed < 10.0

    def test_unequal_chains_20k_tasks(self) -> None:
        # Ten chains of 550..1450 months = 10k mains + 10k posts, on
        # the traced path (logging loop, heap post phase, records).
        chains = tuple(550 + 100 * i for i in range(10))
        spec = EnsembleSpec(10, max(chains))
        cluster = benchmark_cluster("grelon", 53)
        grouping = plan_grouping(cluster, spec, "knapsack")
        elapsed = _timed(
            lambda: simulate(
                grouping, spec, cluster.timing, chains=chains,
                record_trace=True,
            )
        )
        assert elapsed < 10.0

    def test_online_engine_36k_tasks(self) -> None:
        spec = EnsembleSpec(10, 1800)
        cluster = benchmark_cluster("chti", 60)
        elapsed = _timed(
            lambda: simulate_online(spec, cluster.timing, 60)
        )
        assert elapsed < 10.0

    def test_planning_cost_independent_of_months(self) -> None:
        # Heuristic planning is O(1) in NM: the analytic formulas and the
        # knapsack see NM only as a number.
        cluster = benchmark_cluster("azur", 77)
        short = _timed(
            lambda: plan_grouping(cluster, EnsembleSpec(10, 12), "knapsack")
        )
        long = _timed(
            lambda: plan_grouping(cluster, EnsembleSpec(10, 120_000), "knapsack")
        )
        # Equal up to noise; guard only against gross blowups.
        assert long < max(10 * short, 0.2)
