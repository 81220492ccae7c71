"""The paper's contribution: group-scheduling heuristics.

Everything in this subpackage answers one question: *given a cluster of
R processors and an ensemble of NS scenario chains, how should the
processors be partitioned into moldable-task groups?*

* :mod:`repro.core.makespan` — the closed-form makespan estimates of
  Section 4.1 (Equations 1–5).
* :mod:`repro.core.basic` — the basic uniform-``G`` heuristic and its
  Improvements 1 (spread idle processors across groups) and 2 (no post
  pool, posts at the end), one closed-form rule shared with the batch
  planner.
* :mod:`repro.core.knapsack_grouping` — Improvement 3 (knapsack-optimal
  multiset of group sizes).
* :mod:`repro.core.performance_vector` / :mod:`repro.core.repartition` —
  the heterogeneous-grid extension of Section 5 (Algorithm 1).
* :mod:`repro.core.generic` — the future-work generalization to arbitrary
  chains of identical DAGs of moldable tasks.
"""

from repro.core.grouping import Grouping
from repro.core.makespan import (
    MakespanBreakdown,
    analytic_breakdown,
    analytic_makespan,
    cached_analytic_breakdown,
    cached_analytic_makespan,
    cached_simulated_makespan,
    clear_makespan_cache,
    makespan_cache_disabled,
    makespan_cache_enabled,
    makespan_cache_stats,
    set_makespan_cache_enabled,
)
from repro.core.basic import (
    allpost_end_grouping,
    basic_grouping,
    best_uniform_group,
    redistribute_grouping,
)
from repro.core.knapsack_grouping import knapsack_grouping
from repro.core.heuristics import (
    HEURISTICS,
    HeuristicName,
    get_heuristic,
    plan_grouping,
)
from repro.core.performance_vector import performance_vector
from repro.core.batch import (
    BatchBreakdown,
    batch_analytic_breakdown,
    batch_analytic_makespan,
    batch_best_uniform_group,
    batch_gains_over_baseline,
    batch_plan_groupings,
    batch_solve_dp,
)
from repro.core.repartition import Repartition, repartition_dags
from repro.core.generic import GenericChainProblem, generic_grouping
from repro.core.cpa import cpa_grouping, cpa_width
from repro.core.exhaustive import (
    ExhaustiveResult,
    enumerate_groupings,
    exhaustive_grouping,
)

__all__ = [
    "Grouping",
    "analytic_makespan",
    "analytic_breakdown",
    "MakespanBreakdown",
    "cached_analytic_breakdown",
    "cached_analytic_makespan",
    "cached_simulated_makespan",
    "clear_makespan_cache",
    "makespan_cache_disabled",
    "makespan_cache_enabled",
    "makespan_cache_stats",
    "set_makespan_cache_enabled",
    "basic_grouping",
    "best_uniform_group",
    "redistribute_grouping",
    "allpost_end_grouping",
    "knapsack_grouping",
    "HEURISTICS",
    "HeuristicName",
    "get_heuristic",
    "plan_grouping",
    "performance_vector",
    "BatchBreakdown",
    "batch_analytic_breakdown",
    "batch_analytic_makespan",
    "batch_best_uniform_group",
    "batch_gains_over_baseline",
    "batch_plan_groupings",
    "batch_solve_dp",
    "Repartition",
    "repartition_dags",
    "GenericChainProblem",
    "generic_grouping",
    "cpa_grouping",
    "cpa_width",
    "ExhaustiveResult",
    "enumerate_groupings",
    "exhaustive_grouping",
]
