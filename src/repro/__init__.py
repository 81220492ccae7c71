"""repro — reproduction of *Ocean-Atmosphere Modelization over the Grid*.

Caniou, Caron, Charrier, Chis, Desprez, Maisonnave (INRIA RR-6695 /
ICPP 2008): scheduling an ensemble climate-prediction application —
independent chains of identical DAGs of moldable tasks — on clusters and
grids, with a knapsack-based processor-grouping heuristic.

Quickstart
----------
>>> from repro import (
...     EnsembleSpec, benchmark_cluster, plan_grouping, simulate_on_cluster,
... )
>>> cluster = benchmark_cluster("sagittaire", resources=53)
>>> spec = EnsembleSpec(scenarios=10, months=12)
>>> grouping = plan_grouping(cluster, spec, "knapsack")
>>> result = simulate_on_cluster(cluster, grouping, spec)
>>> result.makespan > 0
True

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every figure.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro._version": ("__version__",),
    # observability subsystem
    "repro.obs": ("obs",),
    "repro.constants": ("GROUP_SIZES", "POST_SECONDS", "PCR_SECONDS"),
    "repro.exceptions": (
        "ReproError", "ConfigurationError", "PlatformError", "WorkflowError",
        "SchedulingError", "SimulationError", "KnapsackError",
        "MiddlewareError", "ServiceError", "ValidationError",
    ),
    "repro.platform": (
        "TimingModel", "AmdahlTimingModel", "TableTimingModel",
        "ScaledTimingModel", "reference_timing", "ClusterSpec", "GridSpec",
        "homogeneous_grid", "benchmark_cluster", "benchmark_clusters",
        "benchmark_grid",
    ),
    "repro.workflow": (
        "Task", "TaskKind", "DAG", "EnsembleSpec", "monthly_dag",
        "scenario_dag", "ensemble_dag", "fused_scenario_dag",
        "fused_ensemble_dag", "fuse_ocean_atmosphere", "DataTransferModel",
    ),
    # core heuristics
    "repro.core": (
        "Grouping", "analytic_makespan", "analytic_breakdown",
        "cached_analytic_makespan", "cached_simulated_makespan",
        "makespan_cache_stats", "basic_grouping", "best_uniform_group",
        "redistribute_grouping", "allpost_end_grouping", "knapsack_grouping",
        "HeuristicName", "plan_grouping", "performance_vector", "Repartition",
        "repartition_dags", "GenericChainProblem", "generic_grouping",
    ),
    "repro.simulation": (
        "simulate", "simulate_on_cluster", "SimulationResult", "TaskRecord",
        "validate_schedule", "render_gantt",
    ),
})
