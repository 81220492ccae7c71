"""Platform models: processors, clusters, grids, and task timing.

This subpackage is the machine-side substrate of the reproduction.  The
paper's heuristics only ever observe a platform through two quantities —
the execution time ``T[G]`` of the moldable main task on a group of ``G``
processors, and the duration ``TP`` of a post-processing task — so the
central abstraction here is :class:`~repro.platform.timing.TimingModel`.

A :class:`~repro.platform.cluster.ClusterSpec` pairs a timing model with a
processor count; a :class:`~repro.platform.grid.GridSpec` aggregates
clusters into the heterogeneous platforms of Sections 5–6.  The synthetic
Grid'5000-like benchmark database of :mod:`repro.platform.benchmarks`
replaces the authors' testbed measurements (see DESIGN.md §2).
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.platform.timing": (
        "TimingModel", "AmdahlTimingModel", "TableTimingModel",
        "ScaledTimingModel", "reference_timing",
    ),
    "repro.platform.cluster": ("ClusterSpec",),
    "repro.platform.grid": ("GridSpec", "homogeneous_grid"),
    "repro.platform.benchmarks": (
        "REFERENCE_CLUSTER_SPEEDS", "benchmark_cluster", "benchmark_clusters",
        "benchmark_grid", "main_time_table",
    ),
    "repro.platform.gridfive": (
        "SITE_CATALOG", "catalog_cluster", "catalog_grid", "site_names",
    ),
    "repro.platform.heterogeneity": (
        "random_cluster", "random_grid", "perturbed_timing",
    ),
})
