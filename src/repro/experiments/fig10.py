"""Figure 10 — grid gains with DAG repartition (Algorithm 1).

"Figure 10 shows the gains obtained by the different heuristics [...]
compared to the basic heuristic.  Clusters have all the same number of
resources.  The X axis represents the number of clusters and the number
of resources per cluster, hence 2.25 represents the results for two
clusters with 25 resources each."  Clusters take their speeds from the
five benchmarked ones (cycled); 2 to 5 clusters, 11 to 99 processors
each; NS = 10.

Expected shape: best gains around 12 %; flat zero-gain plateaus where
the slowest cluster pins the global makespan and every heuristic picks
the same grouping there; gains shrink as clusters are added (more
aggregate resources make the basic heuristic good enough).

For each grid configuration and each heuristic, every cluster's
performance vector (makespan of 1..NS scenarios under *that* heuristic)
feeds Algorithm 1; the configuration's makespan is the slowest assigned
cluster's.  Vectors come from
:func:`~repro.core.performance_vector.performance_vector`, whose entries
are memoized simulations: cluster speed × resources × heuristic repeats
many times in the sweep, and every repeat reads the simulated cache.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.gains import gain_percent
from repro.analysis.plotting import ascii_plot
from repro.analysis.tables import series_table
from repro.core.heuristics import HeuristicName
from repro.core.performance_vector import performance_vector
from repro.core.repartition import repartition_dags
from repro.experiments.runner import ALL_HEURISTICS, cycle_names, resource_sweep
from repro.platform.benchmarks import benchmark_cluster
from repro.workflow.ocean_atmosphere import EnsembleSpec

__all__ = ["Fig10Result", "grid_makespan", "run", "render", "main"]


@dataclass(frozen=True)
class Fig10Result:
    """Gains per grid configuration.

    ``x_axis`` uses the paper's encoding ``n_clusters + resources/100``;
    ``gains[heuristic][i]`` is the gain (%) at configuration ``i``.
    """

    configurations: tuple[tuple[int, int], ...]  # (n_clusters, resources)
    x_axis: tuple[float, ...]
    makespans: dict[str, tuple[float, ...]]
    gains: dict[str, tuple[float, ...]]
    scenarios: int
    months: int

    def max_gain(self, heuristic: str) -> float:
        """Best gain of one heuristic over the whole sweep."""
        return max(self.gains[heuristic])


def grid_makespan(
    speed_names: list[str],
    resources: int,
    heuristic: HeuristicName,
    spec: EnsembleSpec,
) -> float:
    """Makespan of one grid configuration under one heuristic."""
    performance = [
        performance_vector(benchmark_cluster(name, resources), spec, heuristic)
        for name in speed_names
    ]
    return repartition_dags(performance, spec.scenarios).makespan


def run(
    *,
    scenarios: int = 10,
    months: int = 60,
    cluster_counts: tuple[int, ...] = (2, 3, 4, 5),
    r_min: int = 11,
    r_max: int = 99,
    step: int = 4,
) -> Fig10Result:
    """Run the grid gain sweep.

    ``step`` sub-samples the per-cluster resource axis (the paper plots a
    dense curve; step=4 keeps the default run under a minute while
    preserving the plateaus — pass step=1 for the full sweep).
    """
    spec = EnsembleSpec(scenarios, months)
    resources_list = resource_sweep(r_min, r_max, step)

    configurations: list[tuple[int, int]] = []
    xs: list[float] = []
    makespans: dict[str, list[float]] = {h.value: [] for h in ALL_HEURISTICS}
    from repro.platform.benchmarks import REFERENCE_CLUSTER_SPEEDS

    for n in cluster_counts:
        speed_names = cycle_names(REFERENCE_CLUSTER_SPEEDS, n)
        for r in resources_list:
            configurations.append((n, r))
            xs.append(n + r / 100.0)
            for heuristic in ALL_HEURISTICS:
                makespans[heuristic.value].append(
                    grid_makespan(speed_names, r, heuristic, spec)
                )

    gains: dict[str, tuple[float, ...]] = {}
    base = makespans[HeuristicName.BASIC.value]
    for heuristic in ALL_HEURISTICS:
        if heuristic is HeuristicName.BASIC:
            continue
        gains[heuristic.value] = tuple(
            gain_percent(b, m)
            for b, m in zip(base, makespans[heuristic.value], strict=True)
        )
    return Fig10Result(
        configurations=tuple(configurations),
        x_axis=tuple(xs),
        makespans={k: tuple(v) for k, v in makespans.items()},
        gains=gains,
        scenarios=scenarios,
        months=months,
    )


def render(result: Fig10Result, *, plot: bool = True) -> str:
    """The figure's gain curves plus the underlying table."""
    parts: list[str] = []
    xs = list(result.x_axis)
    series = {name: list(values) for name, values in result.gains.items()}
    if plot:
        parts.append(
            ascii_plot(
                xs,
                series,
                x_label="clusters + resources/100",
                y_label="gain (%)",
                title=(
                    f"Figure 10: gains with DAG repartition on "
                    f"{min(c for c, _ in result.configurations)}-"
                    f"{max(c for c, _ in result.configurations)} clusters"
                ),
            )
        )
    parts.append(series_table("n.RR", xs, series))
    summary = ", ".join(
        f"{name}: max gain {result.max_gain(name):+.1f}%"
        for name in result.gains
    )
    parts.append(f"summary: {summary}")
    return "\n\n".join(parts)


def main() -> None:  # pragma: no cover - thin CLI shim
    """Regenerate and print the figure at default parameters."""
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
