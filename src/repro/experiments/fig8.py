"""Figure 8 — gains of Improvements 1–3 on a single cluster.

"Gains on the makespan obtained with the 3 possible improvements
presented with respect to the first version of scheduling are plotted in
Figure 8.  These results come from 5 simulations done on clusters with
different computing powers.  The figure shows the average of the gains,
and also the standard deviation."  (NS = 10; R swept over 11–120.)

Expected shape: the knapsack representation (gain 3) "yields to the
bests results with low resources"; gains shrink with more resources and
can dip slightly negative; at large R all heuristics converge to NS
groups of 11 and every gain is 0.

The makespans come from one :func:`~repro.experiments.sweep.run_sweep`
over the five benchmark clusters (see
:func:`~repro.experiments.runner.heuristic_cells`), scored per cell by
:func:`~repro.analysis.gains.gains_over_baseline`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.gains import gains_over_baseline
from repro.analysis.plotting import ascii_plot
from repro.analysis.stats import SeriesStats, summarize
from repro.analysis.tables import format_table
from repro.core.heuristics import HeuristicName
from repro.experiments.runner import (
    ALL_HEURISTICS,
    IMPROVEMENT_LABELS,
    heuristic_cells,
    resource_sweep,
)
from repro.platform.benchmarks import REFERENCE_CLUSTER_SPEEDS

__all__ = ["Fig8Result", "run", "render", "main"]


@dataclass(frozen=True)
class Fig8Result:
    """Per-improvement gain statistics over the resource sweep.

    ``raw_gains[heuristic][j][i]`` is the gain (%) of ``heuristic`` on
    cluster ``j`` at ``resources[i]``; ``stats[heuristic][i]`` aggregates
    across clusters at each point.
    """

    resources: tuple[int, ...]
    cluster_names: tuple[str, ...]
    raw_gains: dict[str, tuple[tuple[float, ...], ...]]
    stats: dict[str, tuple[SeriesStats, ...]]
    scenarios: int
    months: int

    def mean_series(self) -> dict[str, list[float]]:
        """Mean gain of each improvement at each resource count."""
        return {
            name: [s.mean for s in per_point]
            for name, per_point in self.stats.items()
        }

    def max_gain(self, heuristic: str) -> float:
        """The headline number: best mean gain over the sweep."""
        return max(s.mean for s in self.stats[heuristic])


def run(
    *,
    scenarios: int = 10,
    months: int = 60,
    r_min: int = 11,
    r_max: int = 120,
    step: int = 1,
    workers: int | None = None,
) -> Fig8Result:
    """Run the homogeneous-cluster gain sweep on the five benchmark clusters.

    ``months`` defaults to 60 — gains are driven by wave-level structure
    and are insensitive to NM (verified by the NM ablation), while the
    paper's 1800 months would multiply the runtime 30x for identical
    curves.  ``workers > 1`` distributes the sweep's chunks over
    processes; results are identical to the serial run.
    """
    names = tuple(REFERENCE_CLUSTER_SPEEDS)
    resources = resource_sweep(r_min, r_max, step)
    cells = heuristic_cells(names, resources, (scenarios,), (months,), workers=workers)
    gains = {cell: gains_over_baseline(makespans) for cell, makespans in cells.items()}
    raw = {
        h.value: tuple(
            tuple(gains[(name, r, scenarios, months)][h.value] for r in resources)
            for name in names
        )
        for h in ALL_HEURISTICS
        if h is not HeuristicName.BASIC
    }
    # stats[h][i] summarizes every cluster's gain at resources[i].
    stats = {
        h: tuple(summarize(point) for point in zip(*per_cluster, strict=True))
        for h, per_cluster in raw.items()
    }
    return Fig8Result(
        resources=tuple(resources),
        cluster_names=names,
        raw_gains=raw,
        stats=stats,
        scenarios=scenarios,
        months=months,
    )


def render(result: Fig8Result, *, plot: bool = True) -> str:
    """Three gain panels (like the paper's stacked plot) plus a table."""
    xs = [float(r) for r in result.resources]
    parts: list[str] = []
    if plot:
        for heuristic, label in (
            (h.value, lbl) for h, lbl in IMPROVEMENT_LABELS.items()
        ):
            means = [s.mean for s in result.stats[heuristic]]
            stds = [s.std for s in result.stats[heuristic]]
            parts.append(
                ascii_plot(
                    xs,
                    {
                        "mean": means,
                        "mean+std": [m + s for m, s in zip(means, stds, strict=True)],
                        "mean-std": [m - s for m, s in zip(means, stds, strict=True)],
                    },
                    x_label="resources (processors)",
                    y_label="gain (%)",
                    title=f"Figure 8 panel: {label}",
                    height=12,
                )
            )
    headers = ["R", *(f"{name} mean±std" for name in result.stats)]
    rows = []
    for i, r in enumerate(result.resources):
        row: list[object] = [r]
        for name in result.stats:
            s = result.stats[name][i]
            row.append(f"{s.mean:+.2f}±{s.std:.2f}")
        rows.append(row)
    parts.append(format_table(headers, rows))
    summary = ", ".join(
        f"{name}: max mean gain {result.max_gain(name):+.1f}%"
        for name in result.stats
    )
    parts.append(f"summary: {summary}")
    return "\n\n".join(parts)


def main() -> None:  # pragma: no cover - thin CLI shim
    """Regenerate and print the figure at default parameters."""
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
