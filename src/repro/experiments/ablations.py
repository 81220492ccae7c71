"""Ablation studies backing the design decisions in DESIGN.md.

Each study has its own ``run_*`` function; the four behind DESIGN.md's
decisions are:

``run_analytic_vs_simulated``
    How tight are Equations 1–5 against the event simulator?  The basic
    heuristic *selects* G analytically; if the formulas mis-ranked
    groupings badly, the whole Figure 8 baseline would be suspect.

``run_solver_comparison``
    Exact DP vs greedy knapsack: objective gap and the resulting
    makespan gap.  Quantifies what the paper's exact formulation buys
    over the obvious cheap heuristic.

``run_months_sensitivity``
    Gains vs NM.  Justifies running the figures at NM=60 instead of the
    paper's 1800 (a 30x saving) by showing the gain curves stabilize.

``run_serial_fraction_sensitivity``
    The calibration study behind ``DEFAULT_SERIAL_FRACTION = 0.5`` (see
    :mod:`repro.platform.benchmarks`): how the optimal-grouping
    staircase responds to the Amdahl serial fraction.

The studies that need every heuristic's makespan (NM and NS
sensitivity, the optimality gap, the CPA comparison) read them from one
:func:`~repro.experiments.sweep.run_sweep` each, through
:func:`~repro.experiments.runner.heuristic_cells`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.gains import gains_over_baseline
from repro.analysis.tables import format_table
from repro.core.basic import best_uniform_group
from repro.core.grouping import Grouping
from repro.core.knapsack_grouping import knapsack_grouping, knapsack_problem_for
from repro.core.makespan import analytic_breakdown
from repro.experiments.runner import heuristic_cells
from repro.knapsack.dp import solve_dp
from repro.knapsack.greedy import solve_greedy
from repro.platform.benchmarks import benchmark_cluster
from repro.platform.cluster import ClusterSpec
from repro.platform.timing import AmdahlTimingModel, reference_timing
from repro.simulation.engine import simulate
from repro.workflow.ocean_atmosphere import EnsembleSpec

__all__ = [
    "AnalyticGap",
    "run_analytic_vs_simulated",
    "run_solver_comparison",
    "run_months_sensitivity",
    "run_serial_fraction_sensitivity",
    "run_optimality_gap",
    "run_online_vs_static",
    "run_cpa_comparison",
    "run_scenarios_sensitivity",
    "main",
]


@dataclass(frozen=True)
class AnalyticGap:
    """One (R, G) comparison of formula vs simulator."""

    resources: int
    group_size: int
    case: str
    analytic: float
    simulated: float

    @property
    def relative_error(self) -> float:
        """``(analytic − simulated) / simulated``; positive = formula high."""
        return (self.analytic - self.simulated) / self.simulated


def run_analytic_vs_simulated(
    *,
    scenarios: int = 10,
    months: int = 60,
    r_min: int = 11,
    r_max: int = 120,
    step: int = 1,
) -> list[AnalyticGap]:
    """Compare Equations 1–5 with the simulator over every (R, G)."""
    timing = reference_timing()
    spec = EnsembleSpec(scenarios, months)
    gaps: list[AnalyticGap] = []
    for r in range(r_min, r_max + 1, step):
        for g in timing.group_sizes:
            if r // g == 0:
                continue
            breakdown = analytic_breakdown(
                r, g, scenarios, months, timing.main_time(g), timing.post_time()
            )
            nbmax = min(scenarios, r // g)
            grouping = Grouping.uniform(g, nbmax, r)
            simulated = simulate(grouping, spec, timing).makespan
            gaps.append(
                AnalyticGap(r, g, breakdown.case, breakdown.makespan, simulated)
            )
    return gaps


def run_solver_comparison(
    *,
    scenarios: int = 10,
    months: int = 60,
    r_min: int = 11,
    r_max: int = 120,
    step: int = 1,
    cluster_name: str = "sagittaire",
) -> list[dict[str, float]]:
    """DP vs greedy knapsack: objective value and makespan per R."""
    spec = EnsembleSpec(scenarios, months)
    rows: list[dict[str, float]] = []
    for r in range(r_min, r_max + 1, step):
        cluster = benchmark_cluster(cluster_name, r)
        problem = knapsack_problem_for(cluster, spec)
        dp = solve_dp(problem)
        greedy = solve_greedy(problem)
        ms_dp = simulate(
            knapsack_grouping(cluster, spec, solver=solve_dp), spec, cluster.timing
        ).makespan
        ms_greedy = simulate(
            knapsack_grouping(cluster, spec, solver=solve_greedy),
            spec,
            cluster.timing,
        ).makespan
        rows.append(
            {
                "R": float(r),
                "dp_value": dp.value,
                "greedy_value": greedy.value,
                "value_gap_pct": (dp.value - greedy.value) / dp.value * 100.0,
                "dp_makespan": ms_dp,
                "greedy_makespan": ms_greedy,
                "makespan_gap_pct": (ms_greedy - ms_dp) / ms_dp * 100.0,
            }
        )
    return rows


def run_months_sensitivity(
    *,
    scenarios: int = 10,
    months_values: tuple[int, ...] = (12, 30, 60, 180, 600),
    resources: tuple[int, ...] = (15, 30, 53, 75, 100),
    cluster_name: str = "chti",
) -> dict[int, dict[int, dict[str, float]]]:
    """Gains per (NM, R): ``result[months][R][heuristic] = gain%``."""
    cells = heuristic_cells((cluster_name,), resources, (scenarios,), months_values)
    return {
        months: {
            r: gains_over_baseline(cells[(cluster_name, r, scenarios, months)])
            for r in resources
        }
        for months in months_values
    }


def run_serial_fraction_sensitivity(
    *,
    scenarios: int = 10,
    months: int = 60,
    fractions: tuple[float, ...] = (0.1, 0.25, 0.5, 0.6),
    r_min: int = 11,
    r_max: int = 120,
) -> dict[float, list[int]]:
    """Optimal-grouping staircase per Amdahl serial fraction."""
    spec = EnsembleSpec(scenarios, months)
    out: dict[float, list[int]] = {}
    for fraction in fractions:
        timing = AmdahlTimingModel.calibrated(1262.0, serial_fraction=fraction)
        out[fraction] = [
            best_uniform_group(ClusterSpec("ref", r, timing), spec)
            for r in range(r_min, r_max + 1)
        ]
    return out


def run_optimality_gap(
    *,
    scenarios: int = 6,
    months: int = 12,
    resources: tuple[int, ...] = (11, 15, 19, 23, 27, 31, 35),
    cluster_name: str = "grelon",
    limit: int = 200_000,
) -> list[dict[str, float]]:
    """Heuristics vs the simulated-optimal grouping (exhaustive search).

    For each resource count: enumerate every feasible group multiset,
    simulate all of them, and report each heuristic's relative gap to
    the best.  Moderate dimensions only — the candidate count grows
    combinatorially (hence the smaller default NS than the figures).
    """
    from repro.core.exhaustive import exhaustive_grouping

    spec = EnsembleSpec(scenarios, months)
    cells = heuristic_cells((cluster_name,), resources, (scenarios,), (months,))
    rows: list[dict[str, float]] = []
    for r in resources:
        cluster = benchmark_cluster(cluster_name, r)
        optimum = exhaustive_grouping(cluster, spec, limit=limit)
        row: dict[str, float] = {
            "R": float(r),
            "candidates": float(optimum.candidates),
            "optimal_makespan": optimum.best_makespan,
        }
        for heuristic, makespan in cells[(cluster_name, r, scenarios, months)].items():
            row[f"{heuristic}_gap_pct"] = optimum.gap_of(makespan)
        rows.append(row)
    return rows


def run_online_vs_static(
    *,
    scenarios: int = 10,
    months: int = 60,
    resources: tuple[int, ...] = (15, 22, 30, 40, 53, 70, 90, 110),
    cluster_name: str = "sagittaire",
) -> list[dict[str, float]]:
    """Static groups vs the online no-groups baseline.

    Tests the paper's core structural commitment: do pre-computed
    disjoint groups beat a pool with per-task allocation?  Two online
    policies are compared (see :mod:`repro.simulation.online`); the
    knapsack-aware one is expected to collapse onto the static knapsack
    solution, showing that the knapsack *structure* — not adaptivity —
    carries the gains.
    """
    from repro.simulation.online import simulate_online

    spec = EnsembleSpec(scenarios, months)
    rows: list[dict[str, float]] = []
    for r in resources:
        cluster = benchmark_cluster(cluster_name, r)
        static_knap = simulate(
            knapsack_grouping(cluster, spec), spec, cluster.timing
        ).makespan
        greedy = simulate_online(
            spec, cluster.timing, r, policy="greedy-max"
        ).makespan
        aware = simulate_online(
            spec, cluster.timing, r, policy="knapsack-aware"
        ).makespan
        rows.append(
            {
                "R": float(r),
                "static_knapsack": static_knap,
                "online_greedy_max": greedy,
                "online_knapsack_aware": aware,
                "greedy_penalty_pct": (greedy - static_knap) / static_knap * 100.0,
                "aware_penalty_pct": (aware - static_knap) / static_knap * 100.0,
            }
        )
    return rows


def run_cpa_comparison(
    *,
    scenarios: int = 10,
    months: int = 60,
    resources: tuple[int, ...] = (15, 22, 30, 40, 53, 70, 90, 110),
    cluster_name: str = "sagittaire",
) -> list[dict[str, float]]:
    """The related-work baseline (CPA, §3.2) measured against the paper.

    The paper argues CPA does not apply to ensembles ("no single
    critical path"); this quantifies the claim: CPA's width rule ignores
    how groups tile R, so at awkward resource counts it strands whole
    groups' worth of processors.
    """
    from repro.core.cpa import cpa_grouping

    spec = EnsembleSpec(scenarios, months)
    cells = heuristic_cells((cluster_name,), resources, (scenarios,), (months,))
    rows: list[dict[str, float]] = []
    for r in resources:
        cluster = benchmark_cluster(cluster_name, r)
        ms_cpa = simulate(
            cpa_grouping(cluster, spec), spec, cluster.timing
        ).makespan
        ms = cells[(cluster_name, r, scenarios, months)]
        rows.append(
            {
                "R": float(r),
                "cpa": ms_cpa,
                "basic": ms["basic"],
                "knapsack": ms["knapsack"],
                "cpa_vs_basic_pct": (ms_cpa - ms["basic"]) / ms["basic"] * 100.0,
                "cpa_vs_knapsack_pct": (
                    (ms_cpa - ms["knapsack"]) / ms["knapsack"] * 100.0
                ),
            }
        )
    return rows


def run_scenarios_sensitivity(
    *,
    scenarios_values: tuple[int, ...] = (2, 5, 10, 15, 20),
    months: int = 60,
    resources: tuple[int, ...] = (30, 53, 90),
    cluster_name: str = "grelon",
) -> dict[int, dict[int, dict[str, float]]]:
    """Gains per (NS, R): how ensemble size moves the curves.

    The paper fixes NS = 10 ("the number of simulations is going to be
    around 10"); this sweep answers the natural reviewer question of
    whether the knapsack's advantage is an artifact of that choice.
    ``result[scenarios][R][heuristic] = gain%``.
    """
    cells = heuristic_cells((cluster_name,), resources, scenarios_values, (months,))
    return {
        scenarios: {
            r: gains_over_baseline(cells[(cluster_name, r, scenarios, months)])
            for r in resources
        }
        for scenarios in scenarios_values
    }


def main() -> None:  # pragma: no cover - thin CLI shim
    """Run all ablation studies at reduced resolution and print digests."""
    gaps = run_analytic_vs_simulated(step=4)
    errors = [abs(g.relative_error) for g in gaps]
    print(
        f"analytic vs simulated over {len(gaps)} (R,G) points: "
        f"mean |err| {sum(errors) / len(errors) * 100:.2f}%, "
        f"max |err| {max(errors) * 100:.2f}%"
    )

    rows = run_solver_comparison(step=8)
    print("\nknapsack DP vs greedy:")
    print(
        format_table(
            ["R", "value gap %", "makespan gap %"],
            [[r["R"], r["value_gap_pct"], r["makespan_gap_pct"]] for r in rows],
        )
    )

    sens = run_months_sensitivity(months_values=(12, 60, 180))
    print("\ngain3 (knapsack) vs NM:")
    months_values = sorted(sens)
    resources = sorted(next(iter(sens.values())))
    print(
        format_table(
            ["R", *(f"NM={m}" for m in months_values)],
            [
                [r, *(sens[m][r]["knapsack"] for m in months_values)]
                for r in resources
            ],
        )
    )

    online_rows = run_online_vs_static(months=12)
    print("\nstatic groups vs online no-groups baseline (penalty %):")
    print(
        format_table(
            ["R", "greedy-max", "knapsack-aware"],
            [
                [row["R"], row["greedy_penalty_pct"], row["aware_penalty_pct"]]
                for row in online_rows
            ],
        )
    )

    cpa_rows = run_cpa_comparison(months=12)
    print("\nCPA baseline (related work, §3.2) vs the paper's heuristics (%):")
    print(
        format_table(
            ["R", "CPA vs basic", "CPA vs knapsack"],
            [
                [row["R"], row["cpa_vs_basic_pct"], row["cpa_vs_knapsack_pct"]]
                for row in cpa_rows
            ],
        )
    )

    gaps_rows = run_optimality_gap()
    print("\noptimality gap vs exhaustive search (%):")
    heuristics = ["basic", "redistribute", "allpost_end", "knapsack"]
    print(
        format_table(
            ["R", "candidates", *heuristics],
            [
                [
                    row["R"],
                    int(row["candidates"]),
                    *(row[f"{h}_gap_pct"] for h in heuristics),
                ]
                for row in gaps_rows
            ],
        )
    )


if __name__ == "__main__":  # pragma: no cover
    main()
