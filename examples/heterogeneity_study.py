#!/usr/bin/env python3
"""Beyond the paper: randomized platforms and benchmark-noise robustness.

The paper evaluates on five fixed cluster speeds.  This example uses the
library's generators to ask two follow-up questions:

1. **Random platforms** — over platforms drawn uniformly from the
   paper's speed envelope, how often does each improvement actually beat
   the basic heuristic, and by how much?
2. **Noisy benchmarks** — the heuristics consume measured T[G] tables;
   if the measurements carry ±10% noise, do knapsack's decisions
   (computed from the noisy table) still pay off on the true machine?

Run::

    python examples/heterogeneity_study.py [seed]
"""

from __future__ import annotations

import sys

import numpy as np

from repro import EnsembleSpec
from repro.analysis.gains import gains_over_baseline
from repro.analysis.stats import summarize
from repro.analysis.tables import format_table
from repro.core.heuristics import plan_grouping
from repro.experiments.runner import ALL_HEURISTICS
from repro.platform.cluster import ClusterSpec
from repro.platform.heterogeneity import perturbed_timing, random_cluster
from repro.simulation.engine import simulate


def random_platform_study(rng: np.random.Generator, spec: EnsembleSpec) -> None:
    """Gains of each improvement over 40 random clusters."""
    gains_by_heuristic: dict[str, list[float]] = {}
    for i in range(40):
        cluster = random_cluster(rng, name=f"random{i}")
        # Random clusters are not benchmark clusters, so no sweep covers
        # them: plan and simulate each heuristic directly.
        makespans = {
            heuristic.value: simulate(
                plan_grouping(cluster, spec, heuristic), spec, cluster.timing
            ).makespan
            for heuristic in ALL_HEURISTICS
        }
        gains = gains_over_baseline(makespans)
        for name, gain in gains.items():
            gains_by_heuristic.setdefault(name, []).append(gain)

    rows = []
    for name, samples in gains_by_heuristic.items():
        stats = summarize(samples)
        wins = sum(1 for g in samples if g > 1e-9)
        losses = sum(1 for g in samples if g < -1e-9)
        rows.append(
            [name, f"{stats.mean:+.2f}", f"{stats.std:.2f}",
             f"{stats.maximum:+.2f}", f"{stats.minimum:+.2f}",
             f"{wins}/{len(samples)}", f"{losses}/{len(samples)}"]
        )
    print("gains (%) over 40 random clusters (speed and size uniform in")
    print("the paper's envelope):")
    print(
        format_table(
            ["heuristic", "mean", "std", "best", "worst", "wins", "losses"],
            rows,
        )
    )


def noise_robustness_study(rng: np.random.Generator, spec: EnsembleSpec) -> None:
    """Plan on a noisy table, execute on the true machine."""
    print("\nbenchmark-noise robustness (plan on noisy T[G], run on true):")
    rows = []
    for noise in (0.0, 0.05, 0.10, 0.20):
        regrets: list[float] = []
        for i in range(25):
            truth = random_cluster(rng, name=f"true{i}")
            noisy = ClusterSpec(
                truth.name,
                truth.resources,
                perturbed_timing(truth.timing, rng, relative_noise=noise),
            )
            planned = plan_grouping(noisy, spec, "knapsack")
            oracle = plan_grouping(truth, spec, "knapsack")
            ms_planned = simulate(planned, spec, truth.timing).makespan
            ms_oracle = simulate(oracle, spec, truth.timing).makespan
            regrets.append((ms_planned - ms_oracle) / ms_oracle * 100.0)
        stats = summarize(regrets)
        rows.append(
            [f"{noise:.0%}", f"{stats.mean:+.2f}", f"{stats.maximum:+.2f}"]
        )
    print(
        format_table(
            ["table noise", "mean regret %", "worst regret %"], rows
        )
    )
    print(
        "(regret = extra makespan of the noisy-table plan vs planning "
        "with the true table)"
    )


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 2008
    rng = np.random.default_rng(seed)
    spec = EnsembleSpec(scenarios=10, months=36)
    print(f"seed={seed}, ensemble {spec.scenarios} x {spec.months} months\n")
    random_platform_study(rng, spec)
    noise_robustness_study(rng, spec)


if __name__ == "__main__":
    main()
