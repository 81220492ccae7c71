"""Benchmark/regeneration of Figure 8 — homogeneous-cluster gains.

Run with::

    pytest benchmarks/bench_fig8.py --benchmark-only -s
"""

from __future__ import annotations

import pytest

from repro.experiments import fig8


@pytest.mark.figure("fig8")
def test_fig8_gain_sweep(benchmark) -> None:
    """Time a step-2 sweep of the full figure and print the curves."""
    result = benchmark.pedantic(
        lambda: fig8.run(months=60, step=2), rounds=1, iterations=1
    )
    print()
    print(fig8.render(result))
    from pathlib import Path

    from repro.analysis.svg import svg_line_chart

    directory = Path(__file__).parent / "artifacts"
    directory.mkdir(exist_ok=True)
    svg = svg_line_chart(
        [float(r) for r in result.resources],
        {name: [s.mean for s in pts] for name, pts in result.stats.items()},
        title="Figure 8: mean gains over the basic heuristic (5 clusters)",
        x_label="resources (processors)",
        y_label="gain (%)",
    )
    (directory / "fig8.svg").write_text(svg, encoding="utf-8")
    # Shape checks from the paper's discussion of Figure 8.
    assert result.max_gain("knapsack") > 3.0
    for name in result.stats:
        tail = [
            s.mean
            for s, r in zip(result.stats[name], result.resources)
            if r >= 110
        ]
        assert all(abs(g) < 1e-9 for g in tail)


@pytest.mark.figure("fig8")
def test_fig8_single_cluster_cell(benchmark) -> None:
    """Microbenchmark: one (cluster, R) cell — four plans + simulations.

    Uncached, so every round plans and simulates the cell afresh.
    """
    from repro.experiments.sweep import SweepGrid, run_sweep

    grid = SweepGrid.from_ranges(
        clusters=("chti",), r_min=53, r_max=53, scenarios=(10,), months=(60,)
    )
    result = benchmark(run_sweep, grid, use_cache=False)
    assert set(result.cells()[("chti", 53, 10, 60)]) == {
        "basic", "redistribute", "allpost_end", "knapsack"
    }
