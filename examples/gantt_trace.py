#!/usr/bin/env python3
"""Visualizing schedule shapes — the paper's Figures 3-6 as ASCII Gantt.

Four configurations chosen to show the structures the paper draws:

1. Figure 3: no post pool (R2=0) — post tasks pile up after the mains.
2. Figure 4: an undersized post pool — posts 'overpass' into later waves.
3. Figures 5-6: an incomplete final wave — the unused groups' processors
   (Rleft) absorb the backlog.
4. The knapsack grouping on the same machine, for contrast.

The last configuration is also dumped as a Chrome Trace Event JSON file
(open it at https://ui.perfetto.dev) next to the ASCII chart.

Run::

    python examples/gantt_trace.py [TRACE_PATH]

The trace goes to ``TRACE_PATH``, or to ``gantt_trace.json`` in the
working directory.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro import EnsembleSpec, Grouping, benchmark_cluster, simulate_on_cluster
from repro.core.knapsack_grouping import knapsack_grouping
from repro.obs.tracing import Tracer
from repro.simulation.trace import render_gantt, trace_summary


def show(title: str, cluster, grouping: Grouping, spec: EnsembleSpec):
    """Simulate one configuration and print its chart."""
    print("=" * 100)
    print(title)
    print("=" * 100)
    result = simulate_on_cluster(cluster, grouping, spec, record_trace=True)
    print(trace_summary(result))
    print()
    print(render_gantt(result, width=96, max_rows=24))
    print()
    return result


def dump_chrome_trace(result, path: Path) -> None:
    """Write one schedule to ``path`` as Chrome Trace Event JSON (for Perfetto).

    Same schedule as the ASCII chart, one span per task: lane = first
    processor of the task's group, 1 simulated second = 1 trace us.
    """
    tracer = Tracer()
    for record in result.records:
        tracer.add_complete_span(
            f"{record.kind}(s{record.scenario},m{record.month})",
            ts=record.start,
            dur=record.duration,
            tid=record.procs_start,
            kind=record.kind,
            group=record.group,
        )
    path.write_text(tracer.to_chrome_json())


def main() -> None:
    path = Path(sys.argv[1] if len(sys.argv) > 1 else "gantt_trace.json")
    cluster = benchmark_cluster("sagittaire", 22)

    # 1. R2 = 0: two groups of 11 fill the machine; every post task must
    #    wait for the end (paper Figure 3).
    show(
        "Figure 3 shape: no processors for post-processing (R2 = 0)",
        cluster,
        Grouping((11, 11), post_pool=0, total_resources=22),
        EnsembleSpec(scenarios=4, months=6),
    )

    # 2. Undersized post pool: four groups of 5 feed one post processor
    #    faster than it drains (paper Figure 4's 'overpassing').
    show(
        "Figure 4 shape: post tasks overpassing an undersized pool",
        cluster,
        Grouping((5, 5, 5, 5), post_pool=2, total_resources=22),
        EnsembleSpec(scenarios=8, months=6),
    )

    # 3. Incomplete last wave: 5 scenarios x 5 months = 25 tasks on 4
    #    groups -> the 7th wave uses 1 group; the three idle groups'
    #    processors (Rleft) absorb the post backlog (paper Figures 5-6).
    show(
        "Figures 5-6 shape: final incomplete wave, Rleft absorbs posts",
        cluster,
        Grouping((5, 5, 5, 5), post_pool=2, total_resources=22),
        EnsembleSpec(scenarios=5, months=5),
    )

    # 4. What the knapsack does with the same 22 processors.
    spec = EnsembleSpec(scenarios=5, months=5)
    grouping = knapsack_grouping(cluster, spec)
    result = show(
        f"Knapsack grouping on the same machine: {grouping.describe()}",
        cluster,
        grouping,
        spec,
    )
    dump_chrome_trace(result, path)
    print(f"chrome trace written to {path} (open in https://ui.perfetto.dev)")


if __name__ == "__main__":
    main()
