#!/usr/bin/env python3
"""Surviving a site failure mid-campaign (extension beyond the paper).

A 10-scenario campaign runs across three Grid'5000-like sites; one site
fails partway through.  The recovery machinery replays the failed site's
schedule to find which months are safe (their restart files exist),
then reassigns each interrupted scenario to a surviving site —
Algorithm 1's greedy rule generalized to unequal remaining chain
lengths, each candidate evaluated exactly by the event simulator with
one month count per remaining chain.

The sweep below shows how the failure's *timing* changes its cost: an
early failure loses little work but reschedules nearly whole scenarios;
a late one loses only the in-flight months.

Run::

    python examples/failure_recovery.py
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.middleware.recovery import ClusterFailure, run_campaign_with_failure
from repro.platform.benchmarks import benchmark_grid


def main() -> None:
    grid = benchmark_grid(3, 30)
    scenarios, months = 10, 24
    print(grid.describe())
    print(f"\ncampaign: {scenarios} scenarios x {months} months")
    print("failing cluster: chti (the mid-speed site)\n")

    # One detailed narrative at the 5-hour mark.
    plan = run_campaign_with_failure(
        grid, scenarios, months, ClusterFailure("chti", 5.0 * 3600)
    )
    print(plan.describe())
    print()

    # Sweep the failure time across the campaign.
    rows = []
    for hours in (0.5, 2.0, 4.0, 6.0, 8.0, 9.5):
        plan = run_campaign_with_failure(
            grid, scenarios, months, ClusterFailure("chti", hours * 3600)
        )
        safe = sum(plan.completed_months.values())
        total = months * len(plan.completed_months)
        rows.append(
            [
                f"{hours:.1f} h",
                f"{safe}/{total}",
                f"{plan.lost_work_seconds / 3600:.2f}",
                f"{plan.makespan / 3600:.2f}",
                f"+{plan.delay / 3600:.2f}",
            ]
        )
    print("failure-time sweep:")
    print(
        format_table(
            [
                "failure at",
                "months safe",
                "lost proc-hours",
                "makespan (h)",
                "delay (h)",
            ],
            rows,
        )
    )
    print(
        "\n(the later the failure, the more months are checkpointed by "
        "their restart files, and the cheaper the recovery)"
    )


if __name__ == "__main__":
    main()
