"""Figure 9 — the execution-steps protocol, rendered from a live run.

Figure 9 is a diagram, not a measurement: the six protocol steps
between client and clusters.  This driver *executes* the protocol on a
small grid through the middleware and renders the resulting message log
as an ASCII sequence diagram — the figure regenerated from behaviour
rather than drawn by hand, so it can never drift from the code.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.middleware.client import CampaignResult
from repro.middleware.deployment import deploy
from repro.platform.benchmarks import benchmark_grid
from repro.platform.grid import GridSpec

__all__ = ["Fig9Result", "run", "render", "main"]

#: The paper's step numbering by message kind and direction.
_STEP_OF_KIND = {
    "ServiceRequest": 1,
    "PerformanceReply": 3,
    "PerformanceReplies": 3,
    "ExecutionOrder": 5,
    "ExecutionReport": 6,
}


@dataclass(frozen=True)
class Fig9Result:
    """A campaign (its ``messages`` are the exchange) and its participants."""

    campaign: CampaignResult
    participants: tuple[str, ...]

    def kinds_in_order(self) -> list[str]:
        """Message kinds in transmission order."""
        return [entry.kind for entry in self.campaign.messages]


def run(
    *,
    grid: GridSpec | None = None,
    scenarios: int = 4,
    months: int = 6,
    heuristic: str = "knapsack",
) -> Fig9Result:
    """Execute the 6-step protocol and capture the exchange."""
    grid = grid if grid is not None else benchmark_grid(2, 25)
    client, agent, _seds = deploy(grid)
    campaign = client.run_campaign(scenarios, months, heuristic)
    participants = (client.name, agent.name, *grid.names)
    return Fig9Result(campaign, participants)


def render(result: Fig9Result) -> str:
    """The exchange as an ASCII sequence diagram with paper step labels."""
    participants = list(result.participants)
    col_width = max(14, max(len(p) for p in participants) + 4)
    positions = {p: i * col_width + col_width // 2 for i, p in enumerate(participants)}
    total_width = col_width * len(participants)

    def lifeline_row() -> str:
        row = [" "] * total_width
        for p in participants:
            row[positions[p]] = "|"
        return "".join(row)

    lines: list[str] = ["Figure 9: execution steps (live protocol trace)", ""]
    header = [" "] * total_width
    for p in participants:
        start = positions[p] - len(p) // 2
        header[start : start + len(p)] = p
    lines.append("".join(header))
    lines.append(lifeline_row())

    for entry in result.campaign.messages:
        src, dst = positions[entry.sender], positions[entry.receiver]
        row = [" "] * total_width
        for p in participants:
            row[positions[p]] = "|"
        lo, hi = min(src, dst), max(src, dst)
        for i in range(lo + 1, hi):
            row[i] = "-"
        row[dst] = ">" if dst > src else "<"
        step = _STEP_OF_KIND.get(entry.kind, "?")
        label = f" ({step}) {entry.kind} [{entry.nbytes} B]"
        lines.append("".join(row) + label)
        lines.append(lifeline_row())

    lines.append("")
    lines.append(
        "steps: (1) request  (2) per-cluster knapsack performance vectors"
    )
    lines.append(
        "       (3) replies  (4) Algorithm 1 on the client  (5) orders  "
        "(6) execution"
    )
    lines.append("")
    lines.append(result.campaign.describe())
    return "\n".join(lines)


def main() -> None:  # pragma: no cover - thin CLI shim
    """Regenerate and print the protocol diagram at default parameters."""
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
