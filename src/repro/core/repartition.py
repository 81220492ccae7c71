"""Algorithm 1 — greedy repartition of scenarios over clusters.

Section 5: "each simulation is scheduled on the cluster on which the
total makespan increases the less.  When all the simulations are
scheduled, this scheduling is returned to the client."  The algorithm is
optimal for the given performance arrays under the no-migration rule
("if we map a scenario onto another cluster, the total makespan cannot
decrease"), and the tests verify that claim by exhaustive comparison on
small instances.

Faithfulness note: the paper's pseudo-code picks the cluster minimizing
``performance[i][nbDags[i] + 1]`` — the *resulting makespan of that
cluster*, not the increase.  For non-decreasing performance vectors the
two rules coincide in outcome quality; we implement the paper's literal
rule, ties broken by lower cluster index exactly as the pseudo-code's
strict ``<`` does.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import SchedulingError

__all__ = ["Repartition", "repartition_dags"]


@dataclass(frozen=True)
class Repartition:
    """Result of Algorithm 1.

    ``assignment[d]`` is the cluster index of scenario ``d`` (0-based);
    ``counts[i]`` the number of scenarios on cluster ``i``;
    ``makespan`` the resulting global makespan
    ``max_i performance[i][counts[i]]``.
    """

    assignment: tuple[int, ...]
    counts: tuple[int, ...]
    makespan: float

    @property
    def n_scenarios(self) -> int:
        """Total scenarios placed."""
        return len(self.assignment)

    def scenarios_on(self, cluster_index: int) -> list[int]:
        """Scenario ids assigned to one cluster."""
        return [d for d, c in enumerate(self.assignment) if c == cluster_index]


def repartition_dags(
    performance: Sequence[Sequence[float]], n_scenarios: int
) -> Repartition:
    """Run Algorithm 1.

    Parameters
    ----------
    performance:
        ``performance[i][k-1]`` = makespan of ``k`` scenarios on cluster
        ``i`` (each row must cover ``k = 1..n_scenarios``; rows must be
        non-decreasing — a shorter makespan for *more* scenarios means
        the vector is corrupt).
    n_scenarios:
        Number of scenarios (the paper's NS) to place.
    """
    if n_scenarios < 1:
        raise SchedulingError(f"n_scenarios must be >= 1, got {n_scenarios!r}")
    if not performance:
        raise SchedulingError("need at least one cluster's performance vector")
    for i, row in enumerate(performance):
        if len(row) < n_scenarios:
            raise SchedulingError(
                f"cluster {i}'s performance vector has {len(row)} entries; "
                f"needs {n_scenarios}"
            )
        # The C-level pass settles an ordered row; only a failing one
        # pays the tolerant per-pair scan.
        if not all(map(operator.le, row, row[1:])) and any(
            a > b + 1e-9 for a, b in zip(row, row[1:], strict=False)
        ):
            raise SchedulingError(
                f"cluster {i}'s performance vector is not non-decreasing"
            )

    counts = [0] * len(performance)
    assignment: list[int] = []
    for _dag in range(n_scenarios):
        ms_min = float("inf")
        cluster_min = 0
        for i, row in enumerate(performance):
            candidate = row[counts[i]]  # makespan with one more scenario
            if candidate < ms_min:
                ms_min = candidate
                cluster_min = i
        counts[cluster_min] += 1
        assignment.append(cluster_min)

    makespan = max(
        performance[i][counts[i] - 1] for i in range(len(performance)) if counts[i] > 0
    )
    return Repartition(tuple(assignment), tuple(counts), makespan)
