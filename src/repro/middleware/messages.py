"""Typed messages of the 6-step client/agent/SeD protocol (Figure 9).

All messages are frozen dataclasses: the middleware passes them by
reference in-process, and immutability guarantees a SeD cannot massage a
request after the fact.  ``wire_size()`` estimates the serialized size
used by the network model — the protocol is control-plane only (vectors
of floats), which is why the paper can afford a round trip before any
computation starts.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from repro.core.grouping import Grouping
from repro.core.heuristics import HeuristicName
from repro.exceptions import MiddlewareError

__all__ = [
    "ServiceRequest",
    "PerformanceReply",
    "ExecutionOrder",
    "ExecutionReport",
]

#: Rough serialized size of one float64 plus framing, bytes.
_FLOAT_BYTES = 12

#: Fixed per-message envelope (headers, names, ids), bytes.
_ENVELOPE_BYTES = 256


@dataclass(frozen=True)
class ServiceRequest:
    """Step 1: the client's problem statement broadcast to the clusters."""

    scenarios: int
    months: int
    heuristic: HeuristicName = HeuristicName.KNAPSACK

    def __post_init__(self) -> None:
        if self.scenarios < 1 or self.months < 1:
            raise MiddlewareError(
                f"request needs scenarios, months >= 1, got "
                f"{self.scenarios!r}, {self.months!r}"
            )

    def wire_size(self) -> int:
        """Estimated bytes on the wire."""
        return _ENVELOPE_BYTES + 2 * _FLOAT_BYTES


@dataclass(frozen=True)
class PerformanceReply:
    """Step 3: one cluster's performance vector.

    ``vector[k-1]`` = predicted makespan of ``k`` scenarios on the
    cluster, computed with the request's heuristic (Section 5 prescribes
    the knapsack modeling).
    """

    cluster_name: str
    vector: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.vector:
            raise MiddlewareError(
                f"cluster {self.cluster_name!r} replied with an empty vector"
            )
        vector = self.vector
        if any(map((0.0).__gt__, vector)):
            raise MiddlewareError(
                f"cluster {self.cluster_name!r} replied with negative makespans"
            )
        # An ordered vector passes the C-level check; only a failing
        # one pays the tolerant per-pair scan.
        if not all(map(operator.le, vector, vector[1:])) and any(
            a > b + 1e-9 for a, b in zip(vector, vector[1:], strict=False)
        ):
            raise MiddlewareError(
                f"cluster {self.cluster_name!r}'s performance vector is not "
                f"non-decreasing — the SeD is lying about its capacity"
            )

    def wire_size(self) -> int:
        """Estimated bytes on the wire."""
        return _ENVELOPE_BYTES + len(self.vector) * _FLOAT_BYTES


@dataclass(frozen=True)
class ExecutionOrder:
    """Step 5: the subset of scenarios a cluster must execute."""

    cluster_name: str
    scenario_ids: tuple[int, ...]
    months: int
    heuristic: HeuristicName = HeuristicName.KNAPSACK

    def __post_init__(self) -> None:
        if not self.scenario_ids:
            raise MiddlewareError(
                f"empty execution order for cluster {self.cluster_name!r}; "
                f"idle clusters simply receive no order"
            )
        if len(set(self.scenario_ids)) != len(self.scenario_ids):
            raise MiddlewareError(
                f"duplicate scenario ids in order for {self.cluster_name!r}"
            )
        if self.months < 1:
            raise MiddlewareError(f"months must be >= 1, got {self.months!r}")

    def wire_size(self) -> int:
        """Estimated bytes on the wire."""
        return _ENVELOPE_BYTES + (1 + len(self.scenario_ids)) * _FLOAT_BYTES


@dataclass(frozen=True)
class ExecutionReport:
    """Step 6's completion record returned by a cluster."""

    cluster_name: str
    scenario_ids: tuple[int, ...]
    makespan: float
    grouping: Grouping = field(repr=False)

    def __post_init__(self) -> None:
        if self.makespan < 0:
            raise MiddlewareError(
                f"cluster {self.cluster_name!r} reported a negative makespan"
            )

    def wire_size(self) -> int:
        """Estimated bytes on the wire."""
        return _ENVELOPE_BYTES + (2 + len(self.scenario_ids)) * _FLOAT_BYTES
