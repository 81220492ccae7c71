"""Heuristic registry and the shared planning driver.

Maps the paper's four heuristic names to their grouping functions and
provides :func:`plan_grouping`, the single entry point used by the
experiments, the performance-vector service, and the CLI.
"""

from __future__ import annotations

import enum
import time
from typing import Callable

from repro import obs
from repro.core.basic import allpost_end_grouping, basic_grouping, redistribute_grouping
from repro.core.grouping import Grouping
from repro.core.knapsack_grouping import knapsack_grouping
from repro.exceptions import ConfigurationError
from repro.platform.cluster import ClusterSpec
from repro.workflow.ocean_atmosphere import EnsembleSpec

__all__ = ["HeuristicName", "HEURISTICS", "get_heuristic", "plan_grouping"]

GroupingHeuristic = Callable[[ClusterSpec, EnsembleSpec], Grouping]


class HeuristicName(str, enum.Enum):
    """The paper's four processor-partitioning heuristics."""

    #: Section 4.1 — uniform group size, analytic G selection.
    BASIC = "basic"

    #: Improvement 1 — idle processors spread across groups.
    REDISTRIBUTE = "redistribute"

    #: Improvement 2 — no post pool, posts at the end.
    ALLPOST_END = "allpost_end"

    #: Improvement 3 — knapsack-optimal group multiset.
    KNAPSACK = "knapsack"


HEURISTICS: dict[HeuristicName, GroupingHeuristic] = {
    HeuristicName.BASIC: basic_grouping,
    HeuristicName.REDISTRIBUTE: redistribute_grouping,
    HeuristicName.ALLPOST_END: allpost_end_grouping,
    HeuristicName.KNAPSACK: knapsack_grouping,
}

#: The improvements of Section 4.2, in the paper's Gain 1/2/3 order.
IMPROVEMENTS: tuple[HeuristicName, ...] = (
    HeuristicName.REDISTRIBUTE,
    HeuristicName.ALLPOST_END,
    HeuristicName.KNAPSACK,
)


def get_heuristic(name: HeuristicName | str) -> GroupingHeuristic:
    """Resolve a heuristic by enum value or string name."""
    try:
        key = HeuristicName(name)
    except ValueError:
        valid = sorted(h.value for h in HeuristicName)
        raise ConfigurationError(
            f"unknown heuristic {name!r}; valid names: {valid}"
        ) from None
    return HEURISTICS[key]


_log = obs.get_logger(__name__)


def plan_grouping(
    cluster: ClusterSpec,
    spec: EnsembleSpec,
    heuristic: HeuristicName | str = HeuristicName.BASIC,
) -> Grouping:
    """Plan a processor partition with the named heuristic."""
    fn = get_heuristic(heuristic)
    if not obs.enabled():
        return fn(cluster, spec)
    name = HeuristicName(heuristic).value
    with obs.span("plan_grouping", heuristic=name, cluster=cluster.name):
        started = time.perf_counter()
        grouping = fn(cluster, spec)
        elapsed = time.perf_counter() - started
    obs.inc("heuristic.plans", heuristic=name, cluster=cluster.name)
    obs.observe(
        "heuristic.plan_seconds", elapsed, heuristic=name, cluster=cluster.name
    )
    obs.log_event(
        _log, "heuristic.grouping_planned",
        heuristic=name, cluster=cluster.name,
        grouping=grouping.describe(), n_groups=grouping.n_groups,
        plan_seconds=elapsed,
    )
    return grouping
