"""SeD — the per-cluster server daemon (steps 2 and 6 of the protocol).

In DIET terminology a SeD ("Server Daemon") fronts a computational
resource.  Ours wraps a :class:`~repro.platform.cluster.ClusterSpec` and
provides the two services of Figure 9: computing the cluster's
performance vector with the knapsack modeling (step 2) and executing an
assigned subset of scenarios (step 6, by planning a grouping and reading
its makespan from the memoized simulator).  Both steps read the kernel
caches: a repeated request reads its whole vector from one ``vector``
entry, a first one's batch planner builds the cluster's knapsack DP
stack, and the execution's knapsack plan is one ``plan`` entry, traced
back from that stack on its first request.
"""

from __future__ import annotations

from repro import obs
from repro.core.grouping import Grouping
from repro.core.heuristics import plan_grouping
from repro.core.makespan import cached_simulated_makespan
from repro.core.performance_vector import performance_vector
from repro.exceptions import MiddlewareError
from repro.middleware.messages import (
    ExecutionOrder,
    ExecutionReport,
    PerformanceReply,
    ServiceRequest,
)
from repro.platform.cluster import ClusterSpec
from repro.simulation.engine import simulate
from repro.simulation.events import SimulationResult
from repro.workflow.ocean_atmosphere import EnsembleSpec

__all__ = ["SeD"]

_log = obs.get_logger(__name__)


class SeD:
    """One cluster's server daemon."""

    def __init__(self, cluster: ClusterSpec) -> None:
        if not cluster.can_run_main():
            raise MiddlewareError(
                f"cluster {cluster.name!r} ({cluster.resources} processors) "
                f"cannot host a single main-task group; refusing to register "
                f"a SeD that could never serve a request"
            )
        self.cluster = cluster
        self._last_run: tuple[Grouping, EnsembleSpec] | None = None

    @property
    def name(self) -> str:
        """The SeD answers under its cluster's name."""
        return self.cluster.name

    def handle_request(self, request: ServiceRequest) -> PerformanceReply:
        """Step 2: compute this cluster's performance vector."""
        obs.inc("middleware.requests", cluster=self.name)
        with obs.span("sed.handle_request", cluster=self.name):
            spec = EnsembleSpec(request.scenarios, request.months)
            vector = performance_vector(self.cluster, spec, request.heuristic)
        return PerformanceReply(self.name, tuple(vector))

    def execute(self, order: ExecutionOrder) -> ExecutionReport:
        """Step 6: run the assigned scenarios, report the makespan.

        The SeD plans its share with
        :func:`~repro.core.heuristics.plan_grouping`.  For the knapsack
        heuristic that plan is memoized on the cluster's timing table,
        ``R`` and the share (a ``plan`` entry); a first plan is one
        traceback of the memoized DP stack its vector built (a ``dp``
        hit), and a repeated one is a ``plan`` hit.  The makespan is the
        vector's memoized entry (a ``simulated`` hit).  The independent
        check of the execution is the tier-1 campaign differential
        (``tests/middleware/test_campaign_oracle.py``), which re-plans
        every execution with the scalar DP oracle and compares every
        memo-served plan with an uncached one.
        """
        if order.cluster_name != self.name:
            raise MiddlewareError(
                f"order addressed to {order.cluster_name!r} delivered to "
                f"SeD {self.name!r}"
            )
        obs.inc("middleware.submissions", cluster=self.name)
        with obs.span(
            "sed.execute",
            cluster=self.name,
            scenarios=len(order.scenario_ids),
        ):
            spec = EnsembleSpec(len(order.scenario_ids), order.months)
            grouping = plan_grouping(self.cluster, spec, order.heuristic)
            makespan = cached_simulated_makespan(
                grouping, spec, self.cluster.timing
            )
        obs.set_gauge(
            "middleware.execution_makespan_seconds",
            makespan,
            cluster=self.name,
        )
        obs.log_event(
            _log, "sed.executed",
            cluster=self.name,
            scenarios=list(order.scenario_ids),
            months=order.months,
            heuristic=order.heuristic.value,
            makespan_s=makespan,
        )
        self._last_run = (grouping, spec)
        return ExecutionReport(self.name, order.scenario_ids, makespan, grouping)

    @property
    def last_result(self) -> SimulationResult | None:
        """The most recent execution's full result, simulated on access."""
        if self._last_run is None:
            return None
        grouping, spec = self._last_run
        return simulate(grouping, spec, self.cluster.timing, cluster_name=self.name)
