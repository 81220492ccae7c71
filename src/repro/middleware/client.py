"""Client — the orchestrating endpoint of the protocol (steps 1, 4, 5).

The client owns the ensemble request, runs Algorithm 1 on the gathered
performance vectors, and dispatches execution orders.  Its
:class:`CampaignResult` aggregates everything an experimenter needs:
the repartition, per-cluster reports, the predicted and achieved global
makespans, and the (negligible) control-plane overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.heuristics import HeuristicName
from repro.core.repartition import Repartition, repartition_dags
from repro.exceptions import MiddlewareError
from repro.middleware.agent import Agent
from repro.middleware.messages import (
    ExecutionOrder,
    ExecutionReport,
    PerformanceReply,
    ServiceRequest,
)
from repro.middleware.network import MessageLogEntry

__all__ = ["Client", "CampaignResult"]


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of one full protocol run.

    ``messages`` is the deployment's message log as the campaign ends:
    this campaign's messages, after those of any earlier campaign run
    over the same deployment.
    """

    request: ServiceRequest
    replies: tuple[PerformanceReply, ...] = field(repr=False)
    repartition: Repartition
    reports: tuple[ExecutionReport, ...] = field(repr=False)
    messages: tuple[MessageLogEntry, ...] = field(repr=False)

    @property
    def control_plane_seconds(self) -> float:
        """Simulated time the messages spent in transit."""
        return sum(entry.transit_seconds for entry in self.messages)

    @property
    def makespan(self) -> float:
        """Achieved global makespan: the slowest cluster's report."""
        return max(report.makespan for report in self.reports)

    @property
    def predicted_makespan(self) -> float:
        """Algorithm 1's prediction from the performance vectors."""
        return self.repartition.makespan

    def report_for(self, cluster_name: str) -> ExecutionReport:
        """The execution report of one cluster; raises if it ran nothing."""
        for report in self.reports:
            if report.cluster_name == cluster_name:
                return report
        raise MiddlewareError(
            f"cluster {cluster_name!r} executed no scenarios in this campaign"
        )

    def describe(self) -> str:
        """Human-readable campaign summary."""
        lines = [
            f"campaign: {self.request.scenarios} scenarios x "
            f"{self.request.months} months, heuristic="
            f"{self.request.heuristic.value}",
            f"predicted makespan {self.predicted_makespan / 3600:.2f} h, "
            f"achieved {self.makespan / 3600:.2f} h, control plane "
            f"{self.control_plane_seconds:.3f} s",
        ]
        for report in self.reports:
            lines.append(
                f"  {report.cluster_name}: {len(report.scenario_ids)} "
                f"scenario(s) [{report.grouping.describe()}] -> "
                f"{report.makespan / 3600:.2f} h"
            )
        return "\n".join(lines)


class Client:
    """The experiment-submitting endpoint."""

    def __init__(self, agent: Agent, name: str = "client") -> None:
        self.agent = agent
        self.name = name

    def run_campaign(
        self,
        scenarios: int,
        months: int,
        heuristic: HeuristicName | str = HeuristicName.KNAPSACK,
    ) -> CampaignResult:
        """Execute the full 6-step protocol for one ensemble."""
        network = self.agent.network
        request = ServiceRequest(scenarios, months, HeuristicName(heuristic))

        # Step 1: client -> agent.
        network.send(self.name, self.agent.name, "ServiceRequest", request.wire_size())
        # Steps 1-3 (fan-out and gather) happen inside the agent.
        replies = self.agent.broadcast_request(request)
        # Step 3 tail: agent -> client with the gathered vectors.
        gathered_size = sum(reply.wire_size() for reply in replies)
        network.send(self.agent.name, self.name, "PerformanceReplies", gathered_size)

        # Step 4: Algorithm 1 on the client.
        performance = [reply.vector for reply in replies]
        repartition = repartition_dags(performance, scenarios)

        # Step 5-6: one order per non-idle cluster, in reply order.
        reports: list[ExecutionReport] = []
        for index, reply in enumerate(replies):
            assigned = tuple(repartition.scenarios_on(index))
            if not assigned:
                continue
            order = ExecutionOrder(
                reply.cluster_name, assigned, months, request.heuristic
            )
            network.send(self.name, self.agent.name, "ExecutionOrder", order.wire_size())
            reports.append(self.agent.dispatch_order(order))

        if not reports:
            raise MiddlewareError("repartition assigned no scenarios anywhere")
        return CampaignResult(
            request=request,
            replies=tuple(replies),
            repartition=repartition,
            reports=tuple(reports),
            messages=network.log,
        )
