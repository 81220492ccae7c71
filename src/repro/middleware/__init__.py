"""DIET-like grid middleware substrate.

Section 5 plans the deployment of Ocean-Atmosphere "in the DIET grid
middleware" and specifies the interaction as a 6-step protocol
(Figure 9):

1. the client sends a request (NS, NM) to the clusters;
2. each cluster computes its performance vector with the knapsack model;
3. the clusters return their vectors;
4. the client computes the repartition (Algorithm 1);
5. the client sends each cluster its execution order;
6. each cluster executes its assigned simulations.

The real DIET deployment was "ongoing work" in the paper; this package
substitutes an in-process message-passing implementation (see DESIGN.md
§2) that executes the same protocol over simulated network links:
a :class:`~repro.middleware.client.Client` talks through a
:class:`~repro.middleware.agent.Agent` to one
:class:`~repro.middleware.sed.SeD` (server daemon, DIET's terminology)
per cluster, and every message is timestamped by the
:class:`~repro.middleware.network.SimulatedNetwork`.
"""

from repro.middleware.messages import (
    ServiceRequest,
    PerformanceReply,
    ExecutionOrder,
    ExecutionReport,
)
from repro.middleware.network import SimulatedNetwork, MessageLogEntry
from repro.middleware.sed import SeD
from repro.middleware.agent import Agent
from repro.middleware.client import Client, CampaignResult
from repro.middleware.deployment import deploy, run_campaign
from repro.middleware.recovery import (
    ClusterFailure,
    RecoveryPlan,
    run_campaign_with_failure,
)

__all__ = [
    "ServiceRequest",
    "PerformanceReply",
    "ExecutionOrder",
    "ExecutionReport",
    "SimulatedNetwork",
    "MessageLogEntry",
    "SeD",
    "Agent",
    "Client",
    "CampaignResult",
    "deploy",
    "run_campaign",
    "ClusterFailure",
    "RecoveryPlan",
    "run_campaign_with_failure",
]
