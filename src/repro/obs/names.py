"""The declared metric and span name registry.

Every literal name passed to :func:`repro.obs.inc`,
:func:`repro.obs.observe`, :func:`repro.obs.set_gauge`,
:func:`repro.obs.span`, and :func:`repro.obs.add_span` must appear
here.  The registry is the contract between the instrumentation sites
and everything downstream of a ``--metrics-out`` dump — summaries,
dashboards, the throughput benchmarks: a typo'd name at a call site
would otherwise fork a new series that nothing reads and no test
notices.  ``reprolint`` rule M001 checks call sites against this
module statically, so the registry *is* enforced, not advisory.

Adding an instrument is a two-line change: the call site and the
declaration here.  Dynamic names (f-strings) are checked by their
literal prefix — ``obs.span(f"figure.{name}")`` passes because
``figure.``-prefixed spans are declared below.

Grouped by subsystem; keep each group sorted.
"""

from __future__ import annotations

__all__ = ["ALL_NAMES", "METRIC_NAMES", "SPAN_NAMES"]

#: Counter / gauge / histogram series names (``obs.inc`` /
#: ``obs.set_gauge`` / ``obs.observe`` first arguments).
METRIC_NAMES: frozenset[str] = frozenset(
    {
        # middleware campaign
        "campaign.makespan_seconds",
        "campaign.predicted_makespan_seconds",
        "campaign.runs",
        "middleware.deployments",
        "middleware.execution_makespan_seconds",
        "middleware.requests",
        "middleware.submissions",
        # fault injection & chaos
        "chaos.injected",
        "faults.engine_injections",
        "faults.events_generated",
        "faults.months_lost",
        "faults.replans",
        # simulation engines
        "engine.events_dispatched",
        "engine.idle_seconds",
        "engine.waves",
        "simulation.main_makespan_seconds",
        "simulation.makespan_seconds",
        "simulation.runs",
        "simulation.tasks",
        # scheduling heuristics & memoized/batched kernels
        "batch.plans",
        "heuristic.candidate_evaluations",
        "heuristic.chosen_group",
        "heuristic.plan_seconds",
        "heuristic.plans",
        "heuristic.rejections",
        "makespan.cache",
        "makespan.cache_size",
        # scheduler arena
        "arena.chunks",
        "arena.points",
        "arena.races",
        "arena.resumed_points",
        "arena.seconds",
        "scheduler.decide_seconds",
        "scheduler.decisions",
        # experiment drivers
        "experiment.simulations",
        "figure.seconds",
        "runner.item_seconds",
        "runner.items",
        "runner.utilization",
        "runner.workers",
        "sweep.chunks",
        "sweep.points",
        "sweep.resumed_points",
        "sweep.runs",
        "sweep.seconds",
        # failure recovery
        "recovery.delay_seconds",
        "recovery.failures_detected",
        "recovery.makespan_seconds",
        "recovery.resubmission_latency_seconds",
        "recovery.resubmissions",
        # campaign service
        "service.active_jobs",
        "service.cancellations",
        "service.connections",
        "service.job_seconds",
        "service.jobs",
        "service.jobs_done",
        "service.jobs_failed",
        "service.jobs_retried",
        "service.queue_depth",
        "service.queue_wait_seconds",
        "service.requests",
        "service.submissions",
        "service.worker_spans",
        # worker fleet & leases
        "service.fleet_claims",
        "service.fleet_heartbeats",
        "service.lease_age_seconds",
        "service.lease_expired",
        "service.lease_lost",
        "service.lease_reassignments",
        "service.leases_live",
    }
)

#: Wall-clock span names (``obs.span`` / ``obs.add_span`` first
#: arguments).  ``figure.<command>`` spans cover the dynamic
#: ``f"figure.{name}"`` site in the CLI.
SPAN_NAMES: frozenset[str] = frozenset(
    {
        "arena.cli",
        "arena.race",
        "campaign",
        "faults",
        "faults.replan_loop",
        "figure.ablations",
        "figure.fig1",
        "figure.fig10",
        "figure.fig3to6",
        "figure.fig7",
        "figure.fig8",
        "figure.fig9",
        "plan_grouping",
        "recover",
        "resilience.run",
        "runner.simulate",
        "scheduler.decide",
        "sed.execute",
        "sed.handle_request",
        "service.client.submit",
        "service.job",
        "service.lease",
        "service.worker",
        "simulate",
        "sweep.cli",
        "sweep.run",
    }
)

#: Every declared name, metric and span alike.
ALL_NAMES: frozenset[str] = METRIC_NAMES | SPAN_NAMES
