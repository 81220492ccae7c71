"""Cluster-failure recovery — an extension beyond the paper.

The paper schedules a multi-week campaign across grid sites and notes
that real deployment (DIET on Grid'5000) was ongoing work; any real
deployment immediately faces site failures.  This module models the
natural recovery strategy on top of the paper's machinery:

1. a cluster fails at time ``T_f`` mid-campaign;
2. months whose coupled run finished before ``T_f`` are safe (their
   restart files reached shared storage); the month in flight is lost,
   and so are the archive (post) tasks still pending — those are
   re-executed on survivors;
3. each interrupted scenario must finish its *remaining* months on a
   surviving cluster, after that cluster completes its own share
   (scenarios never time-share a cluster's groups with the original
   load — the original schedule is already makespan-optimal for it);
4. scenarios are reassigned greedily, longest-remaining-first, each to
   the cluster minimizing the resulting finish time — Algorithm 1's
   rule generalized to unequal chain lengths, with each candidate
   evaluated *exactly* by the memoized engine that evaluates every
   schedule (:func:`~repro.core.makespan.cached_simulated_makespan`),
   given each remaining chain's month count;
5. moving a scenario pays the restart-archive migration penalty of
   :class:`~repro.workflow.data.DataTransferModel`.

What had finished on the failed cluster at ``T_f`` is one schedule cut
(:meth:`~repro.core.makespan.ScheduleLog.cut`) of the memoized
fault-free schedule log, shifted to the time its schedule started —
the same logs a fault replay (:meth:`~repro.faults.hooks.FaultHook.replay`)
reads, so this module runs no engine of its own.

The result quantifies the failure's cost: new global makespan, months of
computation lost, and where every interrupted scenario restarted.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro import obs
from repro.core.grouping import Grouping
from repro.core.heuristics import HeuristicName, plan_grouping
from repro.core.knapsack_grouping import knapsack_grouping
from repro.core.makespan import cached_schedule_log, cached_simulated_makespan
from repro.core.performance_vector import performance_vector
from repro.core.repartition import Repartition, repartition_dags
from repro.exceptions import MiddlewareError
from repro.faults.trace import FaultEvent, FaultKind, FaultTrace
from repro.platform.cluster import ClusterSpec
from repro.platform.grid import GridSpec
from repro.workflow.data import DataTransferModel
from repro.workflow.ocean_atmosphere import EnsembleSpec

__all__ = [
    "ClusterFailure",
    "RecoveryPlan",
    "run_campaign_with_failure",
    "FaultEventOutcome",
    "CampaignFaultReport",
    "run_campaign_with_faults",
]

_log = obs.get_logger(__name__)

# Unused: the layer tracer in perfbench/layers.py rebinds these names here.
simulate = simulate_dag = fused_scenario_dag = None


@dataclass(frozen=True)
class ClusterFailure:
    """A permanent cluster failure at a wall-clock instant."""

    cluster_name: str
    at_time: float

    def __post_init__(self) -> None:
        if self.at_time < 0:
            raise MiddlewareError(
                f"failure time must be >= 0, got {self.at_time!r}"
            )


@dataclass(frozen=True)
class RecoveryPlan:
    """Outcome of a campaign interrupted by one cluster failure."""

    failure: ClusterFailure
    original_repartition: Repartition
    original_makespan: float
    #: months each interrupted scenario completed before the failure.
    completed_months: dict[int, int] = field(repr=False)
    #: post tasks of completed months lost in flight, per scenario.
    pending_posts: dict[int, int] = field(repr=False)
    #: scenario -> surviving cluster it restarted on.
    reassignment: dict[int, str]
    #: finish time of every surviving cluster after recovery work.
    cluster_finish: dict[str, float] = field(repr=False)
    #: global makespan including recovery.
    makespan: float
    #: processor-seconds of coupled-run work destroyed by the failure.
    lost_work_seconds: float

    @property
    def delay(self) -> float:
        """Extra campaign time caused by the failure."""
        return self.makespan - self.original_makespan

    def describe(self) -> str:
        """Human-readable recovery summary."""
        lines = [
            f"failure: {self.failure.cluster_name} at "
            f"{self.failure.at_time / 3600:.2f} h",
            f"interrupted scenarios: {sorted(self.reassignment)}",
            f"lost work: {self.lost_work_seconds / 3600:.2f} processor-hours",
            f"makespan: {self.original_makespan / 3600:.2f} h -> "
            f"{self.makespan / 3600:.2f} h (+{self.delay / 3600:.2f} h)",
        ]
        for scenario, target in sorted(self.reassignment.items()):
            done = self.completed_months[scenario]
            posts = self.pending_posts.get(scenario, 0)
            extra = f" (+{posts} lost archive task(s))" if posts else ""
            lines.append(
                f"  scenario {scenario}: {done} months safe{extra}, "
                f"restarted on {target}"
            )
        return "\n".join(lines)


def _chain_plan(
    cluster: ClusterSpec, chains: dict[int, int]
) -> tuple[EnsembleSpec, Grouping, tuple[int, ...]]:
    """How ``cluster`` runs some remaining chains: spec, grouping, counts.

    ``chains[scenario] = remaining`` months; the counts follow sorted
    scenario ids, and the knapsack grouping is planned for the chain
    count and the longest chain.
    """
    counts = tuple(chains[s] for s in sorted(chains))
    spec = EnsembleSpec(len(counts), max(counts))
    return spec, knapsack_grouping(cluster, spec), counts


def _progress_at(
    cluster: ClusterSpec,
    grouping: Grouping,
    spec: EnsembleSpec,
    chains: tuple[int, ...] | None,
    offset: float,
    at_time: float,
) -> tuple[tuple[int, ...], tuple[int, ...], float, int]:
    """Cut a schedule started at ``offset``; count what ``at_time`` saw.

    Task outputs ship to shared storage on completion (§4.1's data
    model), so a month is *resumable* once its coupled run finished: the
    restart files exist off the dying node.  Post-processing tasks that
    had not finished are lost and must be re-executed on a survivor —
    their inputs (the completed mains' diagnostics) are on shared
    storage too.  Returns ``(months done, posts done, lost in-flight
    work seconds, in-flight months destroyed)``, the counts indexed by
    the schedule's scenarios; the lost term counts interrupted mains and
    posts alike.  A month's post ends after its main, so ``months done
    - posts done`` archive tasks are pending.  The answer is one
    :meth:`~repro.core.makespan.ScheduleLog.cut` of the memoized log
    under the shift ``t -> offset + t``.
    """
    log = cached_schedule_log(grouping, spec, cluster.timing, chains)
    return log.cut(at_time, lambda t: offset + t)[:4]


def _appended_finish(
    cluster: ClusterSpec,
    base_finish: float,
    chains: dict[int, int],
    pending_posts: int,
    migration_seconds: float,
) -> float:
    """Finish time if ``cluster`` runs the given remaining work.

    Chains (remaining months) start once the cluster's own share is done
    and the restart data has arrived; their makespan is simulated
    exactly under a knapsack grouping for the chain count.  Lost archive
    (post) tasks of already-completed months then fill the whole cluster
    in ``⌈n/R⌉`` slices of ``TP``.
    """
    if not chains and pending_posts == 0:
        return base_finish
    finish = base_finish + migration_seconds
    if chains:
        spec, grouping, counts = _chain_plan(cluster, chains)
        finish += cached_simulated_makespan(grouping, spec, cluster.timing, counts)
    if pending_posts:
        finish += (
            math.ceil(pending_posts / cluster.resources) * cluster.post_time()
        )
    return finish


def run_campaign_with_failure(
    grid: GridSpec,
    scenarios: int,
    months: int,
    failure: ClusterFailure,
    *,
    heuristic: HeuristicName | str = HeuristicName.KNAPSACK,
    link: DataTransferModel | None = None,
) -> RecoveryPlan:
    """Run a campaign, fail one cluster mid-flight, and recover.

    The one-crash case of :func:`run_campaign_with_faults`, reported as
    a :class:`RecoveryPlan`.  Raises :class:`MiddlewareError` when the
    named cluster is not in the grid, is the only cluster, or fails
    after its work already finished (nothing to recover — the caller
    should handle that case directly).
    """
    names = list(grid.names)
    name = failure.cluster_name
    if name not in names:
        raise MiddlewareError(
            f"cannot fail unknown cluster {name!r}; grid has {names}"
        )
    if len(grid) < 2:
        raise MiddlewareError(
            "recovery needs at least one surviving cluster"
        )
    crash = FaultEvent(FaultKind.CRASH, name, failure.at_time)
    report = run_campaign_with_faults(
        grid, scenarios, months, FaultTrace.of([crash]),
        heuristic=heuristic, link=link,
    )
    local = report.original_repartition.scenarios_on(names.index(name))
    if not local:
        raise MiddlewareError(
            f"cluster {name!r} was assigned no scenarios; its failure is free"
        )
    outcome = report.events[0]
    if not outcome.applied:
        raise MiddlewareError(
            f"cluster {name!r} finished at "
            f"{report.cluster_finish[name]:.0f}s, before the failure at "
            f"{failure.at_time:.0f}s — nothing to recover"
        )
    # Scenarios the crash did not interrupt had finished every month.
    return RecoveryPlan(
        failure=failure,
        original_repartition=report.original_repartition,
        original_makespan=report.original_makespan,
        completed_months={
            s: outcome.completed_months.get(s, months) for s in local
        },
        pending_posts={s: outcome.pending_posts.get(s, 0) for s in local},
        reassignment=outcome.reassignment,
        cluster_finish={
            n: finish for n, finish in report.cluster_finish.items() if n != name
        },
        makespan=report.makespan,
        lost_work_seconds=outcome.lost_work_seconds,
    )


# ---------------------------------------------------------------------------
# Multi-failure replanning: an arbitrary trace of sequential events.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultEventOutcome:
    """What the replanner did about one trace event."""

    event: FaultEvent
    #: whether the event changed the campaign (``False`` for no-ops:
    #: slowdowns, idle/finished clusters, redundant crashes/rejoins).
    applied: bool
    #: one-line explanation of the decision.
    reason: str
    #: scenarios interrupted by this event, sorted.
    interrupted: tuple[int, ...] = ()
    #: interrupted scenario -> cluster it restarted on.
    reassignment: dict[int, str] = field(default_factory=dict, repr=False)
    #: months each interrupted scenario had safely completed.
    completed_months: dict[int, int] = field(default_factory=dict, repr=False)
    #: archive (post) tasks needing re-execution, per interrupted scenario.
    pending_posts: dict[int, int] = field(default_factory=dict, repr=False)
    #: coupled-run months that were in flight and destroyed.
    months_lost: int = 0
    #: processor-seconds of in-flight work destroyed.
    lost_work_seconds: float = 0.0
    #: projected campaign makespan after handling this event.
    makespan_after: float = 0.0


@dataclass(frozen=True)
class CampaignFaultReport:
    """Outcome of a campaign replanned through a whole fault trace."""

    trace: FaultTrace
    original_repartition: Repartition
    original_makespan: float
    #: per-event decisions, in trace order.
    events: tuple[FaultEventOutcome, ...]
    #: final home of every scenario that ever moved.
    reassignment: dict[int, str]
    #: projected finish of the work each cluster ends up holding
    #: (0 for clusters whose workload was wiped or that never had any).
    cluster_finish: dict[str, float] = field(repr=False)
    #: campaign makespan after every event.
    makespan: float
    #: total in-flight coupled-run months destroyed across events.
    months_lost: int
    #: total processor-seconds of in-flight work destroyed.
    lost_work_seconds: float
    #: how many events actually triggered a replanning pass.
    replans: int

    @property
    def delay(self) -> float:
        """Extra campaign time caused by the whole trace."""
        return self.makespan - self.original_makespan

    def describe(self) -> str:
        """Human-readable replanning log."""
        lines = [
            f"fault trace: {len(self.trace)} event(s), "
            f"{self.replans} replan(s)",
            f"makespan: {self.original_makespan / 3600:.2f} h -> "
            f"{self.makespan / 3600:.2f} h (+{self.delay / 3600:.2f} h)",
            f"lost: {self.months_lost} in-flight month(s), "
            f"{self.lost_work_seconds / 3600:.2f} processor-hours",
        ]
        for outcome in self.events:
            event = outcome.event
            mark = "*" if outcome.applied else "-"
            lines.append(
                f"  {mark} {event.at_time / 3600:7.2f} h  "
                f"{event.kind.value:8s} {event.cluster}: {outcome.reason}"
            )
            for scenario, target in sorted(outcome.reassignment.items()):
                lines.append(
                    f"      scenario {scenario}: "
                    f"{outcome.completed_months[scenario]} months safe, "
                    f"restarted on {target}"
                )
        return "\n".join(lines)


@dataclass
class _Segment:
    """One batch of recovery work appended to a cluster's schedule."""

    start: float
    migration: float
    #: global scenario id -> remaining months assigned here.
    chains: dict[int, int]
    #: global scenario id -> absolute months done before this segment.
    completed_before: dict[int, int]
    #: global scenario id -> archive tasks re-executed at the tail.
    carried_posts: dict[int, int]
    finish: float


@dataclass
class _ClusterState:
    """A cluster's evolving workload through the event loop."""

    name: str
    cluster: ClusterSpec
    original_locals: tuple[int, ...]
    months: int
    alive: bool = True
    #: whether the original rectangular assignment is still attached.
    original_active: bool = True
    segments: list[_Segment] = field(default_factory=list)
    #: availability base for *new* work (projected finish, or rejoin time).
    finish: float = 0.0
    #: finish of the work this cluster holds — feeds the makespan.
    work_finish: float = 0.0

    def homed_scenarios(self) -> set[int]:
        """Every scenario whose unfinished state lives here."""
        homed: set[int] = set()
        if self.original_active:
            homed.update(self.original_locals)
        for seg in self.segments:
            homed.update(seg.chains)
            homed.update(seg.carried_posts)
        return homed


def run_campaign_with_faults(
    grid: GridSpec,
    scenarios: int,
    months: int,
    trace: FaultTrace,
    *,
    heuristic: HeuristicName | str = HeuristicName.KNAPSACK,
    link: DataTransferModel | None = None,
) -> CampaignFaultReport:
    """Run a campaign and replan through an arbitrary fault trace.

    Generalizes :func:`run_campaign_with_failure` from one permanent
    failure to a whole :class:`~repro.faults.trace.FaultTrace`, replayed
    in time order with the same greedy longest-remaining-first
    reassignment at every event:

    * ``crash`` — the cluster's unfinished work moves to the remaining
      candidates; the cluster stays out until an explicit ``rejoin``;
    * ``outage`` — same interruption, but the cluster itself rejoins,
      empty, at ``at_time + duration`` and competes (with that
      availability) for its own former work;
    * ``rejoin`` — a crashed cluster returns, empty, and becomes a
      candidate for *future* events (no proactive rebalancing);
    * ``slowdown`` — engine-level only (see
      :class:`~repro.faults.hooks.FaultHook`); the replanner records it
      as a no-op.

    Unlike the single-failure API — which raises on a failure that has
    nothing to recover — events hitting an idle, finished, or already
    -down cluster are recorded as no-ops: a trace generator cannot know
    the schedule.  An empty trace returns the unperturbed plan;
    :func:`run_campaign_with_failure` is the one-crash case.

    Raises :class:`MiddlewareError` for an event naming a cluster not
    in the grid, or when a failure leaves no candidate cluster at all.
    """
    heuristic = HeuristicName(heuristic)
    link = link if link is not None else DataTransferModel()
    names = list(grid.names)
    for event in trace:
        if event.cluster not in names:
            raise MiddlewareError(
                f"fault trace names unknown cluster {event.cluster!r}; "
                f"grid has {names}"
            )

    # Original campaign (Section 5) — identical to the single-failure path.
    spec = EnsembleSpec(scenarios, months)
    vectors = [performance_vector(c, spec, heuristic) for c in grid]
    repartition = repartition_dags(vectors, scenarios)
    finish = {
        name: (vectors[i][repartition.counts[i] - 1] if repartition.counts[i] else 0.0)
        for i, name in enumerate(names)
    }
    original_makespan = repartition.makespan

    states: dict[str, _ClusterState] = {}
    for i, name in enumerate(names):
        locals_ = tuple(repartition.scenarios_on(i))
        states[name] = _ClusterState(
            name=name,
            cluster=grid[i],
            original_locals=locals_,
            months=months,
            original_active=bool(locals_),
            finish=finish[name],
            work_finish=finish[name],
        )

    progress: dict[int, int] = {s: 0 for s in range(scenarios)}
    final_home: dict[int, str] = {}
    outcomes: list[FaultEventOutcome] = []
    total_lost_months = 0
    total_lost_work = 0.0
    replans = 0

    def current_makespan() -> float:
        return max(st.work_finish for st in states.values())

    def no_op(event: FaultEvent, reason: str) -> None:
        outcomes.append(
            FaultEventOutcome(
                event=event,
                applied=False,
                reason=reason,
                makespan_after=current_makespan(),
            )
        )

    with obs.span("faults.replan_loop", events=len(trace)):
        for event in trace:
            state = states[event.cluster]
            if event.kind is FaultKind.SLOWDOWN:
                no_op(event, "slowdown is engine-level; replanner ignores it")
                continue
            if event.kind is FaultKind.REJOIN:
                if state.alive:
                    no_op(event, "cluster already up")
                    continue
                state.alive = True
                state.original_active = False
                state.segments = []
                state.finish = event.at_time
                outcomes.append(
                    FaultEventOutcome(
                        event=event,
                        applied=True,
                        reason="rejoined empty; candidate for future events",
                        makespan_after=current_makespan(),
                    )
                )
                continue
            # CRASH or OUTAGE.
            if not state.alive:
                no_op(event, "cluster already down")
                continue
            t = event.at_time
            homed = state.homed_scenarios()
            if not homed:
                if event.kind is FaultKind.OUTAGE:
                    state.finish = max(state.finish, t + event.duration)
                    no_op(event, "cluster idle; back at outage end")
                else:
                    state.alive = False
                    no_op(event, "cluster idle; nothing to recover")
                continue

            # -- what survived on the failed cluster? -----------------------
            replay_started = time.perf_counter()
            completed_ev: dict[int, int] = {g: progress[g] for g in homed}
            pending_ev: dict[int, int] = {g: 0 for g in homed}
            lost_ev = 0.0
            in_flight_ev = 0
            if state.original_active and state.original_locals:
                local_spec = EnsembleSpec(len(state.original_locals), months)
                done, posts, lost, in_flight = _progress_at(
                    state.cluster,
                    plan_grouping(state.cluster, local_spec, heuristic),
                    local_spec, None, 0.0, t,
                )
                lost_ev += lost
                in_flight_ev += in_flight
                for i, g in enumerate(state.original_locals):
                    completed_ev[g] = done[i]
                    pending_ev[g] = done[i] - posts[i]
            for seg in state.segments:
                if t >= seg.finish:
                    for g, chain in seg.chains.items():
                        completed_ev[g] = seg.completed_before[g] + chain
                    continue
                if seg.chains:
                    chain_spec, grouping, counts = _chain_plan(
                        state.cluster, seg.chains
                    )
                    done, posts, lost, in_flight = _progress_at(
                        state.cluster, grouping, chain_spec, counts,
                        seg.start + seg.migration, t,
                    )
                    lost_ev += lost
                    in_flight_ev += in_flight
                    for i, g in enumerate(sorted(seg.chains)):
                        completed_ev[g] = seg.completed_before[g] + done[i]
                        pending_ev[g] += done[i] - posts[i]
                for g, n in seg.carried_posts.items():
                    pending_ev[g] += n

            remaining = {
                g: months - completed_ev[g]
                for g in homed
                if months - completed_ev[g] > 0
            }
            interrupted = sorted(
                g for g in homed
                if remaining.get(g, 0) > 0 or pending_ev[g] > 0
            )
            for g in homed:
                progress[g] = completed_ev[g]
            obs.inc("recovery.failures_detected", cluster=event.cluster)
            obs.log_event(
                _log, "faults.event_detected",
                kind=event.kind.value,
                cluster=event.cluster,
                at_time_s=t,
                interrupted_scenarios=interrupted,
                lost_work_processor_seconds=lost_ev,
                detection_seconds=time.perf_counter() - replay_started,
            )

            # -- take the cluster down (and, for outages, requeue it) -------
            state.original_active = False
            state.segments = []
            if interrupted:
                state.work_finish = 0.0
            if event.kind is FaultKind.OUTAGE:
                state.finish = t + event.duration
            else:
                state.alive = False

            if not interrupted:
                no_op(event, "all assigned work already finished")
                continue

            candidates = [st for st in states.values() if st.alive]
            if not candidates:
                raise MiddlewareError(
                    f"no candidate cluster remains after {event.kind.value} "
                    f"of {event.cluster!r} at {t:.0f}s"
                )

            # -- greedy reassignment, longest-remaining first ---------------
            assigned: dict[str, dict[int, int]] = {
                st.name: {} for st in candidates
            }
            assigned_posts: dict[str, int] = {st.name: 0 for st in candidates}
            reassignment: dict[int, str] = {}
            for scenario in sorted(
                interrupted, key=lambda s: (-remaining.get(s, 0), s)
            ):
                decision_started = time.perf_counter()
                migration = link.migration_penalty(completed_ev[scenario])
                best_name = None
                best_finish = float("inf")
                for st in candidates:
                    trial = dict(assigned[st.name])
                    if remaining.get(scenario, 0) > 0:
                        trial[scenario] = remaining[scenario]
                    candidate = _appended_finish(
                        st.cluster,
                        max(st.finish, t),
                        trial,
                        assigned_posts[st.name] + pending_ev[scenario],
                        migration,
                    )
                    if candidate < best_finish:
                        best_finish = candidate
                        best_name = st.name
                assert best_name is not None
                if remaining.get(scenario, 0) > 0:
                    assigned[best_name][scenario] = remaining[scenario]
                assigned_posts[best_name] += pending_ev[scenario]
                reassignment[scenario] = best_name
                final_home[scenario] = best_name
                recovery_latency = best_finish - t
                obs.inc(
                    "recovery.resubmissions",
                    source=event.cluster,
                    target=best_name,
                )
                obs.observe(
                    "recovery.resubmission_latency_seconds",
                    recovery_latency,
                    target=best_name,
                )
                obs.log_event(
                    _log, "recovery.resubmission",
                    scenario=scenario,
                    source=event.cluster,
                    target=best_name,
                    remaining_months=remaining.get(scenario, 0),
                    pending_posts=pending_ev[scenario],
                    migration_penalty_s=migration,
                    projected_finish_s=best_finish,
                    recovery_latency_s=recovery_latency,
                    decision_seconds=time.perf_counter() - decision_started,
                )

            # -- commit one recovery segment per loaded candidate -----------
            for st in candidates:
                chains = assigned[st.name]
                posts_total = assigned_posts[st.name]
                if not chains and posts_total == 0:
                    continue
                migration = max(
                    (
                        link.migration_penalty(completed_ev[s])
                        for s, target in reassignment.items()
                        if target == st.name
                    ),
                    default=0.0,
                )
                start = max(st.finish, t)
                seg_finish = _appended_finish(
                    st.cluster, start, chains, posts_total, migration
                )
                st.segments.append(
                    _Segment(
                        start=start,
                        migration=migration,
                        chains=dict(chains),
                        completed_before={
                            s: completed_ev[s] for s in chains
                        },
                        carried_posts={
                            s: pending_ev[s]
                            for s, target in reassignment.items()
                            if target == st.name and pending_ev[s] > 0
                        },
                        finish=seg_finish,
                    )
                )
                st.finish = seg_finish
                st.work_finish = seg_finish

            replans += 1
            total_lost_months += in_flight_ev
            total_lost_work += lost_ev
            makespan_after = current_makespan()
            obs.inc("faults.replans", cluster=event.cluster)
            if in_flight_ev:
                obs.inc(
                    "faults.months_lost", in_flight_ev, cluster=event.cluster
                )
            outcomes.append(
                FaultEventOutcome(
                    event=event,
                    applied=True,
                    reason=(
                        f"replanned {len(interrupted)} scenario(s) onto "
                        f"{len({reassignment[s] for s in interrupted})} "
                        f"cluster(s)"
                    ),
                    interrupted=tuple(interrupted),
                    reassignment=reassignment,
                    completed_months={
                        s: completed_ev[s] for s in interrupted
                    },
                    pending_posts={s: pending_ev[s] for s in interrupted},
                    months_lost=in_flight_ev,
                    lost_work_seconds=lost_ev,
                    makespan_after=makespan_after,
                )
            )

    makespan = current_makespan()
    obs.set_gauge("recovery.makespan_seconds", makespan)
    obs.set_gauge("recovery.delay_seconds", makespan - original_makespan)
    obs.log_event(
        _log, "faults.replan_completed",
        events=len(trace),
        replans=replans,
        makespan_s=makespan,
        original_makespan_s=original_makespan,
        delay_s=makespan - original_makespan,
        months_lost=total_lost_months,
        lost_work_processor_seconds=total_lost_work,
    )
    return CampaignFaultReport(
        trace=trace,
        original_repartition=repartition,
        original_makespan=original_makespan,
        events=tuple(outcomes),
        reassignment=dict(final_home),
        cluster_finish={
            name: st.work_finish for name, st in states.items()
        },
        makespan=makespan,
        months_lost=total_lost_months,
        lost_work_seconds=total_lost_work,
        replans=replans,
    )
