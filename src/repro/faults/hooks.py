"""Cluster-level fault injection — a time warp over a simulated schedule.

A :class:`FaultHook` compiles one cluster's sub-trace into two things:

* a **time warp** — a piecewise-linear monotone map between *fault-free
  simulation time* and *wall-clock time*.  Outages contribute flat
  segments (the whole cluster is stopped) and slowdowns stretched ones
  (every processor runs ``factor`` times slower).  Because cluster-level
  faults hit every processor identically, warping the fault-free
  schedule is *exact*: the engine's greedy decisions depend only on the
  order of completion events, and a monotone warp preserves that order;
* a **crash instant** — the wall-clock time after which nothing more
  runs.

Checkpoint semantics follow the paper's monthly restart files: a month
whose coupled run finished (warped end ≤ crash) wrote its restart data
to shared storage and is *safe*; the month in flight at the crash is
lost, as is every post task still pending.  :class:`FaultOutcome`
reports exactly that split, so the middleware replanner can resume each
scenario from its last completed month.

The engine knows nothing of faults.  :func:`simulate_with_faults`, the
one entry point, scores a faulted schedule with
:meth:`FaultHook.replay`: one schedule cut
(:meth:`~repro.core.makespan.ScheduleLog.cut`) of the memoized
fault-free schedule log, which the fast engine's logging loop builds,
under the hook's ``wallclock``.  The middleware replanner takes its
cuts from the same logs.  The record warp of a traced run
(``tests/simulation/fault_warp_oracle.py``) is the independent oracle
that ``tests/property/test_fault_replay.py`` and
``benchmarks/replay_differential.py`` compare ``replay`` against.  An
empty hook is free: :func:`simulate_with_faults` reads the memoized
fault-free makespans, so results are bit-for-bit those of the plain
engine.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro import obs
from repro.exceptions import SimulationError
from repro.faults.trace import FaultEvent, FaultKind, FaultTrace

__all__ = ["FaultHook", "FaultOutcome", "simulate_with_faults"]

_log = obs.get_logger(__name__)


@dataclass(frozen=True)
class _Window:
    """One wall-clock interval with a uniform compute rate.

    ``rate`` is progress per wall-clock second: ``0`` during an outage,
    ``1/factor`` during a slowdown.
    """

    start: float
    end: float
    rate: float


@dataclass(frozen=True)
class FaultOutcome:
    """What a fault trace did to one simulated schedule."""

    cluster_name: str
    #: wall-clock crash instant, or ``None`` when the schedule completed.
    crash_at: float | None
    #: months whose coupled run finished before the crash, per scenario.
    completed_months: dict[int, int]
    #: post tasks of completed months still pending at the crash.
    pending_posts: dict[int, int]
    #: coupled-run months destroyed (in flight or never started).
    months_lost: int
    #: processor-seconds of in-flight work destroyed (wall-clock).
    lost_work_seconds: float
    #: wall-clock makespan of the surviving schedule prefix.
    makespan: float

    @property
    def crashed(self) -> bool:
        """Whether the schedule was cut short."""
        return self.crash_at is not None


class FaultHook:
    """A compiled, single-cluster fault injector (see module docstring)."""

    def __init__(
        self,
        windows: tuple[_Window, ...] = (),
        crash_at: float | None = None,
    ) -> None:
        self.windows = windows
        self.crash_at = crash_at
        # Prefix sums: progress accumulated at each window start, and the
        # wall-clock position reached for each accumulated progress.
        self._wall_starts = [w.start for w in windows]
        self._progress_at_start: list[float] = []
        acc = 0.0
        prev_end = 0.0
        for w in windows:
            acc += w.start - prev_end  # rate-1 gap before the window
            self._progress_at_start.append(acc)
            acc += (w.end - w.start) * w.rate
            prev_end = w.end
        self._progress_after = acc
        self._last_end = prev_end

    # -- construction ------------------------------------------------------

    @classmethod
    def from_trace(cls, trace: FaultTrace, cluster: str) -> "FaultHook":
        """Compile one cluster's events into a hook.

        The first crash wins; outage/slowdown windows after it are
        unreachable and dropped.  Overlapping windows take the *slowest*
        rate on the overlap (a stopped cluster cannot be merely slow).
        """
        events = [e for e in trace if e.cluster == cluster]
        return cls.from_events(events, cluster=cluster)

    @classmethod
    def from_events(
        cls, events: list[FaultEvent], *, cluster: str | None = None
    ) -> "FaultHook":
        """Compile a list of events (all for one cluster) into a hook."""
        crash_at: float | None = None
        raw: list[tuple[float, float, float]] = []
        for event in sorted(events, key=FaultEvent.sort_key):
            if cluster is not None and event.cluster != cluster:
                raise SimulationError(
                    f"fault hook for {cluster!r} got an event for "
                    f"{event.cluster!r}"
                )
            if event.kind is FaultKind.CRASH:
                if crash_at is None or event.at_time < crash_at:
                    crash_at = event.at_time
            elif event.kind is FaultKind.OUTAGE:
                raw.append((event.at_time, event.end_time, 0.0))
            elif event.kind is FaultKind.SLOWDOWN:
                raw.append((event.at_time, event.end_time, 1.0 / event.factor))
            # REJOIN is a campaign-level concept: a single-cluster
            # schedule cannot absorb a revived cluster, so it is ignored.
        if crash_at is not None:
            raw = [
                (s, min(e, crash_at), r)
                for s, e, r in raw
                if s < crash_at
            ]
        return cls(_normalize(raw), crash_at)

    # -- the warp ----------------------------------------------------------

    @property
    def is_noop(self) -> bool:
        """Whether this hook changes nothing (empty sub-trace)."""
        return not self.windows and self.crash_at is None

    def wallclock(self, p: float) -> float:
        """Earliest wall-clock time at which fault-free progress ``p`` is reached."""
        if not self.windows or p <= self._progress_at_start[0]:
            return p
        i = bisect.bisect_right(self._progress_at_start, p) - 1
        w = self.windows[i]
        done_at_start = self._progress_at_start[i]
        in_window = (w.end - w.start) * w.rate
        if p <= done_at_start + in_window:
            if w.rate == 0.0:
                # Progress p is reached exactly at the window start (the
                # flat segment adds nothing) — p == done_at_start here.
                return w.start
            return w.start + (p - done_at_start) / w.rate
        # Past this window: the remainder accrues at rate 1 after it.
        return w.end + (p - done_at_start - in_window)

    def progress(self, t: float) -> float:
        """Fault-free progress accumulated by wall-clock time ``t``."""
        if not self.windows or t <= self.windows[0].start:
            return t
        i = bisect.bisect_right(self._wall_starts, t) - 1
        w = self.windows[i]
        done_at_start = self._progress_at_start[i]
        if t <= w.end:
            return done_at_start + (t - w.start) * w.rate
        return done_at_start + (w.end - w.start) * w.rate + (t - w.end)

    def crash_progress(self) -> float | None:
        """Fault-free time at which the crash lands (``None`` if no crash)."""
        if self.crash_at is None:
            return None
        return self.progress(self.crash_at)

    # -- application -------------------------------------------------------

    def replay(
        self, grouping, spec, timing, *, cluster_name: str = "cluster"
    ):
        """Apply this hook to the memoized fault-free schedule, without records.

        Returns ``(warped_result, outcome)``, field for field what the
        record warp of a traced run returns with ``keep_records=False``
        (``tests/simulation/fault_warp_oracle.py``).  A crash is one
        :meth:`~repro.core.makespan.ScheduleLog.cut` of the memoized log
        at ``crash_at`` under :meth:`wallclock`.  Without a crash every
        task survives, and the two cached makespans suffice.
        """
        from repro.core.makespan import (
            cached_schedule_log,
            cached_simulated_makespans,
        )
        from repro.simulation.events import SimulationResult

        wallclock, crash = self.wallclock, self.crash_at
        if crash is None:
            makespan, main_makespan = cached_simulated_makespans(
                grouping, spec, timing
            )
            makespan = wallclock(makespan)
            main_makespan = wallclock(main_makespan)
            completed = {s: spec.months for s in range(spec.scenarios)}
            pending_posts = {s: 0 for s in completed}
            months_lost = 0
            lost_work = 0.0
        else:
            log = cached_schedule_log(grouping, spec, timing)
            done, posts_done, lost_work, _, last = log.cut(crash, wallclock)
            completed = dict(enumerate(done))
            pending_posts = {
                s: n - min(posts_done[s], n) for s, n in completed.items()
            }
            months_lost = spec.scenarios * spec.months - sum(done)
            makespan = 0.0 if last is None else wallclock(last)
            main_last = max(
                (log.main_ends[s][n - 1] for s, n in completed.items() if n),
                default=None,
            )
            main_makespan = 0.0 if main_last is None else wallclock(main_last)
        warped = SimulationResult(
            makespan=makespan,
            main_makespan=main_makespan,
            grouping=grouping,
            spec=spec,
            cluster_name=cluster_name,
        )
        outcome = FaultOutcome(
            cluster_name=cluster_name,
            crash_at=crash,
            completed_months=completed,
            pending_posts=pending_posts,
            months_lost=months_lost,
            lost_work_seconds=lost_work,
            makespan=makespan,
        )
        _count_injection(cluster_name, months_lost)
        return warped, outcome


def _count_injection(cluster: str, months_lost: int) -> None:
    """Publish one live hook application (while collection is on)."""
    if obs.enabled():
        obs.inc("faults.engine_injections", cluster=cluster)
        if months_lost:
            obs.inc("faults.months_lost", months_lost, cluster=cluster)


def _normalize(raw: list[tuple[float, float, float]]) -> tuple[_Window, ...]:
    """Resolve overlaps into disjoint windows, slowest rate winning."""
    raw = [(s, e, r) for s, e, r in raw if e > s]
    if not raw:
        return ()
    bounds = sorted({b for s, e, _ in raw for b in (s, e)})
    windows: list[_Window] = []
    for left, right in zip(bounds, bounds[1:], strict=False):
        rates = [r for s, e, r in raw if s <= left and right <= e]
        if not rates:
            continue
        rate = min(rates)
        if windows and windows[-1].end == left and windows[-1].rate == rate:
            windows[-1] = _Window(windows[-1].start, right, rate)
        else:
            windows.append(_Window(left, right, rate))
    return tuple(windows)


def _completed_outcome(result) -> FaultOutcome:
    """The trivial outcome of an untouched schedule."""
    return FaultOutcome(
        cluster_name=result.cluster_name,
        crash_at=None,
        completed_months={
            s: result.spec.months for s in range(result.spec.scenarios)
        },
        pending_posts={s: 0 for s in range(result.spec.scenarios)},
        months_lost=0,
        lost_work_seconds=0.0,
        makespan=result.makespan,
    )


def simulate_with_faults(
    grouping,
    spec,
    timing,
    faults: FaultHook | FaultTrace,
    *,
    cluster_name: str = "cluster",
):
    """Simulate one cluster under faults; return ``(result, outcome)``.

    ``faults`` may be a pre-compiled :class:`FaultHook` or a full
    :class:`~repro.faults.trace.FaultTrace` (compiled against
    ``cluster_name``).  A noop hook reads the memoized fault-free
    makespans (one cache lookup, an engine run only on a miss) and
    reports a completed schedule; a live one replays the memoized
    schedule log (:meth:`FaultHook.replay`).  The returned
    :class:`FaultOutcome` is the checkpoint-level account the
    middleware replanner consumes.
    """
    from repro.core.makespan import cached_simulated_makespans
    from repro.simulation.events import SimulationResult

    if isinstance(faults, FaultTrace):
        faults = FaultHook.from_trace(faults, cluster_name)
    if faults.is_noop:
        makespan, main_makespan = cached_simulated_makespans(
            grouping, spec, timing
        )
        result = SimulationResult(
            makespan=makespan,
            main_makespan=main_makespan,
            grouping=grouping,
            spec=spec,
            cluster_name=cluster_name,
        )
        return result, _completed_outcome(result)
    return faults.replay(grouping, spec, timing, cluster_name=cluster_name)
