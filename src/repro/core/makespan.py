"""Closed-form makespan estimates — Equations (1)–(5) of Section 4.1.

These formulas estimate the makespan of the *basic* schedule: ``nbmax``
groups of ``G`` processors run the main tasks in waves while ``R2``
leftover processors absorb post-processing, with the paper's four cases
over ``R2 = 0 / ≠ 0`` and ``nbused = 0 / ≠ 0``.

They are estimates, not ground truth — the simulator of
:mod:`repro.simulation.engine` is the arbiter, and the ablation
benchmark measures the gap.  The basic heuristic nevertheless *selects*
``G`` with these formulas, exactly as the paper does, so they are part
of the contribution being reproduced, quirks included.

Notation (mirroring the paper)::

    NS        independent simulations          NM   months per simulation
    R         total processors                 G    processors per group
    nbtasks   NS × NM monthly tasks
    nbmax     min(NS, ⌊R/G⌋) concurrent groups
    R1        nbmax × G processors in groups   R2   R − R1 post processors
    nbused    nbtasks mod nbmax — groups busy in the last (incomplete) wave
    TG        main-task time on G processors   TP   post-task time
"""

from __future__ import annotations

import bisect
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, TypeVar

from repro import obs
from repro.exceptions import SchedulingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports core)
    from repro.core.grouping import Grouping
    from repro.platform.timing import TimingModel
    from repro.workflow.ocean_atmosphere import EnsembleSpec

__all__ = [
    "MakespanBreakdown",
    "ScheduleLog",
    "analytic_breakdown",
    "analytic_makespan",
    "cached_analytic_breakdown",
    "cached_analytic_makespan",
    "cached_decision",
    "cached_dp_stack",
    "cached_schedule_log",
    "cached_simulated_makespan",
    "cached_simulated_makespans",
    "clear_makespan_cache",
    "makespan_cache_disabled",
    "makespan_cache_enabled",
    "makespan_cache_stats",
    "set_makespan_cache_enabled",
]

#: Guard for ``⌊TG/TP⌋`` on float inputs: 1259.999999 / 180 must floor
#: like 1260 / 180 would.
_RATIO_EPS = 1e-9


def _floor_ratio(tg: float, tp: float) -> int:
    """``⌊TG/TP⌋`` with protection against float fuzz."""
    return math.floor(tg / tp + _RATIO_EPS)


@dataclass(frozen=True)
class MakespanBreakdown:
    """An analytic makespan with its intermediate quantities exposed.

    ``case`` identifies which of the paper's four formulas applied:
    ``"eq2"`` (R2=0, nbused=0), ``"eq3"`` (R2=0, nbused≠0),
    ``"eq4"`` (R2≠0, nbused=0), ``"eq5"`` (R2≠0, nbused≠0).
    """

    makespan: float
    main_makespan: float
    case: str
    group_size: int
    n_groups: int
    post_resources: int
    waves: int
    nbused: int
    overpass: int
    trailing_posts: int


def analytic_breakdown(
    resources: int,
    group_size: int,
    scenarios: int,
    months: int,
    tg: float,
    tp: float,
) -> MakespanBreakdown:
    """Evaluate the paper's formulas for one candidate ``G``.

    Raises :class:`~repro.exceptions.SchedulingError` when no group of
    ``group_size`` fits on ``resources`` processors (the paper simply
    never evaluates such a ``G``).
    """
    if resources < 1 or scenarios < 1 or months < 1:
        raise SchedulingError(
            f"need resources, scenarios, months >= 1, got "
            f"{resources}, {scenarios}, {months}"
        )
    if group_size < 1 or tg <= 0 or tp <= 0:
        raise SchedulingError(
            f"need group_size >= 1 and positive TG, TP, got "
            f"{group_size}, {tg}, {tp}"
        )

    nbmax = min(scenarios, resources // group_size)
    if nbmax == 0:
        raise SchedulingError(
            f"group size {group_size} does not fit on {resources} processors"
        )
    nbtasks = scenarios * months
    r1 = nbmax * group_size
    r2 = resources - r1
    nbused = nbtasks % nbmax
    waves = math.ceil(nbtasks / nbmax)
    ms_multi = waves * tg
    posts_per_proc = _floor_ratio(tg, tp)

    if r2 == 0:
        if nbused == 0:
            # Equation (2): every wave is full; all posts run at the end
            # on the whole machine.
            trailing = nbtasks
            makespan = ms_multi + math.ceil(nbtasks / resources) * tp
            case = "eq2"
            overpass = 0
        else:
            # Equation (3): the last wave leaves Rleft processors free for
            # ⌊TG/TP⌋ posts each; the remainder trail at the end.
            r_left = resources - nbused * group_size
            rem_post = nbused + max(
                0, nbtasks - nbused - posts_per_proc * r_left
            )
            trailing = rem_post
            makespan = ms_multi + math.ceil(rem_post / resources) * tp
            case = "eq3"
            overpass = 0
    else:
        n_possible = posts_per_proc * r2
        if nbused == 0:
            # Equation (4): each of the first n−1 waves may overflow the
            # post pool by (nbmax − Npossible) tasks.
            overpass = max(0, (waves - 1) * (nbmax - n_possible))
            trailing = overpass + nbmax
            makespan = ms_multi + math.ceil(trailing / resources) * tp
            case = "eq4"
        else:
            # Equation (5): overflow accumulates over n−2 complete waves,
            # then spills onto the last wave's unused groups (Rleft).
            overpass = max(0, (waves - 2) * (nbmax - n_possible))
            nover_tot = overpass + nbmax
            r_left = resources - group_size * nbused
            rem_post = nbused + max(0, nover_tot - posts_per_proc * r_left)
            trailing = rem_post
            makespan = ms_multi + math.ceil(rem_post / resources) * tp
            case = "eq5"

    return MakespanBreakdown(
        makespan=makespan,
        main_makespan=ms_multi,
        case=case,
        group_size=group_size,
        n_groups=nbmax,
        post_resources=r2,
        waves=waves,
        nbused=nbused,
        overpass=overpass,
        trailing_posts=trailing,
    )


def analytic_makespan(
    resources: int,
    group_size: int,
    scenarios: int,
    months: int,
    tg: float,
    tp: float,
) -> float:
    """The scalar makespan estimate (see :func:`analytic_breakdown`)."""
    return analytic_breakdown(
        resources, group_size, scenarios, months, tg, tp
    ).makespan


# ---------------------------------------------------------------------------
# Memoized kernels.
#
# Figure sweeps evaluate the same (R, G, NS, NM, TG, TP) kernel many times:
# every heuristic re-scores the same candidate groups, and neighbouring
# sweep points share groupings outright.  Both the analytic formulas and
# the event simulator are pure functions of those inputs, so a process-
# local memo turns the duplicates into dict lookups.  Caches are keyed on
# the exact float timing vector — no rounding — so a hit is bit-for-bit
# identical to a recomputation (the differential-oracle tests enforce
# this with the cache both enabled and disabled).
# ---------------------------------------------------------------------------

#: FIFO eviction bound per cache — generous for any figure-scale sweep
#: (fig7's full grid needs a few hundred entries) while keeping a
#: runaway campaign's memory flat.
_CACHE_MAXSIZE = 1 << 16

_T = TypeVar("_T")

_caches: dict[str, dict[tuple, Any]] = {
    kind: {} for kind in ("analytic", "simulated", "schedule", "decision", "dp", "vector")
}
_cache_counters = {kind: {"hits": 0, "misses": 0} for kind in _caches}
_cache_enabled = True


def _record(kind: str, outcome: str) -> None:
    """Count a lookup locally and mirror it into the metrics registry."""
    _cache_counters[kind]["hits" if outcome == "hit" else "misses"] += 1
    if obs.enabled():
        obs.inc("makespan.cache", kind=kind, outcome=outcome)


def set_makespan_cache_enabled(enabled: bool) -> bool:
    """Switch the memo caches on or off; returns the previous setting.

    Disabling does not clear stored entries — re-enabling resumes with
    the warm cache.  The switch is process-local, like the caches.
    """
    global _cache_enabled
    previous = _cache_enabled
    _cache_enabled = bool(enabled)
    return previous


def makespan_cache_enabled() -> bool:
    """Whether the memo caches are currently consulted."""
    return _cache_enabled


@contextmanager
def makespan_cache_disabled() -> Iterator[None]:
    """Context manager running its body with the memo caches bypassed."""
    previous = set_makespan_cache_enabled(False)
    try:
        yield
    finally:
        set_makespan_cache_enabled(previous)


def clear_makespan_cache() -> None:
    """Drop every cached kernel and zero the hit/miss counters."""
    for cache in _caches.values():
        cache.clear()
    for counters in _cache_counters.values():
        counters["hits"] = 0
        counters["misses"] = 0


def makespan_cache_stats() -> dict[str, dict[str, int]]:
    """Hit/miss/size counters for each of the six kinds.

    ``analytic`` (Eqs 1–5), ``simulated`` (engine makespans),
    ``schedule`` (fault-free schedule logs), ``decision`` (arena
    decisions), ``dp`` (knapsack DP stacks, one per item table) and
    ``vector`` (whole performance vectors).
    """
    return {
        kind: {**_cache_counters[kind], "size": len(cache)}
        for kind, cache in _caches.items()
    }


def _memoized(kind: str, key: tuple, compute: Callable[..., _T], *args: Any) -> _T:
    """``compute(*args)`` memoized under ``key`` in the ``kind`` cache.

    While the caches are off this is a plain call: no lookup, no count.
    Otherwise a hit returns the stored value; a miss computes, then
    inserts with FIFO eviction (dicts preserve insertion order).  Errors
    are not cached — they re-raise on every call, like the uncached path.
    """
    if not _cache_enabled:
        return compute(*args)
    cache = _caches[kind]
    hit = cache.get(key)
    if hit is not None:
        _record(kind, "hit")
        return hit
    _record(kind, "miss")
    value = compute(*args)
    _store(cache, key, value)
    return value


def _store(cache: dict[tuple, Any], key: tuple, value: Any) -> None:
    """Insert or replace ``key``, evicting the oldest entry when full."""
    if key not in cache and len(cache) >= _CACHE_MAXSIZE:
        cache.pop(next(iter(cache)))
    cache[key] = value


def cached_analytic_breakdown(
    resources: int,
    group_size: int,
    scenarios: int,
    months: int,
    tg: float,
    tp: float,
) -> MakespanBreakdown:
    """Memoized :func:`analytic_breakdown`, keyed on all six inputs.

    The returned :class:`MakespanBreakdown` is frozen, so sharing one
    instance across callers is safe.  Errors (infeasible ``G``) are not
    cached — they re-raise on every call, exactly like the uncached path.
    """
    key = (resources, group_size, scenarios, months, tg, tp)
    return _memoized("analytic", key, analytic_breakdown, *key)


def cached_analytic_makespan(
    resources: int,
    group_size: int,
    scenarios: int,
    months: int,
    tg: float,
    tp: float,
) -> float:
    """Memoized :func:`analytic_makespan` (see :func:`cached_analytic_breakdown`)."""
    return cached_analytic_breakdown(
        resources, group_size, scenarios, months, tg, tp
    ).makespan


def simulation_cache_key(
    grouping: "Grouping", spec: "EnsembleSpec", timing: "TimingModel",
    chains: tuple[int, ...] | None = None,
) -> tuple:
    """The exact inputs the event simulator's makespan depends on.

    ``(group-size vector, post pool, NS, NM, TG vector, TP, chains)``,
    with ``chains`` the engine's own input (``None``: every scenario
    runs ``NM`` months) — the cluster's name and any timing-model
    internals beyond the evaluated times are deliberately excluded, so
    identical kernels reached from different clusters share one entry.
    The TG vector is read from the model's frozen table.
    """
    sizes = grouping.group_sizes
    table = timing.main_time_table()
    try:
        tg = tuple(table[g] for g in sizes)
    except KeyError:  # an inadmissible size: raise main_time's PlatformError
        tg = tuple(timing.main_time(g) for g in sizes)
    return (
        sizes,
        grouping.post_pool,
        spec.scenarios,
        spec.months,
        tg,
        timing.post_time(),
        chains,
    )


def cached_simulated_makespans(
    grouping: "Grouping", spec: "EnsembleSpec", timing: "TimingModel",
    chains: tuple[int, ...] | None = None,
) -> tuple[float, float]:
    """Memoized event-simulator ``(makespan, main_makespan)``.

    The simulator is deterministic in :func:`simulation_cache_key`, so a
    cache hit returns the bit-identical floats a fresh
    :func:`repro.simulation.engine.simulate` call would produce.  Only
    the two makespans are cached; callers needing per-task times use
    :func:`cached_schedule_log`, and callers needing the full
    :class:`~repro.simulation.events.SimulationResult` call the engine.
    """
    return _memoized(
        "simulated",
        simulation_cache_key(grouping, spec, timing, chains),
        _simulated_makespans,
        grouping, spec, timing, chains,
    )


def _simulated_makespans(
    grouping: "Grouping", spec: "EnsembleSpec", timing: "TimingModel",
    chains: tuple[int, ...] | None,
) -> tuple[float, float]:
    """One fresh engine run's ``(makespan, main_makespan)``."""
    from repro.simulation.engine import simulate

    result = simulate(grouping, spec, timing, chains=chains)
    return result.makespan, result.main_makespan


def cached_simulated_makespan(
    grouping: "Grouping", spec: "EnsembleSpec", timing: "TimingModel",
    chains: tuple[int, ...] | None = None,
) -> float:
    """Memoized event-simulator makespan (see :func:`cached_simulated_makespans`)."""
    return cached_simulated_makespans(grouping, spec, timing, chains)[0]


@dataclass(frozen=True)
class ScheduleLog:
    """The fault-free schedule of one simulation key, as floats.

    ``starts``/``ends``/``procs`` hold each task's start, end and
    processor count in the record order of a traced
    :func:`~repro.simulation.engine.simulate` run, which
    :func:`~repro.simulation.engine.schedule_log` emits:
    the first ``mains`` entries are the main tasks in placement order,
    the rest the post tasks in ready order.  Within each of the two
    blocks the starts are nondecreasing (the engine places tasks as its
    clock advances), and ``end_peaks`` holds the running max of the ends.
    ``sorted_ends`` holds every end ascending, and ``main_ends`` /
    ``post_ends`` the ascending ends of each scenario's main and post
    tasks.  Together they answer "what had finished by time ``t``" with
    binary searches (:meth:`cut`).
    """

    starts: tuple[float, ...]
    ends: tuple[float, ...]
    procs: tuple[int, ...]
    mains: int
    end_peaks: tuple[float, ...]
    sorted_ends: tuple[float, ...]
    main_ends: tuple[tuple[float, ...], ...]
    post_ends: tuple[tuple[float, ...], ...]
    makespan: float

    def cut(
        self, at: float, warp: Callable[[float], float]
    ) -> tuple[tuple[int, ...], tuple[int, ...], float, int, float | None]:
        """What had finished by time ``at`` once every time maps through ``warp``.

        ``warp`` must be monotone nondecreasing — a fault hook's
        :meth:`~repro.faults.hooks.FaultHook.wallclock`, or the shift
        ``t -> offset + t`` of a schedule started at ``offset`` — so the
        survivors (warped end ``<= at``) are a prefix of ``sorted_ends``.
        Returns ``(months done, posts done, lost work, in-flight mains,
        last end)``: the counts per scenario; the processor-seconds from
        the warped start to ``at`` of every task cut in flight, summed in
        record order; how many of those are mains; and the fault-free
        end of the last survivor (``None`` when none survived).
        """
        starts, ends, procs = self.starts, self.ends, self.procs
        survived = bisect.bisect_right(self.sorted_ends, at, key=warp)
        last = self.sorted_ends[survived - 1] if survived else -math.inf
        first_lost = self.sorted_ends[survived] if survived < len(ends) else math.inf
        done = tuple(bisect.bisect_right(e, last) for e in self.main_ends)
        posts_done = tuple(bisect.bisect_right(e, last) for e in self.post_ends)
        # Per block, tasks before the first end peak above ``last`` all
        # survived, and tasks starting at or after ``first_lost`` start
        # after ``at``: only the window between can be cut in flight.
        lost, in_flight = 0.0, 0
        for lo, hi, main in ((0, self.mains, 1), (self.mains, len(ends), 0)):
            for i in range(
                bisect.bisect_right(self.end_peaks, last, lo, hi),
                bisect.bisect_left(starts, first_lost, lo, hi),
            ):
                if last < ends[i] and (start := warp(starts[i])) < at:
                    lost += (at - start) * procs[i]
                    in_flight += main
        return done, posts_done, lost, in_flight, (last if survived else None)


def _schedule_log(
    grouping: "Grouping", spec: "EnsembleSpec", timing: "TimingModel",
    chains: tuple[int, ...] | None,
) -> ScheduleLog:
    """Flatten one logged fast-engine run into a :class:`ScheduleLog`."""
    from repro.simulation.engine import schedule_log

    starts, ends, procs, scenarios, mains, makespan = schedule_log(
        grouping, spec, timing, chains
    )
    main_ends: list[list[float]] = [[] for _ in range(spec.scenarios)]
    post_ends: list[list[float]] = [[] for _ in range(spec.scenarios)]
    for i, (scenario, end) in enumerate(zip(scenarios, ends)):
        (main_ends if i < mains else post_ends)[scenario].append(end)
    return ScheduleLog(
        starts=tuple(starts),
        ends=tuple(ends),
        procs=tuple(procs),
        mains=mains,
        end_peaks=(
            *itertools.accumulate(ends[:mains], max),
            *itertools.accumulate(ends[mains:], max),
        ),
        sorted_ends=tuple(sorted(ends)),
        main_ends=tuple(tuple(sorted(e)) for e in main_ends),
        post_ends=tuple(tuple(sorted(e)) for e in post_ends),
        makespan=makespan,
    )


def cached_schedule_log(
    grouping: "Grouping", spec: "EnsembleSpec", timing: "TimingModel",
    chains: tuple[int, ...] | None = None,
) -> ScheduleLog:
    """The :class:`ScheduleLog` of one key, memoized under :func:`simulation_cache_key`.

    The log is frozen, so a hit hands every caller the same instance.
    """
    return _memoized(
        "schedule",
        simulation_cache_key(grouping, spec, timing, chains),
        _schedule_log,
        grouping, spec, timing, chains,
    )


def cached_decision(
    key: tuple, decide: Callable[[], tuple["Grouping | None", float]]
) -> tuple["Grouping | None", float]:
    """A scheduler decision ``(grouping or None, decide_seconds)``, memoized.

    ``decide`` runs only on a miss, so ``key`` must pin every input the
    decision depends on (the arena keys on scheduler name, seed,
    cluster, resources and ensemble shape).  ``None`` records an
    infeasible decision, which is then made once too; the seconds are
    the latency measured when the decision was made.
    """
    return _memoized("decision", key, decide)


def cached_dp_stack(
    items: tuple, capacity: int, max_items: int, build: Callable[[tuple, int, int], _T]
) -> _T:
    """A knapsack DP stack for ``items``, memoized on the item tuple alone.

    ``build(items, capacity, max_items)`` must return a stack that
    answers every ``(c, k)`` cell with ``c <= capacity`` and
    ``k <= max_items`` (see :func:`repro.knapsack.dp.batch_solve_dp`), so
    one stack per item table serves every smaller request.  A hit is an
    entry whose ceilings cover the request.  Any other lookup is a miss:
    it builds at the component-wise max of the stored and requested
    ceilings and replaces the entry, so a table's stack only grows.
    While the caches are off this is a plain ``build`` at the requested
    ceilings.
    """
    if not _cache_enabled:
        return build(items, capacity, max_items)
    cache = _caches["dp"]
    entry = cache.get(items)
    if entry is not None and capacity <= entry[0] and max_items <= entry[1]:
        _record("dp", "hit")
        return entry[2]
    _record("dp", "miss")
    if entry is not None:
        capacity, max_items = max(capacity, entry[0]), max(max_items, entry[1])
    stack = build(items, capacity, max_items)
    _store(cache, items, (capacity, max_items, stack))
    return stack
