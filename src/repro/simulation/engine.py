"""The discrete-event makespan simulator (Section 4.3).

Main-task phase
    Groups are matched to scenarios greedily at every completion event:
    the *least advanced* waiting scenario (fewest finished months; ties
    broken by longest wait, then scenario id) is placed on the *fastest*
    free group (smallest ``T[g]``; ties broken by group index).  This is
    the paper's policy — "when a group becomes ready, the month of the
    less advanced simulation waiting is scheduled on this group" —
    extended deterministically to the heterogeneous group sizes produced
    by Improvements 1 and 3.  Scenarios may run unequal month counts
    (``simulate(..., chains=...)``): a scenario leaves the waiting set
    after its own last month — the remaining chains the failure
    replanner (:mod:`repro.middleware.recovery`) resumes on a survivor.

Faults
    The engine takes no fault input.  A fault trace warps the fault-free
    schedule without changing its decisions, so :mod:`repro.faults.hooks`
    and the replanner read a cut of the memoized schedule log
    (:meth:`repro.core.makespan.ScheduleLog.cut`) instead.

Post-task phase
    Every finished main task releases one post task.  Post tasks run on
    single processors: the dedicated post pool is available from time 0,
    and each main group's processors join the pool once the group has run
    its last main task (this realizes both the ``Rleft`` reuse of
    Equations 3/5 and Improvement 2's posts-at-the-end).  Posts are
    placed in ready order on the processor giving the earliest start —
    optimal for equal-length tasks with release dates on identical
    machines, so the simulator never under-reports a heuristic.

Makespan-only loops and the logging loop
    Without a trace, :func:`simulate` runs the *makespan-only* loops
    below: no records, no logging, the regime picked from the grouping.
    A traced run (``record_trace=True``) and :func:`schedule_log` share
    the *logging loop* (:func:`_place_mains`): the general step's heap
    loop, logging each main placement as it is made.  A traced run
    turns the log into :class:`~repro.simulation.events.TaskRecord`
    entries and places posts with a heap, which assigns each one a
    processor id; :func:`schedule_log` places posts with the
    two-pointer merge.  Every path makes the same scheduling decisions,
    so every float operation on event times is the same: makespans are
    bit-identical and, while collection is on, the published metrics
    too.  A readable set-scan main loop, ``O(NS)`` per event, is kept
    as the oracle in ``tests/simulation/reference_engine.py``; the
    differential-oracle and regime tests pin every path against it.

Fast-path regimes
    The fast main phase picks one of three regimes from the grouping
    and the chain lengths:

    * *Uniform waves* — every ``T[g]`` equal, ``k <= NS`` and every
      chain the same length.  Each wave advances the ``k``
      least-advanced scenarios by one month, so no two scenarios are
      ever more than one month apart; when one finishes, every
      unfinished scenario has exactly its last month left, and no group
      idles while work remains.  The phase is then ``ceil(NS·NM / k)``
      waves of ``T`` each, built in closed form in ``O(NS·NM / k)``
      Python steps (plus ``O(NS·NM)`` list filling in C).  Unequal
      chains break the argument (a short chain ends while long ones
      still have several months left), so they take the loops below.
    * *Saturated loop* — otherwise, while every group is busy, the group
      a completion frees is the one that takes the next scenario, so
      one event is one ``heappushpop`` on the waiting heap and one
      ``heapreplace`` on the running heap: ``O(NS·NM · log NS)``.
    * *General step* — from the first time a group idles with work left
      (a lagging scenario still runs on a slow group while the others
      have finished), and for ``k > NS``, each event pops and pushes
      the three heaps separately, at the same ``O(log NS)`` per event
      and a constant factor more.

    The fast post phase needs no heap.  Every post takes the same
    ``TP`` and the ready list arrives sorted, so post ends come out
    nondecreasing: the processor pool is the merge of the sorted initial
    availabilities with a FIFO of post ends, two pointers doing the
    heap post phase's ``max``/``+`` per post, ``O(R log R + NS·NM)``.  A
    full paper-scale experiment (10 × 1800 months) simulates in well
    under a second.

The schedule log
    :func:`schedule_log` returns every task's start, end, processor
    count and scenario in the traced path's record order, without
    :class:`~repro.simulation.events.TaskRecord` objects.  Its posts
    take the two-pointer merge in ``(ready, scenario, month)`` order,
    the order the heap post phase sorts them into.  The makespan-only
    loops above do no logging work.
"""

from __future__ import annotations

import heapq
import math

from repro import obs
from repro.core.grouping import Grouping
from repro.exceptions import SimulationError
from repro.platform.cluster import ClusterSpec
from repro.platform.timing import TimingModel
from repro.simulation.events import SimulationResult, TaskRecord
from repro.simulation.groups import post_pool_range, proc_ranges
from repro.workflow.ocean_atmosphere import EnsembleSpec

__all__ = ["schedule_log", "simulate", "simulate_on_cluster"]


def simulate(
    grouping: Grouping,
    spec: EnsembleSpec,
    timing: TimingModel,
    *,
    cluster_name: str = "cluster",
    record_trace: bool = False,
    enforce_cardinality: bool = True,
    fast: bool | None = None,
    chains: tuple[int, ...] | None = None,
) -> SimulationResult:
    """Simulate one ensemble on one cluster under a fixed grouping.

    Parameters
    ----------
    grouping:
        The processor partition to evaluate.
    spec:
        Ensemble dimensions (``NS`` scenarios × ``NM`` months).
    timing:
        The cluster's timing model; every group size must be admissible.
    record_trace:
        Collect per-task :class:`~repro.simulation.events.TaskRecord`
        entries (needed for Gantt charts and schedule validation).
    enforce_cardinality:
        Reject groupings with more groups than scenarios (the paper's
        rule).  Disable only for deliberately degenerate test inputs.
    fast:
        ``None`` (default) and ``True`` take the makespan-only loops
        unless ``record_trace`` asks for per-task records, which only
        the traced path (the logging loop and the heap post phase)
        produces.  ``False`` takes the traced path even without
        records: a re-derivation that shares no loop with the
        makespan-only ones.  Observability does not enter the choice —
        both paths publish the same metrics while collection is on.
    chains:
        Month count of each scenario, one entry per scenario, each in
        ``1..spec.months`` — the unequal chains the replanner resumes
        after a failure.  ``None`` (default) runs every scenario for
        ``spec.months``.
    """
    months = _chain_months(spec, chains)
    if enforce_cardinality:
        grouping.validate_against(timing, spec.scenarios)
    else:
        for g in grouping.group_sizes:
            timing.validate_group(g)

    group_times = [timing.main_time(g) for g in grouping.group_sizes]
    tp = timing.post_time()

    # Main tasks per group, counted only while collection is on.
    tasks_per_group = [0] * len(group_times) if obs.enabled() else None
    records: tuple[TaskRecord, ...] = ()
    if record_trace or fast is False:
        records, main_makespan, post_makespan, group_last_end = _run_traced(
            grouping, months, group_times, tp, record_trace, tasks_per_group
        )
    else:
        ready_times, group_last_end = _run_main_phase_fast(
            months, group_times, tasks_per_group
        )
        main_makespan = ready_times[-1] if ready_times else 0.0
        post_makespan = _run_post_phase_fast(
            grouping, ready_times, group_last_end, tp
        )

    makespan = max(main_makespan, post_makespan)
    if tasks_per_group is not None:
        _publish_stats(
            tasks_per_group, cluster_name, sum(months), group_times,
            group_last_end, makespan, main_makespan,
        )
    return SimulationResult(
        makespan=makespan,
        main_makespan=main_makespan,
        grouping=grouping,
        spec=spec,
        cluster_name=cluster_name,
        records=records,
    )


def _chain_months(
    spec: EnsembleSpec, chains: tuple[int, ...] | None
) -> list[int]:
    """Each scenario's month count; raises on a malformed ``chains``."""
    if chains is None:
        return [spec.months] * spec.scenarios
    if len(chains) != spec.scenarios:
        raise SimulationError(
            f"chains has {len(chains)} entries for {spec.scenarios} scenarios"
        )
    if any(not 1 <= m <= spec.months for m in chains):
        raise SimulationError(
            f"every chain must run 1..{spec.months} months, got {chains!r}"
        )
    return list(chains)


def simulate_on_cluster(
    cluster: ClusterSpec,
    grouping: Grouping,
    spec: EnsembleSpec,
    *,
    record_trace: bool = False,
) -> SimulationResult:
    """Convenience wrapper binding a grouping to a named cluster."""
    if grouping.total_resources != cluster.resources:
        raise SimulationError(
            f"grouping sized for {grouping.total_resources} processors but "
            f"cluster {cluster.name!r} has {cluster.resources}"
        )
    return simulate(
        grouping,
        spec,
        cluster.timing,
        cluster_name=cluster.name,
        record_trace=record_trace,
    )


def _publish_stats(
    tasks_per_group: list[int],
    cluster_name: str,
    n_tasks: int,
    group_times: list[float],
    group_last_end: list[float],
    makespan: float,
    main_makespan: float,
) -> None:
    """Flush one run's accounting to the global metrics registry.

    Both engine paths call this once per run with the same values.
    Each of the ``n_tasks`` main tasks is one dispatched completion event
    and releases one post task.  *Waves* is the deepest group's task
    count — how many times the busiest group turned around; *idle
    seconds* is the main phase's processor-level slack: for each group,
    the gap between its last task's end and the time it spent
    computing, weighted by nothing (group-level, matching the paper's
    per-group reasoning).
    """
    obs.inc("simulation.runs", cluster=cluster_name)
    obs.inc("simulation.tasks", n_tasks, cluster=cluster_name, kind="main")
    obs.inc("simulation.tasks", n_tasks, cluster=cluster_name, kind="post")
    obs.inc("engine.events_dispatched", n_tasks, cluster=cluster_name)
    obs.set_gauge(
        "simulation.makespan_seconds", makespan, cluster=cluster_name
    )
    obs.set_gauge(
        "simulation.main_makespan_seconds", main_makespan, cluster=cluster_name
    )
    if tasks_per_group:
        obs.set_gauge("engine.waves", max(tasks_per_group), cluster=cluster_name)
        idle = sum(
            last_end - tasks * gt
            for last_end, tasks, gt in zip(
                group_last_end, tasks_per_group, group_times,
                strict=True,
            )
        )
        obs.set_gauge(
            "engine.idle_seconds", idle, cluster=cluster_name, phase="main"
        )


def _run_traced(
    grouping: Grouping,
    months: list[int],
    group_times: list[float],
    tp: float,
    record_trace: bool,
    tasks_per_group: list[int] | None,
) -> tuple[tuple[TaskRecord, ...], float, float, list[float]]:
    """The traced path: the logging loop, then the heap post phase.

    Returns ``(records, main_makespan, post_makespan, group_last_end)``;
    ``records`` is empty unless ``record_trace``.  Mains come first, in
    placement order; a main's month is how many of its scenario's mains
    were placed before it, since a scenario's months run in order.
    """
    placed, post_ready, group_last_end = _place_mains(months, group_times)
    ranges = proc_ranges(grouping)
    post_records, post_makespan = _run_post_phase(
        grouping, post_ready, group_last_end, ranges, tp, record_trace
    )
    if tasks_per_group is not None:
        for _, _, group, _ in placed:
            tasks_per_group[group] += 1
    records: tuple[TaskRecord, ...] = ()
    if record_trace:
        month_of = [0] * len(months)
        mains: list[TaskRecord] = []
        for start, end, group, scenario in placed:
            procs = ranges[group]
            mains.append(TaskRecord(
                "main", scenario, month_of[scenario], start, end, group,
                procs.start, procs.stop,
            ))
            month_of[scenario] += 1
        records = (*mains, *post_records)
    main_makespan = post_ready[-1][0] if post_ready else 0.0
    return records, main_makespan, post_makespan, group_last_end


def _place_mains(
    months: list[int], group_times: list[float]
) -> tuple[
    list[tuple[float, float, int, int]],
    list[tuple[float, int, int]],
    list[float],
]:
    """The general step's heap loop, logging each placement as it is made.

    Returns ``(placed, post_ready, group_last_end)``: ``placed`` holds
    ``(start, end, group, scenario)`` per main task in placement order,
    and ``post_ready`` holds ``(ready, scenario, month)`` per
    completion, in completion order — nondecreasing, so its last entry
    is the main-phase makespan.  The heaps are
    :func:`_run_main_phase_fast`'s (see there for why they decide as
    the set scan of ``tests/simulation/reference_engine.py`` does).
    """
    ns, n_groups = len(months), len(group_times)
    free = sorted((gt, g) for g, gt in enumerate(group_times))
    started = min(n_groups, ns)
    running = [(gt, g, s) for s, (gt, g) in enumerate(free[:started])]
    placed = [(0.0, gt, g, s) for gt, g, s in running]
    idle = free[started:]
    waiting: list[tuple[int, float, int]] = [
        (0, 0.0, s) for s in range(started, ns)
    ]
    months_done = [0] * ns
    unstarted = sum(months) - started
    group_last_end = [0.0] * n_groups
    ready: list[tuple[float, int, int]] = []

    push, pop = heapq.heappush, heapq.heappop
    while running:
        now, group, scenario = pop(running)
        month = months_done[scenario]
        months_done[scenario] = month + 1
        group_last_end[group] = now
        ready.append((now, scenario, month))
        if month + 1 < months[scenario]:
            push(waiting, (month + 1, now, scenario))
        push(idle, (group_times[group], group))
        while idle and waiting and unstarted > 0:
            gt, group = pop(idle)
            scenario = pop(waiting)[2]
            end = now + gt
            push(running, (end, group, scenario))
            placed.append((now, end, group, scenario))
            unstarted -= 1
    if unstarted != 0 or waiting:
        raise SimulationError(
            f"main phase ended with {unstarted} unstarted tasks and "
            f"{len(waiting)} waiting scenarios — engine invariant broken"
        )
    return placed, ready, group_last_end


def _run_post_phase(
    grouping: Grouping,
    post_ready: list[tuple[float, int, int]],
    group_last_end: list[float],
    ranges: list[range],
    tp: float,
    record_trace: bool,
) -> tuple[list[TaskRecord], float]:
    """Schedule every post task; return (records, post-phase makespan).

    ``post_ready`` holds one ``(ready, scenario, month)`` per post, in
    any order.  Posts are placed in ascending tuple order, each on the
    processor free earliest, ties to the lowest processor id.
    """
    # Processor pool: (available_from, proc_id).
    pool: list[tuple[float, int]] = []
    for proc in post_pool_range(grouping):
        pool.append((0.0, proc))
    for group, rng in enumerate(ranges):
        for proc in rng:
            pool.append((group_last_end[group], proc))
    heapq.heapify(pool)

    if not pool:
        if post_ready:
            raise SimulationError(
                "no processor ever becomes available for post-processing "
                "tasks — grouping has no post pool and no groups?"
            )
        return [], 0.0

    records: list[TaskRecord] = []
    makespan = 0.0
    # Ready order with deterministic tie-breaks (time, scenario, month).
    for ready, scenario, month in sorted(post_ready):
        free_at, proc = heapq.heappop(pool)
        start = max(free_at, ready)
        end = start + tp
        heapq.heappush(pool, (end, proc))
        if end > makespan:
            makespan = end
        if record_trace:
            records.append(
                TaskRecord("post", scenario, month, start, end, -1, proc, proc + 1)
            )
    return records, makespan


def _run_main_phase_fast(
    months: list[int],
    group_times: list[float],
    tasks_per_group: list[int] | None = None,
) -> tuple[list[float], list[float]]:
    """The main phase without records, in one of three regimes.

    Replays the main-phase policy decision-for-decision, so the
    returned ready times and group last-ends are bit-for-bit those of
    :func:`_place_mains` and of the set-scan oracle in
    ``tests/simulation/reference_engine.py``.  Returns
    ``(ready_times, group_last_end)`` with ready times in completion
    order — nondecreasing, so the last entry is the main-phase makespan
    and the post phase needs no sort.  ``tasks_per_group[g]`` gains one
    per task placed on group ``g``; callers pass ``None`` unless
    collection is on.

    Uniform groupings of equal chains go to :func:`_uniform_waves`.
    Otherwise the waiting set is a heap of ``(months_done, wait_since,
    scenario)`` (keys are frozen while a scenario waits, so entries
    never go stale), the free groups a heap of ``(T[g], g)`` and the
    running tasks a heap of ``(end, group, scenario)``.  Every key is unique, so
    the order a heap yields does not depend on how it was built, and
    the saturated loop's fused ``heappushpop``/``heapreplace`` choose
    exactly what the general step's separate pops and pushes would (see
    the module docstring for when each runs).
    """
    ns = len(months)
    n_groups = len(group_times)
    if (
        0 < n_groups <= ns
        and min(group_times) == max(group_times)
        and min(months) == max(months)
    ):
        return _uniform_waves(sum(months), n_groups, group_times[0], tasks_per_group)

    # Kick-off: the fastest min(k, NS) groups take scenarios 0, 1, ...
    # at time 0.  Every list below is ascending — already a valid heap.
    free = sorted((gt, g) for g, gt in enumerate(group_times))
    started = min(n_groups, ns)
    running: list[tuple[float, int, int]] = [
        (gt, g, s) for s, (gt, g) in enumerate(free[:started])
    ]
    idle: list[tuple[float, int]] = free[started:]
    waiting: list[tuple[int, float, int]] = [
        (0, 0.0, s) for s in range(started, ns)
    ]
    if tasks_per_group is not None:
        for _, g, _ in running:
            tasks_per_group[g] += 1
    months_done = [0] * ns
    unstarted = sum(months) - started
    group_last_end = [0.0] * n_groups
    ready_times: list[float] = []

    push, pop = heapq.heappush, heapq.heappop
    pushpop, replace = heapq.heappushpop, heapq.heapreplace
    # Saturated: no group idles, so each completion restarts its group.
    while unstarted > 0 and not idle:
        now, group, scenario = running[0]
        done = months_done[scenario] + 1
        months_done[scenario] = done
        group_last_end[group] = now
        ready_times.append(now)
        if done < months[scenario]:
            scenario = pushpop(waiting, (done, now, scenario))[2]
        elif waiting:
            scenario = pop(waiting)[2]
        else:
            pop(running)
            idle.append((group_times[group], group))
            break
        replace(running, (now + group_times[group], group, scenario))
        unstarted -= 1
        if tasks_per_group is not None:
            tasks_per_group[group] += 1

    # General step: a group idles with work left, or the phase drains.
    while running:
        now, group, scenario = pop(running)
        done = months_done[scenario] + 1
        months_done[scenario] = done
        group_last_end[group] = now
        ready_times.append(now)
        if done < months[scenario]:
            push(waiting, (done, now, scenario))
        push(idle, (group_times[group], group))
        while idle and waiting and unstarted > 0:
            gt, group = pop(idle)
            _, _, scenario = pop(waiting)
            push(running, (now + gt, group, scenario))
            unstarted -= 1
            if tasks_per_group is not None:
                tasks_per_group[group] += 1

    if unstarted != 0 or waiting:
        raise SimulationError(
            f"main phase ended with {unstarted} unstarted tasks and "
            f"{len(waiting)} waiting scenarios — engine invariant broken"
        )
    return ready_times, group_last_end


def _uniform_waves(
    n_tasks: int,
    k: int,
    gt: float,
    tasks_per_group: list[int] | None,
) -> tuple[list[float], list[float]]:
    """``k <= NS`` groups of equal time ``gt`` on equal chains, in closed form.

    No group idles while work remains (see the module docstring), so the
    phase is ``W = ceil(NS·NM / k)`` waves ending at
    ``t_w = t_{w-1} + gt`` from ``t_0 = 0.0`` — the very additions the
    event loop performs.  Groups free in index order within a wave, so
    the last wave's ``last`` tasks run on groups ``0..last-1``, which
    end at ``t_W``; the others end at ``t_{W-1}``.
    """
    waves = -(-n_tasks // k)
    last = n_tasks - (waves - 1) * k
    ready_times: list[float] = []
    t = 0.0
    for _ in range(waves - 1):
        t += gt
        ready_times += [t] * k
    previous, t = t, t + gt
    ready_times += [t] * last
    if tasks_per_group is not None:
        tasks_per_group[:] = [waves] * last + [waves - 1] * (k - last)
    return ready_times, [t] * last + [previous] * (k - last)


def _run_post_phase_fast(
    grouping: Grouping,
    ready_times: list[float],
    group_last_end: list[float],
    tp: float,
) -> float:
    """The post phase as a merge of two sorted queues; returns its makespan.

    Processor identity never affects timing — each post takes the
    earliest ``available_from`` either way — so the pool is a multiset
    of floats.  The ready list arrives sorted (main-phase completion
    order) and the pool's minimum never falls, so post starts, and with
    them post ends (every post takes the same ``TP``), come out
    nondecreasing.  The pool is therefore the merge of the initial
    availabilities (the post pool at 0.0, each group's processors at its
    last end), sorted once, with a FIFO of post ends: each post takes
    the smaller head, does the heap post phase's ``max``/``+`` and joins
    the FIFO's tail.  Equal heads are interchangeable, so the end
    multiset, and the makespan (the last end), are the heap's.
    The smallest initial availability seeds the FIFO — nothing ends
    before it — so the FIFO is never empty when read.
    """
    pool = _initial_pool(grouping, group_last_end, bool(ready_times))
    if not ready_times:
        return 0.0
    ends = pool[:1]
    initial = pool[1:]
    initial.append(math.inf)  # sentinel: an end always wins against it
    push = ends.append
    i = j = 0
    head = initial[0]
    for ready in ready_times:
        free_at = ends[j]
        if head < free_at:
            free_at = head
            i += 1
            head = initial[i]
        else:
            j += 1
        push((free_at if free_at > ready else ready) + tp)
    return ends[-1]


def _initial_pool(
    grouping: Grouping, group_last_end: list[float], has_posts: bool
) -> list[float]:
    """Every processor's first availability for posts, ascending.

    The post pool is available from 0.0 and each group's processors from
    its last main end.  Raises when posts exist but no processor does.
    """
    pool: list[float] = [0.0] * grouping.post_pool
    for group, size in enumerate(grouping.group_sizes):
        pool.extend([group_last_end[group]] * size)
    if not pool and has_posts:
        raise SimulationError(
            "no processor ever becomes available for post-processing "
            "tasks — grouping has no post pool and no groups?"
        )
    pool.sort()
    return pool


def schedule_log(
    grouping: Grouping,
    spec: EnsembleSpec,
    timing: TimingModel,
    chains: tuple[int, ...] | None = None,
) -> tuple[list[float], list[float], list[int], list[int], int, float]:
    """Every task of one run, in the traced path's record order.

    Returns ``(starts, ends, procs, scenarios, mains, makespan)``: the
    first ``mains`` entries are the main tasks in placement order, the
    rest the posts in ``(ready, scenario, month)`` order, and
    ``makespan`` is :func:`simulate`'s.  Entry ``i`` equals the start,
    end, processor count and scenario of record ``i`` of
    ``simulate(..., record_trace=True)`` bit for bit: both take their
    mains from :func:`_place_mains`, and each post here takes the
    smallest availability of the same pool, as the traced path's heap
    does (see :func:`_run_post_phase_fast`).  Inputs are checked, and
    rejected with the same errors, as :func:`simulate` checks them.
    """
    months = _chain_months(spec, chains)
    grouping.validate_against(timing, spec.scenarios)
    sizes = grouping.group_sizes
    group_times = [timing.main_time(g) for g in sizes]
    placed, ready, group_last_end = _place_mains(months, group_times)

    starts = [start for start, _, _, _ in placed]
    ends = [end for _, end, _, _ in placed]
    procs = [sizes[group] for _, _, group, _ in placed]
    scenarios = [scenario for _, _, _, scenario in placed]
    mains = len(placed)
    main_makespan = ready[-1][0] if ready else 0.0

    # Posts in the traced path's ready order through the two-pointer
    # merge of :func:`_run_post_phase_fast`, logging each start.
    ready.sort()
    tp = timing.post_time()
    pool = _initial_pool(grouping, group_last_end, bool(ready))
    post_ends = pool[:1]
    initial = pool[1:]
    initial.append(math.inf)
    i = j = 0
    head = initial[0]
    for at, scenario, _ in ready:
        free_at = post_ends[j]
        if head < free_at:
            free_at = head
            i += 1
            head = initial[i]
        else:
            j += 1
        start = free_at if free_at > at else at
        post_ends.append(start + tp)
        starts.append(start)
        scenarios.append(scenario)
    ends += post_ends[1:]
    procs += [1] * len(ready)
    post_makespan = post_ends[-1] if ready else 0.0
    return (
        starts, ends, procs, scenarios, mains,
        max(main_makespan, post_makespan),
    )
