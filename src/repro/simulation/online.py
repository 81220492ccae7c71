"""Online per-task processor allocation — the no-groups baseline.

The paper commits to *static disjoint groups* chosen before execution.
The obvious alternative a practitioner would try first is an online
policy with no groups at all: keep one pool of ``R`` processors; when a
scenario's next month is ready and at least ``min_group`` processors are
free, grab up to ``max_group`` of them for that one task; post tasks
soak up single leftover processors.  Because the main task is moldable
(its width is fixed per task but may differ between tasks), this is a
legal schedule for the application.

This module implements that baseline so the static-grouping design can
be *measured* against it (see the ablation benchmark): the online policy
adapts to stragglers but fragments the machine — after the first
allocation wave, releases arrive staggered and mains start at ragged
widths, wasting efficiency at exactly the tight resource counts where
the knapsack shines.

Two allocation rules are provided:

``"greedy-max"``
    Take ``min(max_group, free)`` processors — grab everything useful.

``"knapsack-aware"``
    Take the width that maximizes ``Σ 1/T`` over the *current* free
    processors assuming the remainder forms further groups — a myopic
    per-event version of Improvement 3.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.core.knapsack_grouping import throughput_knapsack
from repro.exceptions import SimulationError
from repro.knapsack.dp import solve_dp
from repro.platform.timing import TimingModel
from repro.workflow.ocean_atmosphere import EnsembleSpec

__all__ = ["OnlineResult", "first_wave_widths", "simulate_online"]

#: The two allocation rules, in documentation order.
POLICIES = ("greedy-max", "knapsack-aware")

#: Event kinds, ordered so simultaneous events process mains first.
_MAIN_DONE = 0
_POST_DONE = 1


@dataclass(frozen=True)
class OnlineResult:
    """Outcome of an online (group-free) simulation."""

    makespan: float
    main_makespan: float
    resources: int
    policy: str
    #: widths actually used by main tasks, ``{width: count}``.
    width_histogram: dict[int, int]

    def mean_width(self) -> float:
        """Average processors per main task."""
        total = sum(w * c for w, c in self.width_histogram.items())
        count = sum(self.width_histogram.values())
        return total / count if count else 0.0


def _pick_width_greedy(free: int, timing: TimingModel) -> int:
    """Greedy-max rule: grab every useful processor."""
    return min(timing.max_group, free)


def _pick_width_knapsack(
    free: int, waiting: int, timing: TimingModel
) -> int:
    """Myopic knapsack rule over the current free pool.

    Solve the paper's knapsack for (free, waiting) and allocate the
    *largest* chosen width first (the chain bound favours giving the
    head of the queue the fastest group).  The solve traces back from
    the memoized DP stack of the cluster's item table
    (:func:`~repro.knapsack.dp.solve_dp`), which every event and the
    knapsack planner share.
    """
    widths = solve_dp(throughput_knapsack(timing, free, waiting)).as_multiset()
    if not widths:
        return 0
    return widths[0]


def _choose_width(
    free: int, waiting: int, timing: TimingModel, policy: str
) -> int:
    """Width the policy would start next, or 0 to stop allocating."""
    if policy == "greedy-max":
        return _pick_width_greedy(free, timing)
    return _pick_width_knapsack(free, waiting, timing)


def first_wave_widths(
    resources: int,
    scenarios: int,
    timing: TimingModel,
    *,
    policy: str = "greedy-max",
) -> tuple[int, ...]:
    """Main-task widths the policy starts at time zero on an idle pool.

    This is the online engine's opening move factored out so the
    scheduler arena can race it as a static partition
    (:class:`repro.schedulers.online.OnlineGreedyScheduler`): the first
    allocation wave is exactly the grouping an online policy commits to
    before any release staggers the pool.  Deterministic in its inputs —
    no clock, no RNG, no set iteration.
    """
    if resources < timing.min_group:
        raise SimulationError(
            f"{resources} processors cannot host a single main task "
            f"(min width {timing.min_group})"
        )
    if policy not in POLICIES:
        raise SimulationError(
            f"unknown policy {policy!r}; use 'greedy-max' or 'knapsack-aware'"
        )
    widths: list[int] = []
    free = resources
    waiting = scenarios
    while waiting > 0 and free >= timing.min_group:
        width = _choose_width(free, waiting, timing, policy)
        if width == 0:
            break
        widths.append(width)
        free -= width
        waiting -= 1
    return tuple(widths)


def simulate_online(
    spec: EnsembleSpec,
    timing: TimingModel,
    resources: int,
    *,
    policy: str = "greedy-max",
) -> OnlineResult:
    """Simulate the online no-groups baseline.

    Post tasks are aggregated by count (they are identical and any free
    processor serves them), so no trace is produced — this engine exists
    to produce makespans for comparison, not schedules for inspection.
    """
    if resources < timing.min_group:
        raise SimulationError(
            f"{resources} processors cannot host a single main task "
            f"(min width {timing.min_group})"
        )
    if policy not in POLICIES:
        raise SimulationError(
            f"unknown policy {policy!r}; use 'greedy-max' or 'knapsack-aware'"
        )

    ns, nm = spec.scenarios, spec.months
    months_done = [0] * ns
    # Ready scenarios live in an ordered list, never a set: selection is
    # by explicit total-order key (months done, waiting since, scenario
    # id — unique, so ties cannot exist) and the container contributes
    # no iteration-order freedom.  Identical inputs give bit-for-bit
    # identical schedules.
    waiting: list[int] = list(range(ns))
    wait_since = [0.0] * ns
    free = resources
    post_backlog = 0  # ready posts with no processor yet
    # (time, kind, seq, scenario, width) — seq keeps the heap total-ordered.
    events: list[tuple[float, int, int, int, int]] = []
    seq = 0
    main_makespan = 0.0
    makespan = 0.0
    histogram: dict[int, int] = {}

    def allocate(now: float) -> None:
        """Start mains (priority), then posts, from the free pool."""
        nonlocal free, post_backlog, seq
        while waiting and free >= timing.min_group:
            width = _choose_width(free, len(waiting), timing, policy)
            if width == 0:
                break
            scenario = min(
                waiting, key=lambda s: (months_done[s], wait_since[s], s)
            )
            waiting.remove(scenario)
            free -= width
            histogram[width] = histogram.get(width, 0) + 1
            seq += 1
            heapq.heappush(
                events,
                (
                    now + timing.main_time(width),
                    _MAIN_DONE,
                    seq,
                    scenario,
                    width,
                ),
            )
        while post_backlog > 0 and free > 0:
            post_backlog -= 1
            free -= 1
            seq += 1
            heapq.heappush(
                events, (now + timing.post_time(), _POST_DONE, seq, 0, 1)
            )

    allocate(0.0)
    while events:
        now, kind, _seq, scenario, width = heapq.heappop(events)
        if now > makespan:
            makespan = now
        free += width
        if kind == _MAIN_DONE:
            if now > main_makespan:
                main_makespan = now
            months_done[scenario] += 1
            post_backlog += 1
            if months_done[scenario] < nm:
                waiting.append(scenario)
                wait_since[scenario] = now
        allocate(now)

    if waiting or post_backlog:
        raise SimulationError(
            f"online engine stalled with {len(waiting)} waiting scenarios "
            f"and {post_backlog} unplaced posts"
        )
    if sum(months_done) != ns * nm:
        raise SimulationError(
            f"online engine ran {sum(months_done)} of {ns * nm} months"
        )
    return OnlineResult(
        makespan=makespan,
        main_makespan=main_makespan,
        resources=resources,
        policy=policy,
        width_histogram=histogram,
    )
