"""Vectorized batch kernels for Eq 1–5 and Algorithm 1.

The scalar kernels of :mod:`repro.core.makespan` and the heuristic
modules evaluate one ``(R, G, NS, NM)`` cell per call; figure sweeps and
arena races evaluate tens of thousands.  This module re-expresses those
kernels as numpy array operations over entire grids:

* :func:`batch_analytic_breakdown` / :func:`batch_analytic_makespan` —
  Equations (1)–(5) over any broadcastable combination of the six scalar
  arguments.
* :func:`batch_best_uniform_group` — the basic heuristic's ``G``
  selection for a whole resource (or scenario) axis at once.
* :func:`batch_solve_dp` (re-exported from :mod:`repro.knapsack.dp`) —
  the cardinality-capped knapsack DP evaluated once at the capacity and
  cap ceilings, then traced back for every requested
  ``(capacity, max_items)`` cell.  The DP stack is the ``dp`` kind of
  the kernel caches, keyed on the item table alone, so every solve over
  one cluster's ``1/T[G]`` items after the first traces back from the
  stack already built.
* :func:`batch_plan_groupings` — all four paper heuristics over a batch
  of ``(R, NS, NM, heuristic)`` points (one sweep chunk, or the ``1..NS``
  entries of a performance vector), returning the
  same :class:`~repro.core.grouping.Grouping` objects the scalar
  :func:`~repro.core.heuristics.plan_grouping` builds.
* :func:`batch_gains_over_baseline` — the Figure 8/10 gain metric over
  many cells at once.

Every kernel is **bit-for-bit** equal to its scalar counterpart: the
array expressions replicate the scalar code's float operations operand
for operand, in the same order, so IEEE-754 rounding is identical.  The
scalar kernels stay untouched as the differential oracle — the property
suite in ``tests/property/test_batch_oracle.py`` enforces the equality
(the knapsack's scalar loop is ``tests/knapsack/dp_oracle.py``), and
the golden-parity suite re-derives the committed figure fixtures
through these kernels.  Cells where a scalar kernel would raise
:class:`~repro.exceptions.SchedulingError` are *masked* (``feasible``
False, makespan ``+inf``) rather than raised, so one bad cell cannot
poison a grid.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, TypeAlias

import numpy as np

from repro import obs
from repro.core.grouping import Grouping
from repro.core.heuristics import HeuristicName
from repro.core.knapsack_grouping import throughput_knapsack
from repro.core.makespan import (
    _RATIO_EPS,
    MakespanBreakdown,
    _floor_ratio,
    makespan_cache_enabled,
)
from repro.exceptions import ConfigurationError, SchedulingError
from repro.knapsack.dp import batch_solve_dp
from repro.platform.timing import TimingModel

__all__ = [
    "BatchBreakdown",
    "PlanPoint",
    "batch_analytic_breakdown",
    "batch_analytic_makespan",
    "batch_best_uniform_group",
    "batch_gains_over_baseline",
    "batch_plan_groupings",
    "batch_solve_dp",
    "warm_dp_stack",
]

#: Anything the Eq 1–5 batch kernels accept per argument: scalars or
#: broadcastable arrays.
ArrayLike: TypeAlias = "int | float | Sequence[int] | Sequence[float] | np.ndarray"

#: One point :func:`batch_plan_groupings` plans:
#: ``(resources, scenarios, months, heuristic)``.
PlanPoint: TypeAlias = "tuple[int, int, int, HeuristicName | str]"


# ---------------------------------------------------------------------------
# Equations (1)-(5) over a grid.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchBreakdown:
    """Arrays mirroring :class:`~repro.core.makespan.MakespanBreakdown`.

    All arrays share one broadcast shape.  ``feasible`` is False exactly
    where the scalar :func:`~repro.core.makespan.analytic_breakdown`
    would raise; there ``makespan``/``main_makespan`` are ``+inf``,
    ``case`` is ``""`` and the integer fields are 0.
    """

    feasible: np.ndarray
    makespan: np.ndarray
    main_makespan: np.ndarray
    case: np.ndarray
    group_size: np.ndarray
    n_groups: np.ndarray
    post_resources: np.ndarray
    waves: np.ndarray
    nbused: np.ndarray
    overpass: np.ndarray
    trailing_posts: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        """The common broadcast shape of every field array."""
        return tuple(self.makespan.shape)

    def at(self, index: "int | tuple[int, ...]") -> MakespanBreakdown:
        """The scalar breakdown of one feasible cell.

        Raises :class:`~repro.exceptions.SchedulingError` on an
        infeasible cell, matching the scalar kernel's contract.
        """
        if not bool(self.feasible[index]):
            raise SchedulingError(f"grid cell {index!r} is infeasible")
        return MakespanBreakdown(
            makespan=float(self.makespan[index]),
            main_makespan=float(self.main_makespan[index]),
            case=str(self.case[index]),
            group_size=int(self.group_size[index]),
            n_groups=int(self.n_groups[index]),
            post_resources=int(self.post_resources[index]),
            waves=int(self.waves[index]),
            nbused=int(self.nbused[index]),
            overpass=int(self.overpass[index]),
            trailing_posts=int(self.trailing_posts[index]),
        )


def batch_analytic_breakdown(
    resources: "ArrayLike",
    group_size: "ArrayLike",
    scenarios: "ArrayLike",
    months: "ArrayLike",
    tg: "ArrayLike",
    tp: "ArrayLike",
) -> BatchBreakdown:
    """Equations (1)–(5) over any broadcastable argument combination.

    Integer quantities are computed in exact ``int64`` arithmetic; the
    three float operations per cell (``waves × TG``, ``⌈·⌉ × TP``, their
    sum) pair the same operands in the same order as the scalar kernel,
    so each feasible cell equals ``analytic_breakdown(...)`` bit for
    bit.
    """
    arr_r, arr_g, arr_ns, arr_nm, arr_tg, arr_tp = np.broadcast_arrays(
        np.asarray(resources, dtype=np.int64),
        np.asarray(group_size, dtype=np.int64),
        np.asarray(scenarios, dtype=np.int64),
        np.asarray(months, dtype=np.int64),
        np.asarray(tg, dtype=np.float64),
        np.asarray(tp, dtype=np.float64),
    )
    feasible = (
        (arr_r >= 1)
        & (arr_ns >= 1)
        & (arr_nm >= 1)
        & (arr_g >= 1)
        & (arr_tg > 0.0)
        & (arr_tp > 0.0)
    )
    safe_g = np.where(arr_g >= 1, arr_g, 1)
    nbmax = np.where(feasible, np.minimum(arr_ns, arr_r // safe_g), 0)
    feasible = feasible & (nbmax > 0)

    # Sanitized operands for the masked-out cells: any positive stand-in
    # keeps the vector expressions finite; the mask discards the values.
    nbmax = np.where(feasible, nbmax, 1)
    safe_r = np.where(feasible, arr_r, 1)
    safe_tg = np.where(feasible, arr_tg, 1.0)
    safe_tp = np.where(feasible, arr_tp, 1.0)

    nbtasks = arr_ns * arr_nm
    r2 = arr_r - nbmax * arr_g
    nbused = nbtasks % nbmax
    # math.ceil(a / b): float true division then ceil — replicated, not
    # re-derived with integer ceil, to keep the op sequence identical.
    waves = np.ceil(nbtasks / nbmax).astype(np.int64)
    ms_multi = waves * safe_tg
    posts_per_proc = np.floor(safe_tg / safe_tp + _RATIO_EPS).astype(np.int64)

    # Equation (3): Rleft processors of the last, incomplete wave absorb
    # ⌊TG/TP⌋ posts each.
    r_left = safe_r - nbused * arr_g
    rem3 = nbused + np.maximum(0, nbtasks - nbused - posts_per_proc * r_left)
    # Equations (4)/(5): the dedicated pool of R2 processors digests
    # Npossible posts per wave; the rest overpass.
    n_possible = posts_per_proc * r2
    over4 = np.maximum(0, (waves - 1) * (nbmax - n_possible))
    trail4 = over4 + nbmax
    over5 = np.maximum(0, (waves - 2) * (nbmax - n_possible))
    rem5 = nbused + np.maximum(0, (over5 + nbmax) - posts_per_proc * r_left)

    no_pool = r2 == 0
    full_waves = nbused == 0
    m2 = feasible & no_pool & full_waves
    m3 = feasible & no_pool & ~full_waves
    m4 = feasible & ~no_pool & full_waves
    m5 = feasible & ~no_pool & ~full_waves

    trailing = np.select([m2, m3, m4, m5], [nbtasks, rem3, trail4, rem5], default=0)
    overpass = np.select([m4, m5], [over4, over5], default=0)
    case = np.select([m2, m3, m4, m5], ["eq2", "eq3", "eq4", "eq5"], default="")
    makespan = ms_multi + np.ceil(trailing / safe_r) * safe_tp

    return BatchBreakdown(
        feasible=feasible,
        makespan=np.where(feasible, makespan, np.inf),
        main_makespan=np.where(feasible, ms_multi, np.inf),
        case=case,
        group_size=np.where(feasible, arr_g, 0),
        n_groups=np.where(feasible, nbmax, 0),
        post_resources=np.where(feasible, r2, 0),
        waves=np.where(feasible, waves, 0),
        nbused=np.where(feasible, nbused, 0),
        overpass=overpass,
        trailing_posts=trailing,
    )


def batch_analytic_makespan(
    resources: "ArrayLike",
    group_size: "ArrayLike",
    scenarios: "ArrayLike",
    months: "ArrayLike",
    tg: "ArrayLike",
    tp: "ArrayLike",
) -> np.ndarray:
    """The makespan array of :func:`batch_analytic_breakdown`.

    ``+inf`` marks cells where the scalar kernel would raise — handy as
    an argmin-neutral sentinel.
    """
    return batch_analytic_breakdown(
        resources, group_size, scenarios, months, tg, tp
    ).makespan


def batch_best_uniform_group(
    timing: TimingModel,
    resources: "ArrayLike",
    scenarios: "ArrayLike",
    months: "ArrayLike",
) -> tuple[np.ndarray, np.ndarray]:
    """The basic heuristic's ``G`` selection over a whole grid.

    Broadcasts ``resources``/``scenarios``/``months``, appends the
    candidate-``G`` axis internally, and returns ``(best_g, feasible)``
    arrays of the broadcast shape.  ``best_g`` is 0 where no admissible
    group fits (the scalar :func:`~repro.core.basic.best_uniform_group`
    raises there).  The first-minimizer tie rule matches the scalar
    loop's strict ``<`` over ascending ``G``.
    """
    table = timing.main_time_table()
    sizes = np.asarray(list(table), dtype=np.int64)
    tg = np.asarray(list(table.values()), dtype=np.float64)
    arr_r, arr_ns, arr_nm = np.broadcast_arrays(
        np.asarray(resources, dtype=np.int64),
        np.asarray(scenarios, dtype=np.int64),
        np.asarray(months, dtype=np.int64),
    )
    axis_shape = (1,) * arr_r.ndim + (-1,)
    breakdown = batch_analytic_breakdown(
        arr_r[..., None],
        sizes.reshape(axis_shape),
        arr_ns[..., None],
        arr_nm[..., None],
        tg.reshape(axis_shape),
        timing.post_time(),
    )
    best_idx = np.argmin(breakdown.makespan, axis=-1)
    feasible = breakdown.feasible.any(axis=-1)
    best_g = np.where(feasible, sizes[best_idx], 0)
    return best_g, feasible


# ---------------------------------------------------------------------------
# Batched heuristic planning.
# ---------------------------------------------------------------------------


def _spread_surplus(
    base: int, n_groups: int, surplus: int, max_size: int
) -> tuple[list[int], int]:
    """Round-robin ``surplus`` processors over ``n_groups`` equal groups.

    Closed form of the scalar redistribute/allpost loops: groups start
    equal, so each receives ``⌊surplus/n⌋`` (+1 for the first
    ``surplus mod n``), capped at ``max_size``; the unabsorbed remainder
    comes back.  Returns ``(sizes, leftover)``.
    """
    cap = max_size - base
    if surplus >= n_groups * cap:
        return [max_size] * n_groups, surplus - n_groups * cap
    q, rem = divmod(surplus, n_groups)
    sizes = [base + q + 1] * rem + [base + q] * (n_groups - rem)
    return sizes, 0


def _uniform_family_grouping(
    timing: TimingModel, name: HeuristicName, r: int, g: int, scenarios: int
) -> Grouping:
    """Assemble one basic/redistribute/allpost grouping from ``G*``."""
    nbmax = min(scenarios, r // g)
    if name is HeuristicName.BASIC:
        return Grouping.uniform(g, nbmax, r)
    r2 = r - nbmax * g
    if name is HeuristicName.REDISTRIBUTE:
        if r2 == 0:
            return Grouping.uniform(g, nbmax, r)
        per_proc = _floor_ratio(timing.main_time(g), timing.post_time())
        needed = nbmax if per_proc <= 0 else math.ceil(nbmax / per_proc)
        post = min(r2, needed)
        sizes, leftover = _spread_surplus(g, nbmax, r2 - post, timing.max_group)
        return Grouping.from_sizes(sizes, r, post_pool=post + leftover)
    # ALLPOST_END: every leftover processor joins a group; whatever no
    # group can absorb keeps serving posts.
    sizes, leftover = _spread_surplus(g, nbmax, r2, timing.max_group)
    return Grouping.from_sizes(sizes, r, post_pool=leftover)


def warm_dp_stack(timing: TimingModel, capacity: int, max_items: int) -> None:
    """Build the memoized ``dp`` stack of ``timing``'s items at these ceilings.

    Every later knapsack solve on the same item table at or below them
    (the knapsack planner's, and the online knapsack rule's through
    :func:`batch_solve_dp`) traces back from that stack, so a caller
    that knows its largest ``(R, NS)`` builds one stack instead of
    regrowing it cell by cell.  A no-op while the caches are off, when
    every solve builds its own stack anyway.
    """
    if makespan_cache_enabled():
        batch_solve_dp(throughput_knapsack(timing, capacity, max_items), [])


def _knapsack_groupings(
    timing: TimingModel,
    cells: Iterable[tuple[int, int]],
    dp_ceiling: tuple[int, int] = (0, 0),
) -> dict[tuple[int, int], "Grouping | None"]:
    """Improvement 3's grouping for every ``(R, NS)`` cell.

    The knapsack does not depend on ``NM``, so one
    :func:`batch_solve_dp` at the batch's largest ``R`` and ``NS`` (or
    at ``dp_ceiling``, where that is larger) serves every cell, each
    traced back at its own capacity and cap.
    """
    cells = list(cells)
    if not cells:
        return {}
    problem = throughput_knapsack(
        timing,
        max(dp_ceiling[0], *(r for r, _ in cells)),
        max(dp_ceiling[1], *(ns for _, ns in cells)),
    )
    groupings: dict[tuple[int, int], Grouping | None] = {}
    for (r, ns), solution in zip(cells, batch_solve_dp(problem, cells), strict=True):
        sizes = solution.as_multiset()
        groupings[r, ns] = Grouping.from_sizes(sizes, r) if sizes else None
    return groupings


def batch_plan_groupings(
    timing: TimingModel,
    points: Iterable[PlanPoint],
    *,
    dp_ceiling: tuple[int, int] = (0, 0),
) -> list["Grouping | None"]:
    """Plan a batch of ``(R, NS, NM, heuristic)`` points on one timing model.

    Returns one entry per point, in input order: the exact
    :class:`~repro.core.grouping.Grouping` the scalar
    :func:`~repro.core.heuristics.plan_grouping` would build, or ``None``
    where the scalar heuristic raises
    :class:`~repro.exceptions.SchedulingError` (cluster too small to
    host any group).  Basic, redistribute and allpost_end all start from
    the basic heuristic's ``G*``, so they share one
    :func:`batch_best_uniform_group` over the batch's distinct
    ``(R, NS, NM)`` cells; the knapsack runs one DP for the whole batch.
    ``dp_ceiling`` ``(R, NS)`` asks that DP for at least that capacity
    and cap, so a caller planning a grid in batches of increasing ``R``
    builds the memoized stack once, at the grid's largest cell, rather
    than regrowing it per batch.  It changes no grouping.
    """
    plan = [(int(r), int(ns), int(nm), HeuristicName(h)) for r, ns, nm, h in points]
    for r, ns, nm, _ in plan:
        if r < 1 or ns < 1 or nm < 1:
            raise ConfigurationError(
                f"resources, scenarios and months must be >= 1, got "
                f"{(r, ns, nm)!r}"
            )
    # Distinct cells in first-appearance order (dicts as ordered sets).
    knapsack_cells = dict.fromkeys(
        (r, ns) for r, ns, _, name in plan if name is HeuristicName.KNAPSACK
    )
    cells = list(dict.fromkeys(
        (r, ns, nm) for r, ns, nm, name in plan if name is not HeuristicName.KNAPSACK
    ))
    knapsack = _knapsack_groupings(timing, knapsack_cells, dp_ceiling)
    best: dict[tuple[int, int, int], int] = {}
    if cells:
        best_g, _ = batch_best_uniform_group(timing, *zip(*cells))
        best = dict(zip(cells, best_g.tolist(), strict=True))  # 0: infeasible
    groupings: list[Grouping | None] = []
    for r, ns, nm, name in plan:
        if name is HeuristicName.KNAPSACK:
            groupings.append(knapsack[r, ns])
        else:
            g = best[r, ns, nm]
            groupings.append(
                _uniform_family_grouping(timing, name, r, g, ns) if g else None
            )
    if obs.enabled():
        counts = Counter(name.value for _, _, _, name in plan)
        for heuristic, n in counts.items():
            obs.inc("batch.plans", n, heuristic=heuristic)
    return groupings


# ---------------------------------------------------------------------------
# Batched gain scoring (Figures 8/10, arena standings).
# ---------------------------------------------------------------------------


def batch_gains_over_baseline(
    cells: Sequence[Mapping[str, float]], baseline_key: str = "basic"
) -> list[dict[str, float]]:
    """:func:`~repro.analysis.gains.gains_over_baseline` for many cells.

    One vectorized ``(base - value) / base × 100`` per competitor name —
    the same operand pairing as the scalar
    :func:`~repro.analysis.gains.gain_percent`, so each returned dict
    equals the per-cell scalar result bit for bit (keys in each cell's
    iteration order, baseline omitted).
    """
    base = np.empty(len(cells), dtype=np.float64)
    for i, cell in enumerate(cells):
        if baseline_key not in cell:
            raise ConfigurationError(
                f"no baseline entry {baseline_key!r} in {sorted(cell)}"
            )
        value = cell[baseline_key]
        if value <= 0:
            raise ConfigurationError(
                f"baseline makespan must be > 0, got {value!r}"
            )
        base[i] = value

    order: list[list[str]] = []
    cell_index: dict[str, list[int]] = {}
    values: dict[str, list[float]] = {}
    for i, cell in enumerate(cells):
        names = [n for n in cell if n != baseline_key]
        order.append(names)
        for n in names:
            value = cell[n]
            if value < 0:
                raise ConfigurationError(
                    f"improved makespan must be >= 0, got {value!r}"
                )
            cell_index.setdefault(n, []).append(i)
            values.setdefault(n, []).append(value)

    gains: dict[str, np.ndarray] = {}
    position: dict[str, dict[int, int]] = {}
    for n in sorted(cell_index):
        idx = cell_index[n]
        b = base[np.asarray(idx, dtype=np.intp)]
        v = np.asarray(values[n], dtype=np.float64)
        gains[n] = (b - v) / b * 100.0
        position[n] = {i: pos for pos, i in enumerate(idx)}

    return [
        {n: float(gains[n][position[n][i]]) for n in names}
        for i, names in enumerate(order)
    ]
