"""Exact dynamic program for the cardinality-capped bounded knapsack.

State ``f(k, c)`` = best ``(value, -weight)`` achievable with at most
``k`` items and capacity ``c``; transition either skips the *k*-th slot
or fills it with any item type fitting in ``c``.  The lexicographic
objective implements the global tie rule (maximum value, then minimum
weight) exactly — it is not a heuristic layered on top.

The DP is one stack of choice rows, one per cardinality slot, each a
vectorized sweep of the item candidates over the whole ``0..capacity``
axis (:class:`_DpLayers`).  The stack built at the ceilings
``(capacity, max_items)`` answers every smaller ``(c, k)`` cell by
traceback, and it is memoized per item table
(:func:`~repro.core.makespan.cached_dp_stack`, the ``dp`` kind of the
kernel caches).  So the performance vectors of Section 5, which solve
``NS`` instances per cluster, the sweep, the arena and the SeDs'
executions all trace back from one stack per cluster.

:func:`batch_solve_dp` reads any number of cells; :func:`solve_dp` is
its one-cell read at the problem's own ceilings.  The scalar loop the
stack replicates operand for operand is the test oracle
(``tests/knapsack/dp_oracle.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.makespan import cached_dp_stack
from repro.exceptions import ConfigurationError
from repro.knapsack.items import CardinalityKnapsack, KnapsackItem, KnapsackSolution

__all__ = ["batch_solve_dp", "solve_dp"]


class _DpLayers:
    """Batched DP choice rows over the full ``0..capacity`` axis.

    One layer per cardinality slot up to ``max_items``, each a vectorized
    sweep of the item candidates over every capacity at once.  The
    per-cell update order (items in problem order, strictly-greater
    lexicographic ``(value, -weight)`` wins) replicates the scalar DP
    exactly, so the float value accumulations are bit-identical.  Like
    the scalar DP, the stack stops at the first layer that changes
    nothing.
    """

    def __init__(
        self, items: tuple[KnapsackItem, ...], capacity: int, max_items: int
    ) -> None:
        self.items = items
        self.choices: list[np.ndarray] = []
        value = np.zeros(capacity + 1, dtype=np.float64)
        negw = np.zeros(capacity + 1, dtype=np.int64)
        while len(self.choices) < max_items:
            cur_value = value.copy()
            cur_negw = negw.copy()
            choice = np.full(capacity + 1, -1, dtype=np.int32)
            for idx, item in enumerate(items):
                w = item.weight
                if w > capacity:
                    continue
                cand_value = value[:-w] + item.value
                cand_negw = negw[:-w] - w
                seg_value = cur_value[w:]
                seg_negw = cur_negw[w:]
                better = (cand_value > seg_value) | (
                    (cand_value == seg_value) & (cand_negw > seg_negw)
                )
                seg_value[better] = cand_value[better]
                seg_negw[better] = cand_negw[better]
                choice[w:][better] = idx
            self.choices.append(choice)
            # A winning candidate is strictly lexicographically greater,
            # so an unchanged layer is exactly an all-(-1) choice row —
            # the scalar DP's early-exit condition.
            if np.array_equal(cur_value, value) and np.array_equal(cur_negw, negw):
                break
            value, negw = cur_value, cur_negw

    def traceback(self, capacity: int, max_items: int) -> dict[int, int]:
        """Item counts of the optimal packing at one ``(capacity, k)``.

        Valid for every capacity up to the stack's and every
        ``max_items``: once two consecutive layers agree on the prefix
        ``0..capacity``, all later layers keep choice -1 there, so extra
        layers beyond the scalar DP's early exit contribute nothing.
        """
        counts: dict[int, int] = {}
        c = capacity
        for layer in range(min(max_items, len(self.choices)) - 1, -1, -1):
            idx = int(self.choices[layer][c])
            if idx >= 0:
                item = self.items[idx]
                counts[item.name] = counts.get(item.name, 0) + 1
                c -= item.weight
        return counts


def batch_solve_dp(
    problem: CardinalityKnapsack, cells: Sequence[tuple[int, int]]
) -> list[KnapsackSolution]:
    """The exact solution at every ``(capacity, max_items)`` cell.

    One DP at ``problem.capacity`` and ``problem.max_items`` serves every
    smaller cell, because the items depend on neither: a stabilized
    value-table prefix never changes again, and the first ``k`` layers
    are exactly the DP capped at ``k``, so the traceback at ``(c, k)``
    equals the scalar solve of that sub-problem.  The same argument lets
    a stack built at larger ceilings answer this problem, so the stack
    comes from :func:`~repro.core.makespan.cached_dp_stack`, keyed on
    ``problem.items``: a batch over an item table already solved at
    least this far builds no DP at all.  Each returned solution is
    validated against its own sub-problem.
    """
    cells = [(int(c), int(k)) for c, k in cells]
    for c, k in cells:
        if not (0 <= c <= problem.capacity and 0 <= k <= problem.max_items):
            raise ConfigurationError(
                f"cell {(c, k)!r} outside the solved range "
                f"0..{problem.capacity} x 0..{problem.max_items}"
            )
    layers = cached_dp_stack(
        problem.items, problem.capacity, problem.max_items, _DpLayers
    )
    return [
        KnapsackSolution.from_counts(
            layers.traceback(c, k), CardinalityKnapsack(problem.items, c, k)
        )
        for c, k in cells
    ]


def solve_dp(problem: CardinalityKnapsack) -> KnapsackSolution:
    """Solve exactly; always returns a (possibly empty) feasible packing.

    One traceback of the memoized stack at the problem's own ceilings.
    """
    (solution,) = batch_solve_dp(problem, [(problem.capacity, problem.max_items)])
    return solution
