"""Scalar dynamic program: the dp stack's oracle.

The cell-by-cell loop that :mod:`repro.knapsack.dp` vectorizes.  State
``f(k, c)`` = best ``(value, -weight)`` achievable with at most ``k``
items and capacity ``c``; transition either skips the *k*-th slot or
fills it with any item type fitting in ``c``, items in problem order,
strictly-greater lexicographic ``(value, -weight)`` winning.  The
memoized stack (:func:`repro.knapsack.dp.batch_solve_dp`) replicates
this update order operand for operand, so the two agree bit for bit:
``tests/property/test_batch_oracle.py``, ``tests/property/test_dp_memo.py``
and ``tests/knapsack/test_solvers.py`` compare them, and
``tests/middleware/test_campaign_oracle.py`` runs whole campaigns with
this solver patched in (:func:`scalar_knapsack_solver`).

It shares nothing with the stack: no numpy, no cache.  Complexity is
``O(max_items × capacity × |items|)`` per solve.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.core.knapsack_grouping import knapsack_grouping
from repro.knapsack.items import CardinalityKnapsack, KnapsackSolution


@contextmanager
def scalar_knapsack_solver() -> Iterator[None]:
    """Plan every default :func:`knapsack_grouping` with :func:`solve_dp`.

    That default is the product's knapsack planner: ``plan_grouping``
    for the knapsack heuristic (the SeDs' executions, the arena's
    knapsack decisions) and the fault replanner's chain plans reach the
    stack through it.  The batch planner behind the performance vectors
    keeps the stack, so under this context the two sides of a campaign
    plan the knapsack independently.
    """
    defaults = knapsack_grouping.__kwdefaults__
    saved = defaults["solver"]
    defaults["solver"] = solve_dp
    try:
        yield
    finally:
        defaults["solver"] = saved


def solve_dp(problem: CardinalityKnapsack) -> KnapsackSolution:
    """Solve exactly; always returns a (possibly empty) feasible packing."""
    if problem.is_trivially_empty():
        return KnapsackSolution.from_counts({}, problem)

    capacity = problem.capacity
    max_items = problem.max_items
    items = problem.items

    # f[c] for the current k; each cell is (value, -weight).  choice[k][c]
    # records the item index used to reach (k, c), or -1 for "skip".
    empty = (0.0, 0)
    prev: list[tuple[float, int]] = [empty] * (capacity + 1)
    choices: list[list[int]] = []

    for _k in range(1, max_items + 1):
        cur = prev[:]
        choice_row = [-1] * (capacity + 1)
        for c in range(capacity + 1):
            best = cur[c]
            best_item = choice_row[c]
            for idx, item in enumerate(items):
                if item.weight > c:
                    continue
                base_value, base_negw = prev[c - item.weight]
                cand = (base_value + item.value, base_negw - item.weight)
                if cand > best:
                    best = cand
                    best_item = idx
            cur[c] = best
            choice_row[c] = best_item
        choices.append(choice_row)
        if cur == prev:
            # Adding a slot changed nothing: the cardinality cap is no
            # longer binding and every later layer would be identical.
            break
        prev = cur

    counts: dict[int, int] = {}
    c = capacity
    for choice_row in reversed(choices):
        idx = choice_row[c]
        if idx >= 0:
            item = problem.items[idx]
            counts[item.name] = counts.get(item.name, 0) + 1
            c -= item.weight
    return KnapsackSolution.from_counts(counts, problem)
