"""Exact branch-and-bound solver: the DP's oracle.

Depth-first search over item types in decreasing density order.  At each
node the remaining capacity and cardinality admit a fractional upper
bound — ``value + min(density_max · cap_left, v_max · card_left)`` — and
branches that cannot beat the incumbent are pruned.  The same exact
lexicographic rule as the DP (strictly more value, or equal value and
less weight) decides between incumbents, so on any instance both exact
solvers must agree on ``(value, weight)`` — a property the test suite
exercises on random instances.  The incumbent test reads each packing's
value as a correctly rounded sum (``math.fsum``), so two packings of
the same item values tie whatever order this search added them in.
Where the DP's own left-to-right sums round a truly larger packing
below a lighter one, the two solvers still part by one ulp.

This solver exists for assurance, not speed; the DP is the shipping
path.  It still handles the paper-scale instances instantly.
"""

from __future__ import annotations

import math

from repro.knapsack.items import (
    CardinalityKnapsack,
    KnapsackItem,
    KnapsackSolution,
)

#: Pruning margin only: a branch is cut when even its bound falls this
#: far short of the incumbent, so bound rounding never cuts a winner.
_TOL = 1e-12


def solve_branch_and_bound(problem: CardinalityKnapsack) -> KnapsackSolution:
    """Solve exactly by depth-first branch and bound."""
    if problem.is_trivially_empty():
        return KnapsackSolution.from_counts({}, problem)

    items: list[KnapsackItem] = sorted(
        problem.items, key=lambda it: (-it.density, it.weight)
    )
    # Suffix maxima for the two bound ingredients.
    suffix_density = [0.0] * (len(items) + 1)
    suffix_value = [0.0] * (len(items) + 1)
    for i in range(len(items) - 1, -1, -1):
        suffix_density[i] = max(suffix_density[i + 1], items[i].density)
        suffix_value[i] = max(suffix_value[i + 1], items[i].value)

    best_value = 0.0
    best_exact = -1.0  # below any packing: the empty one is the first
    best_weight = 0
    best_counts: dict[int, int] = {}
    counts: dict[int, int] = {}

    def bound(idx: int, cap_left: int, card_left: int) -> float:
        by_capacity = suffix_density[idx] * cap_left
        by_cardinality = suffix_value[idx] * card_left
        return min(by_capacity, by_cardinality)

    def visit(idx: int, cap_left: int, card_left: int, value: float, weight: int) -> None:
        nonlocal best_value, best_exact, best_weight, best_counts
        # The DP's exact rule, with no tolerance: a tolerant tie would
        # keep a packing one rounding step lower in value if lighter.
        exact = math.fsum(
            item.value for item in items for _ in range(counts.get(item.name, 0))
        )
        if exact > best_exact or (exact == best_exact and weight < best_weight):
            best_value = value
            best_exact = exact
            best_weight = weight
            best_counts = dict(counts)
        if idx == len(items) or card_left == 0 or cap_left == 0:
            return
        # Prune only strictly-worse branches: an equal-value branch may
        # still hold a lighter (tie-preferred) packing.
        if value + bound(idx, cap_left, card_left) < best_value - _TOL:
            return
        item = items[idx]
        max_take = min(card_left, cap_left // item.weight)
        # Try larger multiplicities first: good incumbents early tighten
        # pruning for the rest of the search.
        for take in range(max_take, -1, -1):
            if take:
                counts[item.name] = counts.get(item.name, 0) + take
            visit(
                idx + 1,
                cap_left - take * item.weight,
                card_left - take,
                value + take * item.value,
                weight + take * item.weight,
            )
            if take:
                counts[item.name] -= take
                if counts[item.name] == 0:
                    del counts[item.name]

    visit(0, problem.capacity, problem.max_items, 0.0, 0)
    return KnapsackSolution.from_counts(best_counts, problem)
