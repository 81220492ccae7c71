"""Knapsack solvers — the optimization kernel behind Improvement 3.

Section 4.2 casts the processor-partitioning problem as "an instance of
the Knapsack problem with an extra constraint": a **bounded knapsack
with a cardinality cap**.  Items are group sizes ``i ∈ [4, 11]`` with
weight ``i`` (processors) and value ``1/T[i]`` (the fraction of a main
task computed per second); capacity is ``R`` and at most ``NS`` items
may be packed (no more groups than scenarios can ever be busy).

Two solvers are provided:

* :mod:`repro.knapsack.dp` — exact dynamic program on one memoized,
  vectorized stack per item table, the production path;
* :mod:`repro.knapsack.greedy` — density-ordered approximation, the
  ablation baseline quantifying what exactness buys.

Two exact test oracles cross-check the DP: the scalar cell-by-cell loop
the stack vectorizes (``tests/knapsack/dp_oracle.py``) and a
branch-and-bound search (``tests/knapsack/branch_and_bound_oracle.py``).
"""

from repro.knapsack.items import (
    KnapsackItem,
    CardinalityKnapsack,
    KnapsackSolution,
)
from repro.knapsack.dp import solve_dp
from repro.knapsack.greedy import solve_greedy

__all__ = [
    "KnapsackItem",
    "CardinalityKnapsack",
    "KnapsackSolution",
    "solve_dp",
    "solve_greedy",
]
