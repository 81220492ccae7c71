"""Solver tests: DP, branch-and-bound, greedy, and their agreement.

The exact solvers — the product's read of the memoized dp stack
(``solve_dp``), the scalar DP loop it vectorizes and branch-and-bound,
the last two test oracles — are cross-checked against each other and
against an independent brute-force enumerator on small instances; the
greedy solver is checked for feasibility and for its known
sub-optimality.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.knapsack.dp import solve_dp
from repro.knapsack.greedy import solve_greedy
from repro.knapsack.items import CardinalityKnapsack, KnapsackSolution
from tests.knapsack.branch_and_bound_oracle import solve_branch_and_bound
from tests.knapsack.dp_oracle import solve_dp as scalar_solve_dp

EXACT_SOLVERS = [solve_dp, scalar_solve_dp, solve_branch_and_bound]
ALL_SOLVERS = EXACT_SOLVERS + [solve_greedy]


def _solver_id(solve) -> str:
    """The function's name; the scalar oracle's says so (both are ``solve_dp``)."""
    return "scalar_solve_dp" if solve is scalar_solve_dp else solve.__name__


def _paper_problem(capacity: int, max_items: int = 10) -> CardinalityKnapsack:
    """The Ocean-Atmosphere shape: sizes 4..11, value 1/T with Amdahl T."""
    values = {g: 1.0 / (630.0 + 5040.0 / (g - 3)) for g in range(4, 12)}
    return CardinalityKnapsack.from_weights_values(values, capacity, max_items)


def _brute_force(problem: CardinalityKnapsack) -> KnapsackSolution:
    """Exhaustive reference: enumerate all count vectors."""
    names = [item.name for item in problem.items]
    weights = {item.name: item.weight for item in problem.items}
    ranges = [
        range(min(problem.max_items, problem.capacity // weights[n]) + 1)
        for n in names
    ]
    best: KnapsackSolution | None = None
    for combo in itertools.product(*ranges):
        if sum(combo) > problem.max_items:
            continue
        if sum(c * weights[n] for c, n in zip(combo, names)) > problem.capacity:
            continue
        sol = KnapsackSolution.from_counts(dict(zip(names, combo)), problem)
        if best is None or sol.dominates(best):
            if best is None or not best.dominates(sol) or sol.weight < best.weight:
                best = sol
    assert best is not None
    return best


class TestExactSolvers:
    @pytest.mark.parametrize("solve", EXACT_SOLVERS, ids=_solver_id)
    def test_simple_instance(self, solve) -> None:
        problem = CardinalityKnapsack.from_weights_values(
            {4: 1.0, 5: 2.0}, capacity=10, max_items=2
        )
        sol = solve(problem)
        assert sol.count_of(5) == 2
        assert sol.value == pytest.approx(4.0)

    @pytest.mark.parametrize("solve", EXACT_SOLVERS, ids=_solver_id)
    def test_cardinality_binds(self, solve) -> None:
        # Without the cap the best packing is five 4s; with max_items=2
        # it must switch to two heavy items.
        problem = CardinalityKnapsack.from_weights_values(
            {4: 1.0, 10: 2.0}, capacity=20, max_items=2
        )
        sol = solve(problem)
        assert sol.cardinality <= 2
        assert sol.value == pytest.approx(4.0)
        assert sol.count_of(10) == 2

    @pytest.mark.parametrize("solve", EXACT_SOLVERS, ids=_solver_id)
    def test_capacity_binds(self, solve) -> None:
        problem = CardinalityKnapsack.from_weights_values(
            {7: 5.0, 4: 2.0}, capacity=11, max_items=10
        )
        sol = solve(problem)
        assert sol.weight <= 11
        assert sol.value == pytest.approx(7.0)  # one 7 + one 4

    @pytest.mark.parametrize("solve", ALL_SOLVERS, ids=_solver_id)
    def test_empty_when_infeasible(self, solve) -> None:
        problem = CardinalityKnapsack.from_weights_values(
            {4: 1.0}, capacity=3, max_items=10
        )
        sol = solve(problem)
        assert sol.as_multiset() == []
        assert sol.value == 0.0

    @pytest.mark.parametrize("solve", EXACT_SOLVERS, ids=_solver_id)
    def test_tie_break_prefers_lighter_packing(self, solve) -> None:
        # Two packings reach value 2.0: one 8 (weight 8) or two 4s
        # (weight 8)... make weights differ: item 9 value 2.0 weight 9 vs
        # two 4s value 1.0 each weight 8 total.
        problem = CardinalityKnapsack.from_weights_values(
            {4: 1.0, 9: 2.0}, capacity=9, max_items=2
        )
        sol = solve(problem)
        # Both {9: 1} (w=9) and {4: 2} (w=8) have value 2.0; the lighter
        # packing must win.
        assert sol.value == pytest.approx(2.0)
        assert sol.weight == 8
        assert sol.count_of(4) == 2

    @pytest.mark.parametrize("solve", EXACT_SOLVERS, ids=_solver_id)
    def test_paper_instance_at_53(self, solve) -> None:
        # R=53, NS=10: the packing must use all admissible structure —
        # exactness means no idle processors unless provably useless.
        sol = solve(_paper_problem(53))
        assert sol.weight <= 53
        assert sol.cardinality <= 10
        # The best packing leaves at most 3 processors over (min item 4).
        assert sol.weight >= 50


class TestSolverAgreement:
    def test_exact_solvers_agree_on_paper_sweep(self) -> None:
        for capacity in range(4, 130, 3):
            problem = _paper_problem(capacity)
            dp = solve_dp(problem)
            bb = solve_branch_and_bound(problem)
            assert dp.value == pytest.approx(bb.value, rel=1e-12), capacity
            assert dp.weight == bb.weight, capacity

    def test_exact_solvers_match_brute_force_random(self) -> None:
        rng = np.random.default_rng(42)
        for _ in range(40):
            n_items = int(rng.integers(1, 5))
            names = rng.choice(np.arange(1, 15), size=n_items, replace=False)
            mapping = {
                int(n): (int(rng.integers(1, 9)), float(rng.uniform(0.1, 5.0)))
                for n in names
            }
            problem = CardinalityKnapsack.from_weights_values(
                mapping, int(rng.integers(0, 25)), int(rng.integers(0, 6))
            )
            reference = _brute_force(problem)
            for solve in EXACT_SOLVERS:
                sol = solve(problem)
                assert sol.value == pytest.approx(reference.value, abs=1e-9)
                assert sol.weight <= problem.capacity
                assert sol.cardinality <= problem.max_items

    def test_greedy_never_beats_exact(self) -> None:
        for capacity in range(4, 130, 7):
            problem = _paper_problem(capacity)
            assert (
                solve_greedy(problem).value
                <= solve_dp(problem).value + 1e-12
            )


class TestGreedy:
    def test_feasible_on_paper_sweep(self) -> None:
        for capacity in range(0, 130, 5):
            sol = solve_greedy(_paper_problem(capacity))
            assert sol.weight <= capacity
            assert sol.cardinality <= 10

    def test_known_suboptimal_case(self) -> None:
        # Density favours the 7 (1.2/7 ≈ 0.171 > 0.9/6 = 0.15), so greedy
        # takes it, leaving 5 processors that fit nothing — value 1.2.
        # The optimum skips the density leader: two 6s for 1.8.
        problem = CardinalityKnapsack.from_weights_values(
            {7: 1.2, 6: 0.9}, capacity=12, max_items=5
        )
        greedy = solve_greedy(problem)
        exact = solve_dp(problem)
        assert exact.value == pytest.approx(1.8)
        assert greedy.value == pytest.approx(1.2)
        assert greedy.value < exact.value

    def test_backfill_uses_leftover_capacity(self) -> None:
        # After taking one 7 (density leader), 4 processors remain; the
        # backfill pass must fit the 4 in.
        problem = CardinalityKnapsack.from_weights_values(
            {7: 2.0, 4: 0.5}, capacity=11, max_items=5
        )
        sol = solve_greedy(problem)
        assert sol.count_of(7) == 1
        assert sol.count_of(4) == 1


class TestSolverScale:
    def test_dp_large_instance_fast(self) -> None:
        """R=1000, NS=50: the DP must stay well under a second."""
        import time

        problem = _paper_problem(1000, max_items=50)
        start = time.perf_counter()
        solution = solve_dp(problem)
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0
        assert solution.weight <= 1000
        assert solution.cardinality <= 50
