"""Property-based tests for the knapsack solvers."""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.knapsack.dp import solve_dp
from repro.knapsack.greedy import solve_greedy
from repro.knapsack.items import CardinalityKnapsack
from tests.knapsack.branch_and_bound_oracle import solve_branch_and_bound


@st.composite
def problems(draw) -> CardinalityKnapsack:
    """Random cardinality-knapsack instances with small dimensions."""
    n_items = draw(st.integers(min_value=1, max_value=6))
    names = draw(
        st.lists(
            st.integers(min_value=1, max_value=20),
            min_size=n_items,
            max_size=n_items,
            unique=True,
        )
    )
    mapping = {}
    for name in names:
        weight = draw(st.integers(min_value=1, max_value=12))
        value = draw(
            st.floats(
                min_value=0.01, max_value=10.0,
                allow_nan=False, allow_infinity=False,
            )
        )
        mapping[name] = (weight, value)
    capacity = draw(st.integers(min_value=0, max_value=40))
    max_items = draw(st.integers(min_value=0, max_value=8))
    return CardinalityKnapsack.from_weights_values(mapping, capacity, max_items)


@given(problems())
@settings(max_examples=150, deadline=None)
def test_dp_solution_is_feasible(problem: CardinalityKnapsack) -> None:
    sol = solve_dp(problem)
    assert sol.weight <= problem.capacity
    assert sol.cardinality <= problem.max_items
    assert sol.value >= 0.0


@given(problems())
@example(
    # Values a rounding step apart: a tolerant tie rule kept the
    # lighter, lower-valued packing.
    CardinalityKnapsack.from_weights_values(
        {1: (2, 10.0), 6: (1, 9.999999999999998)}, 2, 1
    )
)
@settings(max_examples=150, deadline=None)
def test_exact_solvers_agree(problem: CardinalityKnapsack) -> None:
    dp = solve_dp(problem)
    bb = solve_branch_and_bound(problem)
    assert abs(dp.value - bb.value) <= 1e-9 * max(1.0, abs(dp.value))
    # Under the shared tie rule, the chosen weight agrees too.
    assert dp.weight == bb.weight


@given(problems())
@settings(max_examples=150, deadline=None)
def test_greedy_is_feasible_and_dominated(problem: CardinalityKnapsack) -> None:
    greedy = solve_greedy(problem)
    exact = solve_dp(problem)
    assert greedy.weight <= problem.capacity
    assert greedy.cardinality <= problem.max_items
    assert greedy.value <= exact.value + 1e-9


@given(problems(), st.integers(min_value=1, max_value=10))
@settings(max_examples=80, deadline=None)
def test_value_monotone_in_capacity(
    problem: CardinalityKnapsack, extra: int
) -> None:
    """More capacity can never hurt."""
    bigger = CardinalityKnapsack(
        problem.items, problem.capacity + extra, problem.max_items
    )
    assert solve_dp(bigger).value >= solve_dp(problem).value - 1e-12


@given(problems())
@settings(max_examples=80, deadline=None)
def test_value_monotone_in_cardinality(problem: CardinalityKnapsack) -> None:
    """A looser cardinality cap can never hurt."""
    looser = CardinalityKnapsack(
        problem.items, problem.capacity, problem.max_items + 1
    )
    assert solve_dp(looser).value >= solve_dp(problem).value - 1e-12


@given(problems())
@settings(max_examples=100, deadline=None)
def test_solution_accounting_is_consistent(problem: CardinalityKnapsack) -> None:
    sol = solve_dp(problem)
    by_name = {item.name: item for item in problem.items}
    weight = sum(by_name[n].weight * c for n, c in sol.counts)
    value = sum(by_name[n].value * c for n, c in sol.counts)
    cardinality = sum(c for _, c in sol.counts)
    assert weight == sol.weight
    assert cardinality == sol.cardinality
    assert abs(value - sol.value) <= 1e-9
