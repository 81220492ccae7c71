"""The ``dp`` kernel-cache kind: one knapsack DP stack per item table.

:func:`~repro.core.batch.batch_solve_dp` fetches its DP stack through
:func:`~repro.core.makespan.cached_dp_stack`, keyed on the item tuple
alone.  A stack built at ceilings ``(C, K)`` answers every cell with
``c <= C`` and ``k <= K``; a request past either ceiling rebuilds at the
component-wise max and counts one miss.  Whatever order the requests
arrive in, every solution must equal the scalar solve of its own
sub-problem (``tests/knapsack/dp_oracle.py``), and the misses must
equal the number of growths.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.batch import batch_solve_dp
from repro.core.makespan import (
    cached_dp_stack,
    clear_makespan_cache,
    makespan_cache_disabled,
    makespan_cache_stats,
)
from repro.exceptions import ConfigurationError
from repro.knapsack.items import CardinalityKnapsack
from tests.knapsack.dp_oracle import solve_dp


def _dp() -> dict[str, int]:
    return makespan_cache_stats()["dp"]


@st.composite
def request_sequences(draw):
    """One item table and a sequence of ``(capacity, max_items)`` requests."""
    sizes = sorted(draw(st.sets(st.integers(4, 11), min_size=1, max_size=8)))
    values = {g: draw(st.integers(1, 10_000)) / 4096.0 for g in sizes}
    items = CardinalityKnapsack.from_weights_values(values, 0, 0).items
    n = draw(st.integers(1, 10))
    capacities = [draw(st.integers(0, 120)) for _ in range(n)]
    caps = [draw(st.integers(0, 16)) for _ in range(n)]
    order = draw(st.sampled_from(["increasing", "decreasing", "mixed"]))
    if order == "mixed":
        return items, list(zip(capacities, caps))
    requests = list(zip(sorted(capacities), sorted(caps)))
    return items, requests if order == "increasing" else requests[::-1]


def _growths(requests: list[tuple[int, int]]) -> int:
    """Requests a ceiling-tracking memo cannot answer from its stack."""
    ceiling: tuple[int, int] | None = None
    growths = 0
    for capacity, max_items in requests:
        if ceiling is None or capacity > ceiling[0] or max_items > ceiling[1]:
            growths += 1
            ceiling = (
                (capacity, max_items) if ceiling is None
                else (max(capacity, ceiling[0]), max(max_items, ceiling[1]))
            )
    return growths


@given(request_sequences())
@settings(max_examples=150, deadline=None)
def test_memoized_stacks_equal_scalar_solves(instance) -> None:
    items, requests = instance
    clear_makespan_cache()
    for capacity, max_items in requests:
        problem = CardinalityKnapsack(items, capacity, max_items)
        half = (capacity // 2, max_items // 2)
        solutions = batch_solve_dp(problem, [(capacity, max_items), half])
        assert solutions[0] == solve_dp(problem)
        assert solutions[1] == solve_dp(CardinalityKnapsack(items, *half))
    stats = _dp()
    assert stats["misses"] == _growths(requests)
    assert stats["hits"] == len(requests) - stats["misses"]
    assert stats["size"] == 1


def test_growth_replaces_the_entry_at_the_componentwise_max() -> None:
    items = CardinalityKnapsack.from_weights_values({4: 1.0, 7: 1.9}, 0, 0).items
    builds: list[tuple[int, int]] = []

    def build(_items, capacity, max_items):
        builds.append((capacity, max_items))
        return (capacity, max_items)

    clear_makespan_cache()
    assert cached_dp_stack(items, 40, 3, build) == (40, 3)
    assert cached_dp_stack(items, 20, 8, build) == (40, 8)
    assert cached_dp_stack(items, 40, 8, build) == (40, 8)
    assert cached_dp_stack(items, 0, 0, build) == (40, 8)
    assert builds == [(40, 3), (40, 8)]
    assert _dp() == {"hits": 2, "misses": 2, "size": 1}


def test_disabled_memo_builds_at_the_request_and_counts_nothing() -> None:
    items = CardinalityKnapsack.from_weights_values({5: 1.0}, 0, 0).items
    clear_makespan_cache()
    with makespan_cache_disabled():
        assert cached_dp_stack(items, 9, 2, lambda *key: key[1:]) == (9, 2)
        batch_solve_dp(CardinalityKnapsack(items, 30, 4), [(30, 4)])
    assert _dp() == {"hits": 0, "misses": 0, "size": 0}


def test_lookups_are_counted_in_the_metrics_registry() -> None:
    problem = CardinalityKnapsack.from_weights_values({4: 1.0, 6: 1.4}, 24, 4)
    clear_makespan_cache()
    with obs.session() as (registry, _tracer):
        batch_solve_dp(problem, [(24, 4)])
        batch_solve_dp(problem, [(12, 2)])
        series = registry.as_dict()["counters"]["makespan.cache"]
    outcomes = {
        entry["labels"]["outcome"]: entry["value"]
        for entry in series
        if entry["labels"]["kind"] == "dp"
    }
    assert outcomes == {"miss": 1, "hit": 1}


@pytest.mark.parametrize("cells", [[(25, 4)], [(24, 5)]])
def test_range_check_still_refuses_cells_past_the_problem(cells) -> None:
    problem = CardinalityKnapsack.from_weights_values({4: 1.0}, 24, 4)
    clear_makespan_cache()
    batch_solve_dp(CardinalityKnapsack(problem.items, 100, 10), [(100, 10)])
    with pytest.raises(ConfigurationError):
        batch_solve_dp(problem, cells)
