"""Incremental Algorithm 1 vectors: extend-by-one equals the scalar oracle.

:class:`~repro.core.batch.PerformanceVectorBuilder` promises that
growing a vector from ``NS - 1`` to ``NS`` entries reuses the computed
``1..NS-1`` prefix (the same list object, extended in place — for the
knapsack heuristic even the DP layer stack is shared) and still equals
the scalar k-loop of :mod:`tests.core.vector_oracle` (a fresh scalar
plan and engine run per entry) at every length.  The mutation drill at
the end proves the equality assertion has teeth: a seeded off-by-one
injected into a copy of the vector must be caught.
"""

from __future__ import annotations

import random

import pytest

from repro.core.batch import PerformanceVectorBuilder
from repro.core.heuristics import HeuristicName
from repro.exceptions import ConfigurationError, SchedulingError
from repro.platform.benchmarks import benchmark_cluster
from repro.platform.cluster import ClusterSpec
from repro.platform.timing import TableTimingModel
from repro.workflow.ocean_atmosphere import EnsembleSpec
from tests.core.vector_oracle import scalar_performance_vector

MAX_SCENARIOS = 40
MONTHS = 3  # small NM: the parity is structural, not NM-dependent


@pytest.mark.parametrize("heuristic", list(HeuristicName))
def test_extend_by_one_equals_from_scratch(heuristic) -> None:
    """Every prefix length 1..40: extended == oracle, object reused."""
    cluster = benchmark_cluster("sagittaire", 60)
    builder = PerformanceVectorBuilder(cluster, MONTHS, heuristic)
    previous: list[float] | None = None
    for scenarios in range(1, MAX_SCENARIOS + 1):
        vector = builder.extend(scenarios)
        if previous is not None:
            assert vector is previous  # the prefix object itself is reused
        previous = vector
        assert len(vector) == scenarios
    assert vector == scalar_performance_vector(
        cluster, EnsembleSpec(MAX_SCENARIOS, MONTHS), heuristic
    )


def test_extend_is_idempotent_and_monotone() -> None:
    """Re-extending to a covered length changes nothing; makespans grow."""
    cluster = benchmark_cluster("grelon", 30)
    builder = PerformanceVectorBuilder(cluster, MONTHS)
    full = list(builder.extend(12))
    assert builder.extend(5) == builder.extend(12)
    assert list(builder.extend(12)) == full
    assert all(a <= b for a, b in zip(full, full[1:]))


def test_mutation_drill_catches_an_off_by_one() -> None:
    """Seeded drill: corrupting any single entry must fail the parity.

    The equality in ``test_extend_by_one_equals_from_scratch`` is only
    a safety net if it actually discriminates — inject a one-post-task
    error at a seeded index and at every index and assert the
    comparison flags each one.
    """
    cluster = benchmark_cluster("chti", 45)
    builder = PerformanceVectorBuilder(cluster, MONTHS)
    vector = builder.extend(MAX_SCENARIOS)
    scratch = scalar_performance_vector(
        cluster, EnsembleSpec(MAX_SCENARIOS, MONTHS)
    )
    assert vector == scratch

    rng = random.Random(0xB47C4)
    index = rng.randrange(MAX_SCENARIOS)
    corrupted = list(vector)
    corrupted[index] += cluster.post_time()  # one post task too many
    assert corrupted != scratch

    for index in range(MAX_SCENARIOS):
        corrupted = list(vector)
        corrupted[index] += cluster.post_time()
        assert corrupted != scratch


def test_builder_error_contract() -> None:
    """Bad inputs raise exactly like the scalar oracle does."""
    cluster = benchmark_cluster("paravent", 60)
    builder = PerformanceVectorBuilder(cluster, MONTHS)
    with pytest.raises(ConfigurationError):
        builder.extend(0)

    # A cluster too small for any admissible group: the scalar oracle
    # raises on its first entry, the builder on the first extend.
    tiny = ClusterSpec(
        "tiny",
        3,
        TableTimingModel({g: 100.0 for g in range(4, 12)}, post_seconds=10.0),
    )
    with pytest.raises(SchedulingError):
        scalar_performance_vector(tiny, EnsembleSpec(2, MONTHS))
    with pytest.raises(SchedulingError):
        PerformanceVectorBuilder(tiny, MONTHS).extend(2)
