"""Bound-ordered reservation decides exactly like the exhaustive enumeration.

The scheduler simulates bookings in order of the lower bound
``t_W + TP`` and stops at the first bound above the best horizon found.
On drawn clusters, resource counts and ensemble shapes — benchmark
timings, and integer-valued tables whose equal horizons exercise the tie
rule — its decision must equal the oracle's, and every booking's bound
must sit at or below its simulated horizon.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.makespan import clear_makespan_cache, makespan_cache_stats
from repro.exceptions import SchedulingError
from repro.platform.benchmarks import REFERENCE_CLUSTER_SPEEDS, benchmark_cluster
from repro.platform.cluster import ClusterSpec
from repro.platform.timing import TableTimingModel
from repro.schedulers import get_scheduler
from repro.workflow.ocean_atmosphere import EnsembleSpec
from tests.schedulers.reservation_oracle import exhaustive_reservation

CLUSTER_NAMES = tuple(sorted(REFERENCE_CLUSTER_SPEEDS))


@st.composite
def tie_prone_clusters(draw, resources: int) -> ClusterSpec:
    """A table of few distinct integer times: equal horizons are common."""
    levels = draw(st.lists(
        st.sampled_from((60.0, 90.0, 120.0, 180.0)), min_size=4, max_size=4,
    ))
    table = dict(zip(range(4, 8), sorted(levels, reverse=True), strict=True))
    tp = draw(st.sampled_from((10.0, 30.0, 60.0, 90.0)))
    return ClusterSpec("ties", resources, TableTimingModel(table, post_seconds=tp))


@st.composite
def cells(draw) -> tuple[ClusterSpec, EnsembleSpec]:
    resources = draw(st.integers(min_value=5, max_value=120))
    if draw(st.booleans()):
        cluster = benchmark_cluster(draw(st.sampled_from(CLUSTER_NAMES)), resources)
    else:
        cluster = draw(tie_prone_clusters(resources))
    spec = EnsembleSpec(
        draw(st.integers(min_value=1, max_value=20)),
        draw(st.integers(min_value=1, max_value=24)),
    )
    return cluster, spec


def _decide(cluster: ClusterSpec, spec: EnsembleSpec):
    try:
        return get_scheduler("reservation").plan(cluster, spec)
    except SchedulingError:
        return None


@settings(max_examples=150, deadline=None)
@given(cells())
def test_pruned_decision_equals_exhaustive(cell) -> None:
    cluster, spec = cell
    expected, scored = exhaustive_reservation(cluster, spec)
    assert _decide(cluster, spec) == expected
    for bound, horizon in scored:
        assert bound <= horizon


def test_a_bound_tie_is_simulated_before_stopping() -> None:
    # (4, 4) and (5,) both bound at 190 s and both finish at 190 s.  The
    # bound order reaches (4, 4) first; only simulating the tied (5,)
    # too lets the tie rule pick its smaller booking (6 processors, not 8).
    table = {4: 90.0, 5: 60.0, 6: 60.0}
    cluster = ClusterSpec("ties", 8, TableTimingModel(table, post_seconds=10.0))
    spec = EnsembleSpec(3, 1)
    expected, _ = exhaustive_reservation(cluster, spec)
    assert expected is not None
    assert (expected.group_sizes, expected.post_pool) == ((5,), 1)
    assert _decide(cluster, spec) == expected


@pytest.mark.parametrize("name", CLUSTER_NAMES)
def test_pruning_skips_simulations_on_fig8_cells(name: str) -> None:
    cluster, spec = benchmark_cluster(name, 43), EnsembleSpec(10, 12)
    clear_makespan_cache()
    decided = _decide(cluster, spec)
    pruned = makespan_cache_stats()["simulated"]["misses"]
    clear_makespan_cache()
    expected, scored = exhaustive_reservation(cluster, spec)
    assert decided == expected
    assert pruned < len(scored)


def test_no_admissible_booking_raises() -> None:
    cluster = benchmark_cluster(CLUSTER_NAMES[0], 3)
    assert exhaustive_reservation(cluster, EnsembleSpec(2, 2)) == (None, [])
    with pytest.raises(SchedulingError):
        get_scheduler("reservation").plan(cluster, EnsembleSpec(2, 2))
