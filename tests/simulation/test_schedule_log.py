"""The fast engine's schedule log against the reference-record oracle.

``cached_schedule_log`` flattens :func:`repro.simulation.engine.schedule_log`,
a logging run of the fast engine's heap loop and post merge.  The oracle
flattens the per-task records of a traced reference run.  On uniform and
mixed groupings, unequal chains, an empty post pool and a single group,
every field of the two logs must be equal, and inputs the engine rejects
must raise the same error either way.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grouping import Grouping
from repro.core.makespan import (
    ScheduleLog,
    cached_schedule_log,
    makespan_cache_disabled,
)
from repro.exceptions import PlatformError, SchedulingError, SimulationError
from repro.platform.timing import TableTimingModel
from repro.workflow.ocean_atmosphere import EnsembleSpec
from tests.simulation.schedule_log_oracle import reference_schedule_log

FIELDS = (
    "starts", "ends", "procs", "mains", "end_peaks", "sorted_ends",
    "main_ends", "post_ends", "makespan",
)


@st.composite
def keys(draw):
    """A ``(grouping, spec, timing, chains)`` key the engine accepts."""
    scenarios = draw(st.integers(min_value=1, max_value=7))
    months = draw(st.integers(min_value=1, max_value=8))
    n_groups = draw(st.integers(min_value=1, max_value=scenarios))
    if draw(st.booleans()):
        sizes = (draw(st.integers(min_value=4, max_value=8)),) * n_groups
    else:
        sizes = tuple(draw(st.lists(
            st.integers(min_value=4, max_value=8),
            min_size=n_groups, max_size=n_groups,
        )))
    post_pool = draw(st.sampled_from((0, 0, 1, 2, 5)))
    # Few distinct times, so completions and post readies often tie.
    times = draw(st.lists(
        st.sampled_from((30.0, 45.0, 60.0, 61.5, 90.0, 123.4)),
        min_size=5, max_size=5,
    ))
    timing = TableTimingModel(
        dict(zip(range(4, 9), times, strict=True)),
        post_seconds=draw(st.sampled_from((5.0, 15.0, 30.0, 77.7))),
    )
    chains = None
    if draw(st.booleans()):
        chains = tuple(draw(st.lists(
            st.integers(min_value=1, max_value=months),
            min_size=scenarios, max_size=scenarios,
        )))
    grouping = Grouping(sizes, post_pool, sum(sizes) + post_pool)
    return grouping, EnsembleSpec(scenarios, months), timing, chains


def _fast(grouping, spec, timing, chains=None) -> ScheduleLog:
    with makespan_cache_disabled():
        return cached_schedule_log(grouping, spec, timing, chains)


def _assert_logs_equal(fast: ScheduleLog, reference: ScheduleLog) -> None:
    for name in FIELDS:
        assert getattr(fast, name) == getattr(reference, name), name
    assert fast == reference


@settings(max_examples=300, deadline=None)
@given(key=keys())
def test_fast_log_equals_reference_records(key) -> None:
    grouping, spec, timing, chains = key
    _assert_logs_equal(
        _fast(grouping, spec, timing, chains),
        reference_schedule_log(grouping, spec, timing, chains),
    )


TIMING = TableTimingModel({4: 90.0, 5: 75.0, 6: 61.0}, post_seconds=12.0)


@pytest.mark.parametrize(
    ("grouping", "spec", "chains"),
    [
        (Grouping((6,), 0, 6), EnsembleSpec(1, 5), None),
        (Grouping((5,), 3, 8), EnsembleSpec(4, 3), None),
        (Grouping((6, 6, 6), 0, 18), EnsembleSpec(5, 4), (4, 1, 3, 4, 2)),
        (Grouping((6, 5, 4), 2, 17), EnsembleSpec(3, 6), (6, 2, 5)),
    ],
    ids=["single-group", "one-group-many-scenarios", "uniform-unequal-chains",
         "mixed-unequal-chains"],
)
def test_edge_keys(grouping, spec, chains) -> None:
    _assert_logs_equal(
        _fast(grouping, spec, TIMING, chains),
        reference_schedule_log(grouping, spec, TIMING, chains),
    )


@pytest.mark.parametrize(
    ("grouping", "spec", "chains", "error"),
    [
        (Grouping((4, 4, 4), 0, 12), EnsembleSpec(2, 3), None, SchedulingError),
        (Grouping((7,), 0, 7), EnsembleSpec(2, 3), None, PlatformError),
        (Grouping((4,), 0, 4), EnsembleSpec(2, 3), (3,), SimulationError),
        (Grouping((4,), 0, 4), EnsembleSpec(2, 3), (3, 4), SimulationError),
        (Grouping((4,), 0, 4), EnsembleSpec(2, 3), (0, 3), SimulationError),
    ],
    ids=["more-groups-than-scenarios", "inadmissible-width",
         "short-chains", "chain-too-long", "empty-chain"],
)
def test_rejected_inputs_raise_as_the_reference_does(
    grouping, spec, chains, error
) -> None:
    with pytest.raises(error) as reference:
        reference_schedule_log(grouping, spec, TIMING, chains)
    with pytest.raises(error) as fast:
        _fast(grouping, spec, TIMING, chains)
    assert str(fast.value) == str(reference.value)
