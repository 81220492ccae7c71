"""Golden regression tests for the figure pipelines.

Each test reruns a figure at the reduced parameters pinned in
``tests/data/regenerate_golden.py`` and compares the result object
*exactly* against the committed fixture.  Any drift — a heuristic
returning a different grouping, the engine producing a different
makespan, a serialization field changing shape — fails here with the
decoded objects in the diff.

Fixtures are regenerated (and the diff reviewed) with::

    PYTHONPATH=src python tests/data/regenerate_golden.py
"""

from __future__ import annotations

import json
from contextlib import nullcontext

import pytest

from repro import obs
from repro.experiments import fig7, fig8, fig10
from repro.experiments.results_io import dump_result, load_result
from tests.data.regenerate_golden import GOLDEN_PARAMS, HERE


def _golden(name: str):
    path = HERE / f"{name}_golden.json"
    return load_result(path.read_text())


# The unobserved cases keep the ids the two-argument parametrization gave.
@pytest.mark.parametrize(
    "name, module, observed",
    [
        pytest.param(
            name, module, observed,
            id=f"{name}-{module.__name__}" + ("-observed" if observed else ""),
        )
        for observed in (False, True)
        for name, module in (("fig7", fig7), ("fig8", fig8), ("fig10", fig10))
    ],
)
def test_figure_matches_golden(name, module, observed) -> None:
    """Observing a figure run must not change a single bit of it."""
    with obs.session() if observed else nullcontext():
        fresh = module.run(**GOLDEN_PARAMS[name])
    assert fresh == _golden(name)


def test_golden_fixtures_round_trip_current_codecs() -> None:
    """The pinned envelopes still decode and re-encode losslessly."""
    for name in GOLDEN_PARAMS:
        decoded = _golden(name)
        reencoded = json.loads(dump_result(decoded))
        pinned = json.loads((HERE / f"{name}_golden.json").read_text())
        assert reencoded["data"] == pinned["data"]
        assert reencoded["figure"] == pinned["figure"]
