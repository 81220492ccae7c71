"""The failure replanner reproduces its pinned canonical dump.

``benchmarks/replan_differential.py`` runs the campaign replanner over a
seeded set of platforms, ensemble shapes, fault traces and single
failures, and dumps every report canonically (each float as its
``repr``).  ``tests/data/replan_golden.json`` pins the case count, byte
count and sha256 of the full set — checked in CI — and of every 160th
case, which this test regenerates: a replanner change may make recovery
faster, never different.
"""

from __future__ import annotations

import importlib.util
import json

from tests.data.regenerate_golden import HERE


def _differential():
    path = HERE.parent.parent / "benchmarks" / "replan_differential.py"
    spec = importlib.util.spec_from_file_location("replan_differential", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_subset_matches_pinned_digest() -> None:
    pinned = json.loads((HERE / "replan_golden.json").read_text())["subset"]
    assert _differential().run(subset=True) == pinned
