"""Arena races reproduce the committed golden figures bit-for-bit.

The paper adapters go through the full arena pipeline — registry
lookup, ``decide()`` validation, memoized simulation — and must land
exactly where the figure drivers landed when the goldens were pinned:
same fig7 staircase, same fig8 gain floats, no tolerance.  Faulted races
are pinned too: the journals of the fig10 and fig8 presets under fault
seed 3 must keep the byte count and sha256 in ``arena_golden.json``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.results_io import load_result
from repro.schedulers import PAPER_SCHEDULERS
from repro.schedulers.arena import ArenaGrid, ArenaPoint, run_arena
from tests.data.regenerate_golden import HERE


def _golden(name: str):
    return load_result((HERE / f"{name}_golden.json").read_text())


def _race(preset: str):
    grid = ArenaGrid.from_preset(preset, schedulers=PAPER_SCHEDULERS)
    result = run_arena(grid)
    assert result.complete
    return result


def test_fig7_staircase_matches_golden() -> None:
    # fig7 pins the optimal uniform G per R; the arena's basic rows on
    # the fig7 preset carry the same choice in their grouping strings
    # (basic *is* best-uniform-group, and at these parameters the
    # sagittaire and reference staircases coincide).
    f7 = _golden("fig7")
    result = _race("fig7")
    for r, expected_g in zip(f7.resources, f7.best_group):
        row = result.row_for(
            ArenaPoint("sagittaire", r, f7.scenarios, f7.months,
                       "none", "basic")
        )
        assert row.makespan is not None, f"basic infeasible at R={r}"
        # a uniform grouping describes as e.g. "5x10 | post=3 | idle=0"
        head = row.grouping.split(" | ")[0]
        widths = {int(part.split("x")[1]) for part in head.split(" + ")}
        assert widths == {expected_g}, (
            f"R={r}: arena basic chose {row.grouping}, "
            f"golden G*={expected_g}"
        )


def test_fig8_gains_match_golden_bit_for_bit() -> None:
    f8 = _golden("fig8")
    result = _race("fig8")
    gains = result.gain_rows(baseline="basic")
    for heuristic, per_cluster in f8.raw_gains.items():
        for j, cluster in enumerate(f8.cluster_names):
            for i, r in enumerate(f8.resources):
                cell = (cluster, r, f8.scenarios, f8.months, "none")
                assert gains[cell][heuristic] == per_cluster[j][i], (
                    f"{heuristic} on {cluster} at R={r}: arena gain "
                    f"{gains[cell][heuristic]!r} != golden "
                    f"{per_cluster[j][i]!r}"
                )


def test_fig8_grid_covers_the_golden_axes() -> None:
    f8 = _golden("fig8")
    grid = ArenaGrid.from_preset("fig8", schedulers=PAPER_SCHEDULERS)
    assert grid.clusters == f8.cluster_names
    assert grid.resources == f8.resources
    assert grid.scenarios == (f8.scenarios,)
    assert grid.months == (f8.months,)


@pytest.mark.parametrize("preset", ["fig10", "fig8"])
def test_fault_seed_3_journal_matches_pinned_digest(preset, tmp_path) -> None:
    pinned = json.loads((HERE / "arena_golden.json").read_text())[preset]
    journal = tmp_path / "arena.ndjson"
    run_arena(ArenaGrid.from_preset(preset, fault_seeds=(3,)), journal_path=journal)
    data = journal.read_bytes()
    assert len(data) == pinned["bytes"]
    assert hashlib.sha256(data).hexdigest() == pinned["sha256"]
