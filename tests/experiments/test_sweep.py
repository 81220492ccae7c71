"""Tests for the batched sweep engine.

The load-bearing property is resume determinism: a sweep killed
mid-grid and resumed must produce a result equal to one uninterrupted
run — same rows, same order, same bits.  Everything else (journal
hygiene, codec round-trips, parallel equivalence) supports that.
"""

from __future__ import annotations

import json

import pytest

from repro.core.makespan import clear_makespan_cache, makespan_cache_stats
from repro.exceptions import ConfigurationError
from repro.experiments.results_io import dump_result, load_result
from repro.experiments.sweep import (
    SweepGrid,
    SweepPoint,
    SweepResult,
    SweepRow,
    run_sweep,
)


def _small_grid(**overrides) -> SweepGrid:
    params = dict(r_min=11, r_max=26, step=3, scenarios=(5,), months=(6,))
    params.update(overrides)
    return SweepGrid.from_ranges(**params)


class TestGrid:
    def test_size_and_point_order(self) -> None:
        grid = _small_grid()
        points = grid.points()
        assert len(points) == grid.size
        # heuristic is the innermost axis: consecutive points share R
        assert points[0].resources == points[1].resources
        assert points[0].heuristic != points[1].heuristic

    def test_rejects_empty_axis(self) -> None:
        with pytest.raises(ConfigurationError):
            SweepGrid(
                clusters=(), resources=(11,), scenarios=(5,),
                months=(6,), heuristics=("basic",),
            )

    def test_rejects_unknown_heuristic(self) -> None:
        with pytest.raises(ConfigurationError):
            _small_grid(heuristics=("magic",))

    def test_rejects_non_positive_resources(self) -> None:
        with pytest.raises(ConfigurationError):
            SweepGrid(
                clusters=("sagittaire",), resources=(0,), scenarios=(5,),
                months=(6,), heuristics=("basic",),
            )

    def test_dict_round_trip(self) -> None:
        grid = _small_grid()
        assert SweepGrid.from_dict(grid.as_dict()) == grid


class TestRunSweep:
    def test_complete_run_covers_every_point(self) -> None:
        grid = _small_grid()
        result = run_sweep(grid)
        assert result.complete
        assert [row.point for row in result.rows] == grid.points()
        assert all(
            row.makespan is None or row.makespan > 0 for row in result.rows
        )

    def test_infeasible_points_recorded_not_dropped(self) -> None:
        # R=3 cannot host any main-task group (minimum size is 4)
        grid = SweepGrid(
            clusters=("sagittaire",), resources=(3,), scenarios=(5,),
            months=(6,), heuristics=("basic",),
        )
        result = run_sweep(grid)
        assert result.complete
        assert result.rows[0].makespan is None
        assert result.summary()["infeasible"] == 1

    def test_parallel_equals_serial(self) -> None:
        grid = _small_grid()
        serial = run_sweep(grid)
        parallel = run_sweep(grid, workers=2, chunk_size=4)
        assert parallel == serial

    def test_cache_off_equals_cache_on(self) -> None:
        grid = _small_grid()
        assert run_sweep(grid, use_cache=False) == run_sweep(grid)

    def test_cold_sweep_builds_one_dp_stack_per_cluster(self) -> None:
        # Chunks of 8 points arrive in increasing R; each cluster's DP
        # stack is built once at the grid's largest (R, NS), not regrown
        # per chunk.
        grid = _small_grid(clusters=("sagittaire", "grelon"), scenarios=(3, 5))
        clear_makespan_cache()
        run_sweep(grid, chunk_size=8)
        assert makespan_cache_stats()["dp"] == {
            "hits": grid.size // 8 - 2, "misses": 2, "size": 2,
        }

    def test_summary_wins_include_ties(self) -> None:
        grid = _small_grid()
        summary = run_sweep(grid).summary()
        assert summary["evaluated"] == grid.size
        assert summary["feasible"] + summary["infeasible"] == grid.size
        # every feasible cell awards at least one win
        cells = len(grid.resources)
        assert sum(summary["wins"].values()) >= cells - summary["infeasible"]


class TestResume:
    def test_interrupted_then_resumed_equals_uninterrupted(self, tmp_path) -> None:
        grid = _small_grid()
        journal = tmp_path / "sweep.ndjson"
        uninterrupted = run_sweep(grid)

        partial = run_sweep(
            grid, journal_path=journal, chunk_size=4, max_chunks=2
        )
        assert not partial.complete
        assert len(partial.rows) == 8

        resumed = run_sweep(grid, journal_path=journal, chunk_size=4)
        assert resumed.complete
        assert resumed == uninterrupted

    def test_resume_skips_journaled_points(self, tmp_path) -> None:
        grid = _small_grid()
        journal = tmp_path / "sweep.ndjson"
        run_sweep(grid, journal_path=journal, chunk_size=4, max_chunks=1)
        lines_before = journal.read_text().splitlines()

        run_sweep(grid, journal_path=journal, chunk_size=4, max_chunks=1)
        lines_after = journal.read_text().splitlines()
        # one grid line + one chunk line, then exactly one more chunk
        assert len(lines_before) == 2
        assert len(lines_after) == 3

    def test_torn_final_line_is_discarded(self, tmp_path) -> None:
        grid = _small_grid()
        journal = tmp_path / "sweep.ndjson"
        run_sweep(grid, journal_path=journal, chunk_size=4, max_chunks=2)
        with journal.open("a") as fh:
            fh.write('{"figure": "generic", "library_')  # killed mid-write

        resumed = run_sweep(grid, journal_path=journal, chunk_size=4)
        assert resumed == run_sweep(grid)

    def test_corrupt_middle_line_is_an_error(self, tmp_path) -> None:
        grid = _small_grid()
        journal = tmp_path / "sweep.ndjson"
        run_sweep(grid, journal_path=journal, chunk_size=4, max_chunks=2)
        lines = journal.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match="corrupt sweep journal"):
            run_sweep(grid, journal_path=journal)

    def test_journal_for_different_grid_is_rejected(self, tmp_path) -> None:
        journal = tmp_path / "sweep.ndjson"
        run_sweep(_small_grid(), journal_path=journal, chunk_size=4, max_chunks=1)
        other = _small_grid(scenarios=(7,))
        with pytest.raises(ConfigurationError, match="different grid"):
            run_sweep(other, journal_path=journal)

    def test_no_resume_overwrites_journal(self, tmp_path) -> None:
        journal = tmp_path / "sweep.ndjson"
        run_sweep(_small_grid(), journal_path=journal, chunk_size=4, max_chunks=1)
        other = _small_grid(scenarios=(7,))
        result = run_sweep(other, journal_path=journal, resume=False)
        assert result.complete
        first = json.loads(journal.read_text().splitlines()[0])
        assert first["data"]["data"]["grid"]["scenarios"] == [7]

    def test_empty_journal_starts_fresh(self, tmp_path) -> None:
        journal = tmp_path / "sweep.ndjson"
        journal.write_text("")
        result = run_sweep(_small_grid(), journal_path=journal)
        assert result.complete


class TestCodec:
    def test_round_trip(self) -> None:
        result = run_sweep(_small_grid())
        assert load_result(dump_result(result)) == result

    def test_lazy_registration_on_load(self) -> None:
        # load_result imports the sweep module for the "sweep" tag even
        # in a process that never produced one; simulate via a canned
        # envelope built here (registration already happened on import,
        # so this guards the tag wiring rather than the import hook).
        row = SweepRow(SweepPoint("sagittaire", 20, 5, 6, "basic"), 100.0, "4x5")
        grid = SweepGrid(
            clusters=("sagittaire",), resources=(20,), scenarios=(5,),
            months=(6,), heuristics=("basic",),
        )
        text = dump_result(SweepResult(grid=grid, rows=(row,)))
        restored = load_result(text)
        assert restored.rows[0].makespan == 100.0
