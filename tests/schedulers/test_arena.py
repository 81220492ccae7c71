"""Tests for the scheduler arena.

The load-bearing property is the same one the sweep engine carries:
a race killed mid-grid and resumed must equal an uninterrupted run row
for row.  On top of that, the arena adds the competition semantics —
gains over basic, win matrices, fault traces shared within a cell —
which the tests here pin down on small grids.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.core.makespan import clear_makespan_cache, makespan_cache_stats
from repro.exceptions import ConfigurationError, ServiceError
from repro.experiments.results_io import dump_result, load_result
from repro.schedulers import PAPER_SCHEDULERS, list_schedulers
from repro.schedulers.arena import (
    ARENA_PRESETS,
    ArenaGrid,
    ArenaPoint,
    ArenaResult,
    ArenaRow,
    fault_label,
    run_arena,
)


def _small_grid(**overrides) -> ArenaGrid:
    params = dict(
        clusters=("sagittaire",),
        resources=(11, 15, 20),
        scenarios=(5,),
        months=(6,),
        faults=("none", "seed-7"),
        schedulers=("basic", "knapsack", "local-search"),
    )
    params.update(overrides)
    return ArenaGrid(**{k: tuple(v) if isinstance(v, list) else v
                        for k, v in params.items()})


class TestGrid:
    def test_size_and_point_order(self) -> None:
        grid = _small_grid()
        points = grid.points()
        assert len(points) == grid.size == 3 * 2 * 3
        # scheduler is the innermost axis: consecutive points share a cell
        assert points[0].cell() == points[1].cell()
        assert points[0].scheduler != points[1].scheduler

    def test_rejects_empty_axis(self) -> None:
        with pytest.raises(ConfigurationError, match="empty"):
            _small_grid(schedulers=())

    def test_rejects_unknown_scheduler(self) -> None:
        with pytest.raises(ConfigurationError, match="unknown scheduler"):
            _small_grid(schedulers=("basic", "magic"))

    def test_rejects_bad_fault_label(self) -> None:
        with pytest.raises(ConfigurationError, match="fault label"):
            _small_grid(faults=("sometimes",))
        with pytest.raises(ConfigurationError, match="fault label"):
            _small_grid(faults=("seed-x",))

    def test_rejects_non_positive_resources(self) -> None:
        with pytest.raises(ConfigurationError, match="resources"):
            _small_grid(resources=(0,))

    def test_rejects_bad_chaos_stats(self) -> None:
        with pytest.raises(ConfigurationError, match="mtbf"):
            _small_grid(mtbf_hours=0.0)

    def test_dict_round_trip(self) -> None:
        grid = _small_grid(seed=3, mtbf_hours=2.0, mttr_hours=0.5)
        assert ArenaGrid.from_dict(grid.as_dict()) == grid

    def test_fault_label_round_trip(self) -> None:
        assert fault_label(42) == "seed-42"

    def test_presets_cover_the_figures(self) -> None:
        assert set(ARENA_PRESETS) == {"fig7", "fig8", "fig10"}

    def test_from_preset_shapes_fig7(self) -> None:
        grid = ArenaGrid.from_preset("fig7", fault_seeds=(7,))
        assert grid.clusters == ("sagittaire",)
        assert grid.resources[0] == 11 and grid.resources[-1] == 60
        assert grid.scenarios == (10,) and grid.months == (12,)
        assert grid.faults == ("none", "seed-7")
        assert grid.schedulers == list_schedulers()

    def test_from_preset_overrides(self) -> None:
        grid = ArenaGrid.from_preset(
            "fig8", schedulers=("basic",), r_min=11, r_max=19, step=4,
            scenarios=4, months=3, include_fault_free=False, fault_seeds=(1,),
        )
        assert grid.resources == (11, 15, 19)
        assert grid.scenarios == (4,) and grid.months == (3,)
        assert grid.faults == ("seed-1",)

    def test_from_preset_needs_a_fault_axis(self) -> None:
        with pytest.raises(ConfigurationError, match="fault axis"):
            ArenaGrid.from_preset("fig7", include_fault_free=False)

    def test_from_preset_unknown(self) -> None:
        with pytest.raises(ConfigurationError, match="preset"):
            ArenaGrid.from_preset("fig99")


class TestRunArena:
    def test_complete_run_covers_every_point(self) -> None:
        grid = _small_grid()
        result = run_arena(grid)
        assert result.complete
        assert [row.point for row in result.rows] == grid.points()
        assert all(
            row.makespan is None or row.makespan > 0 for row in result.rows
        )

    def test_fault_free_rows_always_complete(self) -> None:
        result = run_arena(_small_grid(faults=("none",)))
        assert all(row.completed for row in result.rows if row.makespan)

    def test_infeasible_points_recorded_not_dropped(self) -> None:
        # R=3 cannot host any main-task group (minimum size is 4)
        grid = _small_grid(resources=(3,), faults=("none",))
        result = run_arena(grid)
        assert result.complete
        assert all(row.makespan is None for row in result.rows)
        assert result.summary()["feasible"] == 0

    def test_cell_shares_one_fault_trace(self) -> None:
        # Under identical weather, a scheduler producing the identical
        # grouping must land the identical (makespan, completed) row —
        # proven with a registered clone of knapsack.
        from repro.core.heuristics import plan_grouping
        from repro.schedulers import Scheduler, base, register_scheduler

        @register_scheduler
        class KnapsackClone(Scheduler):
            name = "test-knapsack-clone"
            description = "knapsack under an assumed name"

            def plan(self, cluster, spec):
                return plan_grouping(cluster, spec, "knapsack")

        try:
            result = run_arena(
                _small_grid(
                    resources=(20,),
                    faults=("seed-3",),
                    schedulers=("knapsack", "test-knapsack-clone"),
                )
            )
        finally:
            del base._REGISTRY["test-knapsack-clone"]
        by_scheduler = result.cells()[("sagittaire", 20, 5, 6, "seed-3")]
        knap = by_scheduler["knapsack"]
        clone = by_scheduler["test-knapsack-clone"]
        assert knap.grouping == clone.grouping
        assert knap.makespan == clone.makespan
        assert knap.completed == clone.completed

    def test_parallel_equals_serial(self) -> None:
        grid = _small_grid()
        assert run_arena(grid, workers=2, chunk_size=4) == run_arena(grid)

    def test_cache_off_equals_cache_on(self) -> None:
        grid = _small_grid()
        assert run_arena(grid, use_cache=False) == run_arena(grid)

    def test_same_seed_same_race(self) -> None:
        grid = _small_grid(seed=11)
        assert run_arena(grid) == run_arena(grid)

    def test_latency_sink_collects_fresh_points_only(self, tmp_path) -> None:
        grid = _small_grid()
        journal = tmp_path / "arena.ndjson"
        sink: dict[str, list[float]] = {}
        run_arena(grid, journal_path=journal, latency_sink=sink)
        assert set(sink) == set(grid.schedulers)
        per_scheduler = grid.size // len(grid.schedulers)
        assert all(len(v) == per_scheduler for v in sink.values())
        assert all(t >= 0 for v in sink.values() for t in v)

        resumed_sink: dict[str, list[float]] = {}
        run_arena(grid, journal_path=journal, latency_sink=resumed_sink)
        assert resumed_sink == {}  # everything came from the journal

        # A point reusing its cell's decision reports that decision's
        # sample: the first fault label decides, the others repeat it.
        for name, samples in sink.items():
            points = [p for p in grid.points() if p.scheduler == name]
            assert len(samples) == len(points)  # one sample per point
            decided: dict[tuple, float] = {}
            for point, sample in zip(points, samples, strict=True):
                cell = (point.cluster, point.resources, point.scenarios,
                        point.months)
                assert decided.setdefault(cell, sample) == sample


def _count_decisions(monkeypatch) -> list[tuple]:
    """Record ``(scheduler, cluster, R, NS, NM)`` per ``Scheduler.decide`` call."""
    from repro.schedulers.base import Scheduler

    calls: list[tuple] = []
    original = Scheduler.decide

    def counting(self, cluster, spec):
        calls.append((self.name, cluster.name, cluster.resources,
                      spec.scenarios, spec.months))
        return original(self, cluster, spec)

    monkeypatch.setattr(Scheduler, "decide", counting)
    return calls


def _decision_cells(grid: ArenaGrid) -> set[tuple]:
    return {
        (p.scheduler, p.cluster, p.resources, p.scenarios, p.months)
        for p in grid.points()
    }


class TestDecisionMemo:
    """A scheduler decides once per cell; every fault label reuses it."""

    def test_serial_race_decides_once_per_cell(self, monkeypatch) -> None:
        grid = _small_grid()
        assert len(grid.faults) >= 2
        clear_makespan_cache()
        calls = _count_decisions(monkeypatch)
        run_arena(grid)
        assert Counter(calls) == Counter(_decision_cells(grid))

    def test_cache_off_decides_every_point(self, monkeypatch) -> None:
        grid = _small_grid()
        calls = _count_decisions(monkeypatch)
        run_arena(grid, use_cache=False)
        assert len(calls) == grid.size
        assert set(Counter(calls).values()) == {len(grid.faults)}

    def test_memoized_rows_equal_fresh_rows(self) -> None:
        grid = _small_grid()
        fresh = run_arena(grid, use_cache=False)
        clear_makespan_cache()
        assert run_arena(grid, workers=2, chunk_size=4) == fresh
        clear_makespan_cache()
        assert run_arena(grid) == fresh

    def test_cold_cache_stats_count_decisions(self) -> None:
        grid = _small_grid()
        clear_makespan_cache()
        run_arena(grid)
        decisions = len(_decision_cells(grid))
        assert makespan_cache_stats()["decision"] == {
            "hits": grid.size - decisions,
            "misses": decisions,
            "size": decisions,
        }
        clear_makespan_cache()
        assert makespan_cache_stats()["decision"] == {
            "hits": 0, "misses": 0, "size": 0,
        }

    def test_infeasible_cell_is_decided_once(self, monkeypatch) -> None:
        # R=3 is below every scheduler's minimum group of 4.
        grid = _small_grid(resources=(3,))
        clear_makespan_cache()
        calls = _count_decisions(monkeypatch)
        result = run_arena(grid)
        assert Counter(calls) == Counter(_decision_cells(grid))
        assert all(
            row == ArenaRow(row.point, None, "", False) for row in result.rows
        )
        assert makespan_cache_stats()["decision"]["hits"] == (
            grid.size - len(calls)
        )


class TestDpStack:
    """Each cluster's knapsack ``dp`` stack is built once per race."""

    @staticmethod
    def _count_builds(monkeypatch) -> list[tuple[int, int]]:
        from repro.knapsack.dp import _DpLayers

        builds: list[tuple[int, int]] = []
        init = _DpLayers.__init__

        def counting_init(self, items, capacity, max_items):
            builds.append((capacity, max_items))
            init(self, items, capacity, max_items)

        monkeypatch.setattr(_DpLayers, "__init__", counting_init)
        return builds

    def test_one_build_per_cluster_at_the_grid_ceiling(self, monkeypatch) -> None:
        # Cells arrive in increasing R, and each chunk holds a few of
        # them; without the ceiling the stack regrows at every R.
        grid = _small_grid(
            clusters=("sagittaire", "grelon"),
            resources=(11, 15, 20, 27),
            scenarios=(3, 5),
            schedulers=("basic", "knapsack", "online-knapsack", "local-search"),
        )
        clear_makespan_cache()
        builds = self._count_builds(monkeypatch)
        result = run_arena(grid, chunk_size=4)
        assert builds == [(27, 5), (27, 5)]
        clear_makespan_cache()
        assert run_arena(grid, use_cache=False) == result

    def test_grid_without_knapsack_family_builds_nothing(self, monkeypatch) -> None:
        grid = _small_grid(schedulers=("basic", "reservation", "online-greedy"))
        clear_makespan_cache()
        builds = self._count_builds(monkeypatch)
        run_arena(grid)
        assert builds == []


class TestStandings:
    def test_gain_rows_omit_the_baseline(self) -> None:
        # gains_over_baseline drops the baseline entry (its gain is 0
        # by definition); every competitor gets a score.
        result = run_arena(_small_grid(faults=("none",)))
        gains = result.gain_rows()
        assert gains  # feasible cells exist
        for cell_gains in gains.values():
            assert set(cell_gains) == {"knapsack", "local-search"}

    def test_local_search_never_loses_to_its_knapsack_start(self) -> None:
        # The refiner starts from knapsack's partition and only accepts
        # strict improvements, so fault-free it can never score worse.
        result = run_arena(_small_grid(faults=("none",)))
        for cell_gains in result.gain_rows().values():
            assert cell_gains["local-search"] >= cell_gains["knapsack"]

    def test_gain_rows_skip_cells_without_baseline(self) -> None:
        result = run_arena(
            _small_grid(schedulers=("knapsack",), faults=("none",))
        )
        assert result.gain_rows() == {}

    def test_win_matrix_is_antisymmetric(self) -> None:
        result = run_arena(_small_grid())
        matrix = result.win_matrix()
        cells = len(result.cells())
        for a in matrix:
            for b, wins in matrix[a].items():
                assert 0 <= wins + matrix[b][a] <= cells

    def test_summary_counts_add_up(self) -> None:
        grid = _small_grid()
        summary = run_arena(grid).summary()
        assert summary["points"] == summary["evaluated"] == grid.size
        assert summary["feasible"] == summary["completed"] + summary["crashed"]
        assert set(summary["wins"]) == set(grid.schedulers)

    def test_mean_gains_cover_competitors(self) -> None:
        result = run_arena(_small_grid(faults=("none",)))
        means = result.mean_gains()
        assert set(means) == {"knapsack", "local-search"}


class TestResume:
    def test_interrupted_then_resumed_equals_uninterrupted(self, tmp_path) -> None:
        grid = _small_grid()
        journal = tmp_path / "arena.ndjson"
        uninterrupted = run_arena(grid)

        partial = run_arena(
            grid, journal_path=journal, chunk_size=4, max_chunks=2
        )
        assert not partial.complete
        assert len(partial.rows) == 8

        resumed = run_arena(grid, journal_path=journal, chunk_size=4)
        assert resumed.complete
        assert resumed == uninterrupted

    def test_resume_skips_journaled_points(self, tmp_path) -> None:
        grid = _small_grid()
        journal = tmp_path / "arena.ndjson"
        run_arena(grid, journal_path=journal, chunk_size=4, max_chunks=1)
        lines_before = journal.read_text().splitlines()

        run_arena(grid, journal_path=journal, chunk_size=4, max_chunks=1)
        lines_after = journal.read_text().splitlines()
        assert len(lines_before) == 2  # grid line + one chunk
        assert len(lines_after) == 3  # exactly one more chunk

    def test_rows_carry_no_timings(self, tmp_path) -> None:
        journal = tmp_path / "arena.ndjson"
        run_arena(_small_grid(), journal_path=journal, chunk_size=4,
                  max_chunks=1)
        chunk = json.loads(journal.read_text().splitlines()[1])
        row_keys = set(chunk["data"]["data"]["rows"][0])
        assert row_keys == {
            "cluster", "resources", "scenarios", "months",
            "fault", "scheduler", "makespan", "grouping", "completed",
        }

    def test_torn_final_line_is_discarded(self, tmp_path) -> None:
        grid = _small_grid()
        journal = tmp_path / "arena.ndjson"
        run_arena(grid, journal_path=journal, chunk_size=4, max_chunks=2)
        with journal.open("a") as fh:
            fh.write('{"figure": "generic", "library_')  # killed mid-write

        resumed = run_arena(grid, journal_path=journal, chunk_size=4)
        assert resumed == run_arena(grid)

    def test_corrupt_middle_line_is_an_error(self, tmp_path) -> None:
        grid = _small_grid()
        journal = tmp_path / "arena.ndjson"
        run_arena(grid, journal_path=journal, chunk_size=4, max_chunks=2)
        lines = journal.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match="corrupt arena journal"):
            run_arena(grid, journal_path=journal)

    def test_journal_for_different_race_is_rejected(self, tmp_path) -> None:
        journal = tmp_path / "arena.ndjson"
        run_arena(_small_grid(), journal_path=journal, chunk_size=4,
                  max_chunks=1)
        for other in (
            _small_grid(scenarios=(7,)),
            _small_grid(seed=5),
            _small_grid(mtbf_hours=3.0),
        ):
            with pytest.raises(ConfigurationError, match="different race"):
                run_arena(other, journal_path=journal)

    def test_no_resume_overwrites_journal(self, tmp_path) -> None:
        journal = tmp_path / "arena.ndjson"
        run_arena(_small_grid(), journal_path=journal, chunk_size=4,
                  max_chunks=1)
        other = _small_grid(scenarios=(7,))
        result = run_arena(other, journal_path=journal, resume=False)
        assert result.complete
        first = json.loads(journal.read_text().splitlines()[0])
        assert first["data"]["data"]["grid"]["scenarios"] == [7]

    def test_empty_journal_starts_fresh(self, tmp_path) -> None:
        journal = tmp_path / "arena.ndjson"
        journal.write_text("")
        assert run_arena(_small_grid(), journal_path=journal).complete


class TestCodec:
    def test_round_trip(self) -> None:
        result = run_arena(_small_grid())
        assert load_result(dump_result(result)) == result

    def test_canned_envelope_restores(self) -> None:
        row = ArenaRow(
            ArenaPoint("sagittaire", 20, 5, 6, "none", "basic"),
            100.0, "4x5 | post=0 | idle=0", True,
        )
        grid = _small_grid(
            resources=(20,), faults=("none",), schedulers=("basic",)
        )
        restored = load_result(
            dump_result(ArenaResult(grid=grid, rows=(row,)))
        )
        assert restored.rows[0].makespan == 100.0
        assert restored.rows[0].point.fault == "none"


class TestServiceJob:
    def test_defaults_filled_in(self) -> None:
        from repro.service.workers import validate_job

        from repro.schedulers import list_schedulers

        clean = validate_job("arena", {})
        assert clean["preset"] == "fig7"
        assert clean["schedulers"] == list(list_schedulers())
        assert clean["include_fault_free"] is True
        assert clean["workers"] == 0
        assert clean["r_min"] is None and clean["r_max"] is None

    def test_rejects_unknown_preset(self) -> None:
        from repro.service.workers import validate_job

        with pytest.raises(ServiceError) as exc:
            validate_job("arena", {"preset": "fig99"})
        assert exc.value.code == "bad-params"

    def test_rejects_unknown_scheduler(self) -> None:
        from repro.service.workers import validate_job

        with pytest.raises(ServiceError) as exc:
            validate_job("arena", {"schedulers": ["magic"]})
        assert exc.value.code == "bad-params"

    def test_rejects_empty_fault_axis(self) -> None:
        from repro.service.workers import validate_job

        with pytest.raises(ServiceError) as exc:
            validate_job(
                "arena", {"include_fault_free": False, "fault_seeds": []}
            )
        assert exc.value.code == "bad-params"

    def test_round_trip(self) -> None:
        from repro.service.workers import execute_job, validate_job

        params = validate_job(
            "arena",
            {
                "preset": "fig7", "r_min": 11, "r_max": 14,
                "schedulers": ["basic", "knapsack"],
                "scenarios": 4, "months": 3, "fault_seeds": [3],
            },
        )
        result = load_result(execute_job("arena", params))
        assert isinstance(result, ArenaResult)
        assert result.complete
        assert result.grid.schedulers == ("basic", "knapsack")
        assert result.grid.faults == ("none", "seed-3")

    def test_arena_kind_is_listed(self) -> None:
        from repro.service.workers import job_kinds

        assert "arena" in {k.name for k in job_kinds()}


class TestPaperAdapterParity:
    def test_arena_rows_match_plan_grouping_makespans(self) -> None:
        # The paper's four heuristics raced through the arena must score
        # exactly what the figure drivers would compute for them.
        from repro.core.heuristics import plan_grouping
        from repro.core.makespan import cached_simulated_makespan
        from repro.exceptions import SchedulingError
        from repro.platform.benchmarks import benchmark_cluster
        from repro.workflow.ocean_atmosphere import EnsembleSpec

        grid = _small_grid(
            resources=(11, 20, 26), faults=("none",),
            schedulers=PAPER_SCHEDULERS,
        )
        result = run_arena(grid)
        spec = EnsembleSpec(5, 6)
        for row in result.rows:
            cluster = benchmark_cluster(row.point.cluster, row.point.resources)
            try:
                grouping = plan_grouping(cluster, spec, row.point.scheduler)
            except SchedulingError:
                assert row.makespan is None
                continue
            expected = cached_simulated_makespan(grouping, spec, cluster.timing)
            assert row.makespan == expected
            assert row.grouping == grouping.describe()
