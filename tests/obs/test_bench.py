"""Tests for the continuous-benchmark harness (repro.obs.bench, repro.cli.bench)."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.cli.bench import bench_specs, render_comparison
from repro.exceptions import ConfigurationError
from repro.obs.bench import (
    BENCH_SCHEMA,
    BenchResult,
    BenchSpec,
    baseline_from_results,
    compare_to_baseline,
    inject_slowdown,
    load_baseline,
    load_bench_artifact,
    machine_fingerprint,
    run_bench,
    validate_bench_artifact,
    write_bench_artifact,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _fast_spec(values, *, name="toy", direction="lower", unit="seconds"):
    """A spec whose run() pops scripted measurements."""
    feed = list(values)
    return BenchSpec(
        name, "scripted measurements", unit, direction, lambda: feed.pop(0)
    )


class TestProtocol:
    def test_warmup_then_repetitions(self) -> None:
        calls = []
        spec = BenchSpec(
            "t", "d", "s", "lower", lambda: calls.append(1) or 0.5
        )
        result = run_bench(spec, repetitions=3, warmup=2)
        assert len(calls) == 5  # 2 warmup + 3 measured
        assert result.repetitions == 3 and result.warmup == 2
        assert result.samples == (0.5, 0.5, 0.5)

    def test_median_and_iqr(self) -> None:
        result = run_bench(
            _fast_spec([5.0, 1.0, 3.0, 2.0, 4.0]),
            repetitions=5,
            warmup=0,
        )
        assert result.value == 3.0
        assert result.low == 1.0 and result.high == 5.0
        assert result.p25 == 2.0 and result.p75 == 4.0
        assert result.iqr == 2.0

    def test_spec_defaults_yield_to_caller_overrides(self) -> None:
        spec = BenchSpec(
            "t", "d", "s", "lower", lambda: 1.0, repetitions=7
        )
        assert run_bench(spec).repetitions == 7
        assert run_bench(spec, repetitions=2, warmup=0).repetitions == 2

    def test_rejects_bad_protocol_values(self) -> None:
        spec = _fast_spec([1.0])
        with pytest.raises(ConfigurationError):
            run_bench(spec, repetitions=0)
        with pytest.raises(ConfigurationError):
            run_bench(spec, repetitions=1, warmup=-1)
        with pytest.raises(ConfigurationError):
            BenchSpec("t", "d", "s", "sideways", lambda: 1.0)
        with pytest.raises(ConfigurationError):
            BenchSpec("no spaces", "d", "s", "lower", lambda: 1.0)

    def test_fingerprint_travels_with_the_result(self) -> None:
        result = run_bench(_fast_spec([1.0]), repetitions=1, warmup=0)
        fp = machine_fingerprint()
        assert result.machine["python"] == fp["python"]
        assert result.machine["cpus"] == fp["cpus"]


class TestArtifacts:
    def test_write_validates_and_round_trips(self, tmp_path) -> None:
        result = run_bench(
            _fast_spec([1.0, 2.0, 3.0]), repetitions=3, warmup=0
        )
        path = write_bench_artifact(result, tmp_path)
        assert path.name == "BENCH_toy.json"
        doc = load_bench_artifact(path)
        assert doc["schema"] == BENCH_SCHEMA
        assert doc["value"] == 2.0
        assert doc["samples"] == [1.0, 2.0, 3.0]

    def test_validate_collects_every_defect(self) -> None:
        with pytest.raises(ConfigurationError) as exc:
            validate_bench_artifact({"schema": "nope", "samples": []})
        message = str(exc.value)
        assert "schema" in message and "samples" in message
        assert "direction" in message

    def test_validate_rejects_sample_count_mismatch(self, tmp_path) -> None:
        result = run_bench(_fast_spec([1.0]), repetitions=1, warmup=0)
        doc = result.as_dict()
        doc["repetitions"] = 9
        with pytest.raises(ConfigurationError) as exc:
            validate_bench_artifact(doc)
        assert "repetitions" in str(exc.value)

    def test_load_rejects_non_json(self, tmp_path) -> None:
        path = tmp_path / "BENCH_x.json"
        path.write_text("not json")
        with pytest.raises(ConfigurationError):
            load_bench_artifact(path)

    @pytest.mark.parametrize(
        "committed, loader",
        [
            ("BENCH_arena.json", load_bench_artifact),
            ("BENCH_campaign.json", load_bench_artifact),
            ("BENCH_sweep.json", load_bench_artifact),
            ("benchmarks/baseline.json", load_baseline),
        ],
    )
    def test_truncation_at_any_byte_is_a_typed_error(
        self, tmp_path, committed, loader
    ) -> None:
        # Only the cut that drops just the trailing newline still loads;
        # every shorter prefix is refused with ConfigurationError.
        data = (REPO_ROOT / committed).read_bytes()
        assert data.endswith(b"\n")
        path = tmp_path / "cut.json"
        loaded = []
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            try:
                loader(path)
            except ConfigurationError:
                continue
            loaded.append(cut)
        assert loaded == [len(data) - 1]


class TestComparator:
    def _results(self):
        lower = run_bench(_fast_spec([10.0]), repetitions=1, warmup=0)
        higher = run_bench(
            _fast_spec([100.0], name="thru", direction="higher", unit="ops"),
            repetitions=1,
            warmup=0,
        )
        return lower, higher

    def test_identical_results_do_not_regress(self) -> None:
        lower, higher = self._results()
        baseline = baseline_from_results([lower, higher])
        rows = compare_to_baseline([lower, higher], baseline)
        assert all(row.ratio == 1.0 for row in rows)
        assert not any(row.regressed for row in rows)

    def test_adverse_drift_is_direction_aware(self) -> None:
        lower, higher = self._results()
        baseline = baseline_from_results([lower, higher])
        slow = inject_slowdown(lower, 2.0)
        starved = inject_slowdown(higher, 2.0)
        rows = compare_to_baseline(
            [slow, starved], baseline, max_regression_pct=50.0
        )
        assert slow.value == 20.0  # latency doubled
        assert starved.value == 50.0  # throughput halved
        assert [row.ratio for row in rows] == [2.0, 2.0]
        assert all(row.regressed for row in rows)

    def test_improvement_never_flags(self) -> None:
        lower, higher = self._results()
        baseline = baseline_from_results([lower, higher])
        fast = inject_slowdown(lower, 0.5)  # factor < 1 = speedup
        rows = compare_to_baseline([fast], baseline)
        assert rows[0].ratio == 0.5 and not rows[0].regressed

    def test_budget_comes_from_the_baseline_file(self) -> None:
        lower, _ = self._results()
        baseline = baseline_from_results([lower], max_regression_pct=10.0)
        barely = inject_slowdown(lower, 1.2)  # +20% adverse
        assert compare_to_baseline([barely], baseline)[0].regressed
        assert not compare_to_baseline(
            [barely], baseline, max_regression_pct=30.0
        )[0].regressed

    def test_missing_entry_is_reported_unflagged(self) -> None:
        lower, higher = self._results()
        baseline = baseline_from_results([lower])
        rows = compare_to_baseline([higher], baseline)
        assert rows[0].baseline is None and not rows[0].regressed
        assert "no baseline" in render_comparison(rows)

    def test_load_baseline_validates(self, tmp_path) -> None:
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"schema": "wrong"}))
        with pytest.raises(ConfigurationError):
            load_baseline(path)
        path.write_text(
            json.dumps(
                {
                    "schema": "repro.bench-baseline/1",
                    "benchmarks": {"x": {"value": "NaNish"}},
                }
            )
        )
        with pytest.raises(ConfigurationError):
            load_baseline(path)

    def test_render_comparison_is_a_table(self) -> None:
        lower, _ = self._results()
        baseline = baseline_from_results([lower])
        text = render_comparison(compare_to_baseline([lower], baseline))
        assert "benchmark" in text and "standing" in text
        assert "toy" in text


class TestRegistry:
    def test_quick_tier_names_and_directions(self) -> None:
        specs = bench_specs()
        assert [spec.name for spec in specs] == [
            "sweep",
            "kernel",
            "kernels",
            "simulate",
            "campaign",
            "service",
            "arena",
            "lint",
        ]
        directions = {spec.name: spec.direction for spec in specs}
        assert directions["sweep"] == "higher"
        assert directions["kernel"] == "lower"
        assert directions["kernels"] == "higher"
        assert directions["service"] == "higher"
        assert directions["arena"] == "lower"
        assert directions["lint"] == "lower"

    def test_committed_baseline_covers_the_quick_tier(self) -> None:
        baseline = load_baseline("benchmarks/baseline.json")
        assert set(baseline["benchmarks"]) == {
            spec.name for spec in bench_specs()
        }
        for spec in bench_specs():
            entry = baseline["benchmarks"][spec.name]
            assert entry["direction"] == spec.direction
            assert entry["unit"] == spec.unit


def _artifact_result(path: Path) -> BenchResult:
    """The :class:`BenchResult` a schema-validated artifact was written from."""
    doc = load_bench_artifact(path)
    result = BenchResult(
        name=doc["name"], unit=doc["unit"], direction=doc["direction"],
        value=doc["value"], p25=doc["p25"], p75=doc["p75"],
        low=doc["min"], high=doc["max"], mean=doc["mean"],
        samples=tuple(doc["samples"]), repetitions=doc["repetitions"],
        warmup=doc["warmup"], seed=doc["seed"], machine=doc["machine"],
        library_version=doc["library_version"], unix_time=doc["unix_time"],
    )
    assert result.as_dict() == doc
    return result


class TestBenchCli:
    def test_cli_writes_artifacts_and_gates(
        self, tmp_path, capsys, monkeypatch
    ) -> None:
        out = tmp_path / "artifacts"
        baseline = tmp_path / "baseline.json"
        # ISSUE acceptance: --quick writes >= 3 schema-validated
        # artifacts; a synthetic 2x slowdown vs baseline exits non-zero.
        base_args = [
            "bench",
            "simulate",
            "kernel",
            "campaign",
            "--quick",
            "--out",
            str(out),
            "--baseline",
            str(baseline),
        ]
        assert main([*base_args, "--update-baseline"]) == 0
        artifacts = sorted(out.glob("BENCH_*.json"))
        assert len(artifacts) >= 3
        # Load (schema-validated) and re-gate the artifacts just written
        # against the baseline they produced: deterministic, where a
        # second measurement is not.
        results = [_artifact_result(path) for path in artifacts]
        rows = compare_to_baseline(results, load_baseline(baseline))
        assert [row.ratio for row in rows] == [1.0] * len(artifacts)
        assert not any(row.regressed for row in rows)
        # The gate leg re-measures nothing: each spec reports its
        # baseline value, so the injected 2x is exactly 2x against the
        # default 50% budget, whatever the host's speed in between.
        pinned = {result.name: result.value for result in results}
        specs = bench_specs()
        monkeypatch.setattr(
            "repro.cli.bench.bench_specs",
            lambda: tuple(
                replace(spec, run=lambda value=pinned.get(spec.name): value)
                for spec in specs
            ),
        )
        assert main([*base_args, "--inject-slowdown", "2"]) == 2
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out

    def test_cli_lists_and_rejects_unknown(self, capsys) -> None:
        assert main(["bench", "--list"]) == 0
        assert "sweep" in capsys.readouterr().out
        assert main(["bench", "warp-drive", "--quick"]) == 1
        assert "unknown benchmark" in capsys.readouterr().err

    def test_cli_skips_comparison_without_baseline(
        self, tmp_path, capsys
    ) -> None:
        code = main(
            [
                "bench",
                "simulate",
                "--quick",
                "--out",
                str(tmp_path / "a"),
                "--baseline",
                str(tmp_path / "missing.json"),
            ]
        )
        assert code == 0
        assert "comparison skipped" in capsys.readouterr().out
