"""Tests for the self-contained HTML run reports (repro.analysis.runreport)."""

from __future__ import annotations

import json
import re

import pytest

from repro import obs
from repro.analysis.runreport import (
    render_run_report,
    report_for_journal,
    report_for_run,
)
from repro.cli import main
from repro.exceptions import ConfigurationError
from repro.experiments.results_io import load_result
from repro.experiments.sweep import SweepGrid, run_sweep
from repro.schedulers.arena import run_arena
from repro.service.store import RunStore
from repro.service.workers import execute_job

FAULTS_PARAMS = {
    "clusters": 3,
    "resources": 30,
    "scenarios": 6,
    "months": 6,
    "seed": 7,
}
CAMPAIGN_PARAMS = {
    "clusters": 2,
    "resources": 25,
    "scenarios": 3,
    "months": 2,
}
GRID_RUNS = {
    "sweep": (
        run_sweep,
        {"r_min": 11, "r_max": 19, "step": 4, "scenarios": [4], "months": [4]},
    ),
    "arena": (
        run_arena,
        {
            "preset": "fig7", "schedulers": ["basic", "knapsack"],
            "fault_seeds": [3], "r_min": 11, "r_max": 17, "step": 3,
            "scenarios": 4, "months": 4,
        },
    ),
}


def _stored_run(db_path, kind, params, trace_id="feedc0de00000000"):
    """Execute one job synchronously and persist it like the queue would."""
    with RunStore(db_path) as store:
        run_id = store.submit(kind, params, trace_id=trace_id)
        record = store.claim_next()
        store.mark_done(run_id, execute_job(record.kind, record.params))
    return run_id


def _sections(html: str) -> list[tuple[str, str]]:
    """A report's ``(heading, content)`` sections, in order."""
    return re.findall(r"<h2>(.*?)</h2>\n(.*?)(?=\n<h2>|\n</body>)", html, re.S)


def _assert_self_contained(html: str) -> None:
    """No scripts, no external fetches — the report must stand alone."""
    assert html.startswith("<!DOCTYPE html>")
    assert "<script" not in html
    assert "<link" not in html
    assert 'src="http' not in html and "url(" not in html
    # The only allowed absolute URL is the SVG xml namespace.
    stripped = html.replace("http://www.w3.org/2000/svg", "")
    assert "http://" not in stripped and "https://" not in stripped


class TestFaultsReport:
    def test_fault_campaign_renders_all_sections(self, tmp_path) -> None:
        # ISSUE acceptance: a fault-injected campaign produces one
        # self-contained HTML file with Gantt, fault timeline, and
        # queue-latency histogram.
        db = tmp_path / "runs.db"
        run_id = _stored_run(db, "faults", FAULTS_PARAMS)
        html = report_for_run(db, run_id)
        _assert_self_contained(html)
        assert "Fault and replan timeline" in html
        assert "Queue latency" in html
        assert "<svg" in html
        assert "feedc0de00000000" in html  # trace id on the run table
        assert "fault-free makespan" in html

    def test_fault_gantt_has_cluster_lanes_and_fault_bars(
        self, tmp_path
    ) -> None:
        db = tmp_path / "runs.db"
        run_id = _stored_run(db, "faults", FAULTS_PARAMS)
        with RunStore(db) as store:
            data = json.loads(store.get(run_id).result)["data"]["data"]
        assert data["trace"], "seeded trace should inject at least one fault"
        html = report_for_run(db, run_id)
        for event in data["trace"]:
            assert event["cluster"] in html
        # The legend names the fault kinds present in the trace.
        kinds = {event["kind"] for event in data["trace"]}
        for kind in kinds:
            assert kind in html


class TestCampaignReport:
    def test_campaign_gantt_and_utilization(self, tmp_path) -> None:
        db = tmp_path / "runs.db"
        run_id = _stored_run(db, "campaign", CAMPAIGN_PARAMS)
        html = report_for_run(db, run_id)
        _assert_self_contained(html)
        assert "Campaign Gantt and per-cluster utilization" in html
        assert "achieved makespan" in html
        assert "%" in html  # utilization column

    def test_metrics_dump_adds_cache_section(self, tmp_path) -> None:
        db = tmp_path / "runs.db"
        run_id = _stored_run(db, "campaign", CAMPAIGN_PARAMS)
        with obs.session(fresh=True) as (registry, _tracer):
            obs.inc("makespan.cache", 9, kind="simulated", outcome="hit")
            obs.inc("makespan.cache", 1, kind="simulated", outcome="miss")
            dump = registry.as_dict()
        metrics = tmp_path / "m.json"
        metrics.write_text(json.dumps(dump))
        html = report_for_run(db, run_id, metrics_path=metrics)
        assert "Makespan-cache hit rates" in html
        assert "90.0%" in html

    def test_trace_file_adds_span_section(self, tmp_path) -> None:
        db = tmp_path / "runs.db"
        run_id = _stored_run(db, "campaign", CAMPAIGN_PARAMS)
        with obs.session(fresh=True) as (_registry, tracer):
            with obs.span("campaign", trace_id="feedc0de00000000"):
                pass
            with obs.span("campaign", trace_id="othertrace000000"):
                pass
            trace = tmp_path / "t.json"
            trace.write_text(tracer.to_chrome_json())
        html = report_for_run(db, run_id, trace_path=trace)
        assert "Trace spans" in html
        # Only the run's own trace id is counted.
        assert "1 span(s)" in html

    def test_sleep_run_still_reports(self, tmp_path) -> None:
        db = tmp_path / "runs.db"
        run_id = _stored_run(db, "sleep", {"seconds": 0})
        html = report_for_run(db, run_id)
        _assert_self_contained(html)
        assert run_id[:12] in html


class TestJournalReport:
    def test_sweep_journal_report(self, tmp_path) -> None:
        journal = tmp_path / "sweep.ndjson"
        grid = SweepGrid.from_ranges(
            r_min=11, r_max=25, step=1, scenarios=(6,), months=(6,)
        )
        run_sweep(grid, journal_path=journal)
        html = report_for_journal(journal)
        _assert_self_contained(html)
        assert "Makespan vs resources" in html
        assert "Makespan distribution" in html
        assert "Best points" in html

    def test_empty_journal_rejected(self, tmp_path) -> None:
        journal = tmp_path / "empty.ndjson"
        journal.write_text("")
        with pytest.raises(ConfigurationError):
            report_for_journal(journal)

    @pytest.mark.parametrize(
        ("edit", "error"),
        [
            (
                lambda line: line.replace('"cluster": ', '"site": ', 1),
                "line 2 holds a malformed row",
            ),
            (
                lambda line: line.replace('"sweep-rows"', '"arena-rows"'),
                "line 2 has unexpected kind",
            ),
        ],
        ids=["malformed-row", "foreign-kind"],
    )
    def test_corrupt_line_names_its_line(self, edit, error, tmp_path) -> None:
        journal = tmp_path / "sweep.ndjson"
        grid = SweepGrid.from_ranges(
            r_min=11, r_max=11, scenarios=(4,), months=(4,)
        )
        run_sweep(grid, journal_path=journal, chunk_size=2)
        lines = journal.read_text().splitlines(keepends=True)
        assert len(lines) >= 3
        lines[1] = edit(lines[1])
        journal.write_text("".join(lines))
        with pytest.raises(ConfigurationError, match=error):
            report_for_journal(journal)

    def test_non_sweep_file_rejected(self, tmp_path) -> None:
        bogus = tmp_path / "bogus.ndjson"
        bogus.write_text('{"figure": "generic"}\n')
        with pytest.raises(ConfigurationError):
            report_for_journal(bogus)


class TestGridRunReport:
    """A stored sweep or race renders the sections of its journal."""

    def test_stored_sweep_run_charts_makespan(self, tmp_path) -> None:
        db = tmp_path / "runs.db"
        run_id = _stored_run(db, "sweep", GRID_RUNS["sweep"][1])
        html = report_for_run(db, run_id)
        _assert_self_contained(html)
        assert "Makespan vs resources" in html
        assert "Best points" in html

    @pytest.mark.parametrize("kind", sorted(GRID_RUNS))
    def test_stored_run_carries_its_journal_sections(self, kind, tmp_path) -> None:
        run, params = GRID_RUNS[kind]
        db = tmp_path / "runs.db"
        run_id = _stored_run(db, kind, params)
        with RunStore(db) as store:
            stored = load_result(store.get(run_id).result)
        journal = tmp_path / f"{kind}.ndjson"
        assert run(stored.grid, journal_path=journal, chunk_size=3) == stored
        from_journal = _sections(report_for_journal(journal))
        from_store = [
            section
            for section in _sections(report_for_run(db, run_id))
            if section[0] not in ("Run", "Queue latency")
        ]
        assert "Makespan vs resources" in [heading for heading, _ in from_journal]
        assert from_store == from_journal


class TestRenderAssembler:
    def test_needs_a_section(self) -> None:
        with pytest.raises(ConfigurationError):
            render_run_report("empty", [])

    def test_escapes_untrusted_text(self) -> None:
        html = render_run_report(
            "<script>alert(1)</script>",
            [("Section <b>", "<p>safe</p>")],
        )
        assert "<script>" not in html
        assert "&lt;script&gt;" in html


class TestReportCli:
    def test_cli_run_report_to_file(self, tmp_path, capsys) -> None:
        db = tmp_path / "runs.db"
        run_id = _stored_run(db, "faults", FAULTS_PARAMS)
        out = tmp_path / "run.html"
        code = main(
            [
                "report",
                run_id,
                "--db",
                str(db),
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert "run report written" in capsys.readouterr().out
        _assert_self_contained(out.read_text())

    def test_cli_journal_report_to_stdout(self, tmp_path, capsys) -> None:
        journal = tmp_path / "sweep.ndjson"
        grid = SweepGrid.from_ranges(
            r_min=11, r_max=16, step=1, scenarios=(4,), months=(4,)
        )
        run_sweep(grid, journal_path=journal)
        assert main(["report", str(journal)]) == 0
        assert "<!DOCTYPE html>" in capsys.readouterr().out
