"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


def _run(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestParser:
    def test_requires_a_command(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys) -> None:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_rejects_unknown_heuristic(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--heuristic", "magic"])


class TestCommands:
    def test_info(self, capsys) -> None:
        out = _run(capsys, "info")
        assert "sagittaire" in out
        assert "1177" in out
        assert "1622" in out

    def test_fig1(self, capsys) -> None:
        out = _run(capsys, "fig1")
        assert "Figure 1" in out

    def test_fig7_small(self, capsys) -> None:
        out = _run(
            capsys, "fig7", "--months", "12", "--r-max", "40", "--step", "8",
            "--no-plot",
        )
        assert "G*" in out

    def test_fig8_small(self, capsys) -> None:
        out = _run(
            capsys, "fig8", "--months", "12", "--r-min", "20", "--r-max", "40",
            "--step", "10", "--no-plot",
        )
        assert "max mean gain" in out

    def test_fig10_small(self, capsys) -> None:
        out = _run(
            capsys, "fig10", "--months", "12", "--clusters", "2",
            "--r-min", "20", "--r-max", "40", "--step", "20", "--no-plot",
        )
        assert "max gain" in out

    def test_simulate(self, capsys) -> None:
        out = _run(
            capsys, "simulate", "--months", "3", "--scenarios", "4",
            "--resources", "30",
        )
        assert "makespan" in out

    def test_simulate_gantt(self, capsys) -> None:
        out = _run(
            capsys, "simulate", "--months", "2", "--scenarios", "2",
            "--resources", "15", "--gantt",
        )
        assert "legend" in out

    def test_campaign(self, capsys) -> None:
        out = _run(
            capsys, "campaign", "--clusters", "2", "--resources", "25",
            "--scenarios", "4", "--months", "3",
        )
        assert "campaign" in out
        assert "predicted makespan" in out


class TestNewCommands:
    def test_recover(self, capsys) -> None:
        out = _run(
            capsys, "recover", "--clusters", "3", "--resources", "30",
            "--scenarios", "9", "--months", "24", "--fail", "chti",
            "--at-hours", "5",
        )
        assert "restarted on" in out
        assert "lost work" in out

    def test_faults(self, capsys) -> None:
        out = _run(
            capsys, "faults", "--clusters", "3", "--resources", "24",
            "--scenarios", "6", "--months", "10", "--seed", "3",
            "--mtbf-hours", "8",
        )
        assert "fault trace" in out
        assert "makespan" in out

    def test_faults_resilience(self, capsys) -> None:
        out = _run(
            capsys, "faults", "--resilience", "--clusters", "3",
            "--resources", "24", "--scenarios", "4", "--months", "6",
            "--trials", "1",
        )
        assert "MTBF" in out
        assert "degradation" in out

    def test_fig7_csv_export(self, capsys, tmp_path) -> None:
        path = tmp_path / "fig7.csv"
        _run(
            capsys, "fig7", "--months", "12", "--r-max", "30", "--step", "8",
            "--no-plot", "--csv", str(path),
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "R,G_star"
        assert len(lines) >= 3

    def test_fig8_csv_export(self, capsys, tmp_path) -> None:
        path = tmp_path / "fig8.csv"
        _run(
            capsys, "fig8", "--months", "12", "--r-min", "20", "--r-max",
            "36", "--step", "16", "--no-plot", "--csv", str(path),
        )
        header = path.read_text().splitlines()[0]
        assert "knapsack_mean" in header
        assert "knapsack_std" in header

    def test_fig10_csv_export(self, capsys, tmp_path) -> None:
        path = tmp_path / "fig10.csv"
        _run(
            capsys, "fig10", "--months", "12", "--clusters", "2",
            "--r-min", "20", "--r-max", "40", "--step", "20",
            "--no-plot", "--csv", str(path),
        )
        header = path.read_text().splitlines()[0]
        assert header.startswith("n_plus_R_over_100")

    def test_fig7_svg_export(self, capsys, tmp_path) -> None:
        import xml.etree.ElementTree as ET

        path = tmp_path / "fig7.svg"
        _run(
            capsys, "fig7", "--months", "12", "--r-max", "30", "--step", "8",
            "--no-plot", "--svg", str(path),
        )
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")

    def test_fig10_svg_export(self, capsys, tmp_path) -> None:
        import xml.etree.ElementTree as ET

        path = tmp_path / "fig10.svg"
        _run(
            capsys, "fig10", "--months", "12", "--clusters", "2",
            "--r-min", "20", "--r-max", "40", "--step", "10",
            "--no-plot", "--svg", str(path),
        )
        ns = "{http://www.w3.org/2000/svg}"
        root = ET.parse(path).getroot()
        assert len(root.findall(f"{ns}polyline")) == 3

    def test_fig9(self, capsys) -> None:
        out = _run(capsys, "fig9")
        assert "(1) ServiceRequest" in out
        assert "(6) ExecutionReport" in out

    def test_fig3to6(self, capsys) -> None:
        out = _run(capsys, "fig3to6")
        assert "PRESENT" in out
        assert "ABSENT" not in out

    def test_generic(self, capsys) -> None:
        out = _run(
            capsys, "generic", "--table", "2:500,3:360,4:300",
            "--chains", "3", "--repeats", "5", "--resources", "10",
        )
        assert "generic workload" in out
        assert "knapsack" in out

    def test_generic_single_heuristic(self, capsys) -> None:
        out = _run(
            capsys, "generic", "--table", "4:100", "--chains", "2",
            "--repeats", "3", "--resources", "8", "--heuristic", "basic",
        )
        assert "basic" in out
        assert "knapsack" not in out

    def test_generic_malformed_table(self, capsys) -> None:
        from repro.cli import main
        from repro.exceptions import ConfigurationError

        import pytest as _pytest

        with _pytest.raises(ConfigurationError):
            main(["generic", "--table", "nonsense"])

    def test_campaign_show_messages(self, capsys) -> None:
        out = _run(
            capsys, "campaign", "--clusters", "2", "--resources", "25",
            "--scenarios", "3", "--months", "2", "--show-messages",
        )
        assert "messages, clock at" in out

    def test_campaign_show_messages_runs_one_campaign(
        self, capsys, monkeypatch
    ) -> None:
        from repro.middleware.client import Client
        from repro.middleware.deployment import deploy
        from repro.platform.benchmarks import benchmark_grid

        runs = []
        original = Client.run_campaign

        def counted(self, *args, **kwargs):
            runs.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Client, "run_campaign", counted)
        out = _run(
            capsys, "campaign", "--clusters", "2", "--resources", "25",
            "--scenarios", "3", "--months", "2", "--show-messages",
        )
        assert len(runs) == 1
        # The printed log is that one campaign's.
        client, agent, _seds = deploy(benchmark_grid(2, 25))
        original(client, 3, 2)
        assert agent.network.describe() in out

    def test_simulate_trace_json(self, capsys, tmp_path) -> None:
        import json

        path = tmp_path / "trace.json"
        out = _run(
            capsys, "simulate", "--months", "2", "--scenarios", "2",
            "--resources", "15", "--trace-json", str(path),
        )
        assert "Perfetto" in out
        payload = json.loads(path.read_text())
        assert payload["traceEvents"]

    def test_sweep_small(self, capsys) -> None:
        out = _run(
            capsys, "sweep", "--r-min", "11", "--r-max", "26", "--step", "5",
            "--scenarios", "4", "--months", "3", "--table",
        )
        assert "sweep over" in out
        assert "wins by heuristic" in out
        assert "makespan (s)" in out

    def test_sweep_journal_resume(self, capsys, tmp_path) -> None:
        journal = tmp_path / "sweep.ndjson"
        out = _run(
            capsys, "sweep", "--r-min", "11", "--r-max", "26", "--step", "5",
            "--scenarios", "4", "--months", "3",
            "--out", str(journal), "--chunk-size", "4", "--max-chunks", "1",
        )
        assert "partial; rerun to continue" in out
        out = _run(
            capsys, "sweep", "--r-min", "11", "--r-max", "26", "--step", "5",
            "--scenarios", "4", "--months", "3",
            "--out", str(journal), "--chunk-size", "4",
        )
        assert "partial" not in out
        assert journal.exists()

    def test_sweep_rejects_unknown_heuristic(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--heuristics", "magic"])
