"""Every example script must run clean end to end.

Examples are documentation that executes; this guard keeps them from
rotting as the library evolves.  Each is imported from its file and its
``main()`` invoked with stdout captured and spot-checked.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def _run_example(name: str, capsys, argv: list[str] | None = None) -> str:
    path = EXAMPLES_DIR / f"{name}.py"
    assert path.exists(), f"missing example {path}"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    assert spec and spec.loader
    module = importlib.util.module_from_spec(spec)
    old_argv = sys.argv
    sys.argv = [str(path)] + (argv or [])
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


class TestExamplesRun:
    def test_quickstart(self, capsys) -> None:
        out = _run_example("quickstart", capsys)
        assert "gains over the basic heuristic" in out
        assert "knapsack" in out

    def test_ensemble_campaign(self, capsys) -> None:
        out = _run_example("ensemble_campaign", capsys)
        assert "predicted makespan" in out
        assert "best single cluster" in out
        assert "% faster" in out

    def test_gantt_trace(self, capsys, tmp_path) -> None:
        trace = tmp_path / "trace.json"
        out = _run_example("gantt_trace", capsys, argv=[str(trace)])
        assert "Figure 3 shape" in out
        assert "Figure 4 shape" in out
        assert "legend" in out
        assert f"chrome trace written to {trace}" in out
        assert trace.read_text().startswith("{")

    def test_heterogeneity_study(self, capsys) -> None:
        out = _run_example("heterogeneity_study", capsys, argv=["1234"])
        assert "random clusters" in out
        assert "regret" in out

    def test_failure_recovery(self, capsys) -> None:
        out = _run_example("failure_recovery", capsys)
        assert "failure-time sweep" in out
        assert "restarted on" in out

    def test_generic_workflow(self, capsys) -> None:
        out = _run_example("generic_workflow", capsys)
        assert "seismic pipeline" in out
        assert "repro-dag/1" in out

    def test_grid5000_campaign(self, capsys) -> None:
        out = _run_example("grid5000_campaign", capsys)
        assert "19 clusters over 9 sites" in out
        assert "idle clusters" in out
        assert "sensitivity of" in out

    def test_service_campaign(self, capsys) -> None:
        out = _run_example("service_campaign", capsys)
        assert "campaign service on 127.0.0.1:" in out
        assert out.count("done") >= 3
        assert "stored makespans" in out
