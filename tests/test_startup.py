"""Start-up pays only for the verb it runs: module checks, not timers.

Each case runs a fresh interpreter under ``-X importtime`` and reads
the modules it imported from that report, so the check is about what
loads, never about how long it takes on a given machine.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: What a light verb must not load: the numeric stack, the service's
#: server, and the lint checker.
HEAVY = ("numpy", "repro.service.server", "repro.lintkit")


def _imported(*args: str) -> set[str]:
    """Every module a fresh ``python -X importtime ARGS`` imports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return {
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }


def _loaded(modules: set[str], package: str) -> bool:
    return any(m == package or m.startswith(package + ".") for m in modules)


def test_import_repro_loads_no_numpy() -> None:
    modules = _imported("-c", "import repro")
    assert "repro" in modules
    assert not _loaded(modules, "numpy")


@pytest.mark.parametrize("argv", [["--help"], ["info"]])
def test_light_verbs_load_nothing_heavy(argv) -> None:
    modules = _imported("-m", "repro.cli", *argv)
    assert "repro.cli" in modules
    assert [name for name in HEAVY if _loaded(modules, name)] == []


def test_service_verbs_preload_what_job_children_run() -> None:
    """``serve``/``worker`` fork job children after importing their module."""
    modules = _imported("-c", "import repro.cli.service")
    for package in (
        "numpy", "repro.core", "repro.platform", "repro.workflow",
        "repro.simulation",
    ):
        assert package in modules, package
