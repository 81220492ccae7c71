"""Every name the docs put in backticks exists.

A backticked dotted ``repro.…`` name must import, or resolve by
``getattr`` from the longest importable module prefix; a call written
as ``repro.x.f(args)`` is checked by its name.  A backticked ``src/``,
``tests/``, ``benchmarks/``, ``examples/`` or ``perfbench/`` path must
exist (a ``::test`` or ``:line`` suffix is dropped).  Skipped: fenced
code blocks, which show sample output; ``repro.…`` tokens with a
``/``, which are schema ids; and glob patterns.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = sorted((ROOT / "docs").glob("*.md"))
PATH_ROOTS = ("src/", "tests/", "benchmarks/", "examples/", "perfbench/")

_FENCE = re.compile(r"^(```|~~~).*?^\1", re.S | re.M)
_TICKED = re.compile(r"`([^`\n]+)`")
_DOTTED = re.compile(r"repro(\.\w+)*")


def _ticked(doc: Path) -> list[str]:
    text = _FENCE.sub("", doc.read_text(encoding="utf-8"))
    return [token.strip() for token in _TICKED.findall(text)]


def _resolves(name: str) -> bool:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(found, attr):
                return False
            found = getattr(found, attr)
        return True
    return False


def _stale(doc: Path) -> list[str]:
    stale = []
    for token in _ticked(doc):
        if token.startswith("repro") and "/" not in token:
            name = token.split("(", 1)[0]
            if _DOTTED.fullmatch(name) and not _resolves(name):
                stale.append(token)
        elif token.startswith(PATH_ROOTS) and not any(
            char in token for char in "*?[{"
        ):
            path = re.split(r"::|:\d", token.split()[0])[0]
            if not (ROOT / path).exists():
                stale.append(token)
    return stale


@pytest.mark.parametrize("doc", DOCS, ids=[doc.name for doc in DOCS])
def test_backticked_names_exist(doc: Path) -> None:
    assert _stale(doc) == []


def test_the_check_sees_stale_names(tmp_path: Path) -> None:
    doc = tmp_path / "stale.md"
    doc.write_text(
        "`repro.service.store.RunStore.get` and `tests/test_cli.py::x`\n"
        "`repro.service.store.NoSuchThing`, `repro.no_such_module`,\n"
        "`tests/core/no_such_test.py` and `repro.core.f(x)`; skipped:\n"
        "`tests/**/*.py`, `repro.grid/v1`\n"
        "```text\n`repro.core.planner.entry`\n```\n",
        encoding="utf-8",
    )
    assert _stale(doc) == [
        "repro.service.store.NoSuchThing",
        "repro.no_such_module",
        "tests/core/no_such_test.py",
        "repro.core.f(x)",
    ]
