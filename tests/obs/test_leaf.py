"""``repro.obs`` is a leaf: no import of it, even inside a function, crosses the contract.

The lint's L001 counts module-level imports only; this test walks every
module under ``repro.obs`` with ``ast``, function bodies included, and
holds each import to the ``obs-leaf`` contract of ``pyproject.toml``
(its ``forbid`` minus its ``allow``).
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.obs
from repro.lintkit.config import load_config

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = Path(repro.obs.__file__).parent


def _imports(path: Path) -> list[tuple[str, int]]:
    """Every ``(imported module, line)`` in one file, at any depth."""
    # A relative import is anchored in the file's own package.
    package = ["repro", "obs", *path.relative_to(PACKAGE).parent.parts]
    found: list[tuple[str, int]] = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.extend((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            anchor = package[: len(package) - node.level + 1] if node.level else []
            base = ".".join([*anchor, *filter(None, [node.module])])
            found.append((base, node.lineno))
            found.extend((f"{base}.{alias.name}", node.lineno) for alias in node.names)
    return found


def test_no_obs_module_imports_a_forbidden_package() -> None:
    (contract,) = [
        c for c in load_config(ROOT / "pyproject.toml").layers if c.name == "obs-leaf"
    ]
    crossings = [
        f"{path.relative_to(PACKAGE)}:{line} imports {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for name, line in _imports(path)
        if contract.forbids(name)
    ]
    assert crossings == []
