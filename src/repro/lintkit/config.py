"""``[tool.reprolint]`` configuration loading.

The checker is configured from ``pyproject.toml`` so the invariants
live next to the build metadata::

    [tool.reprolint]
    deterministic-packages = ["repro.core", "repro.simulation", ...]
    wallclock-allow = ["repro.service.client"]
    engine-hot-paths = ["repro.simulation.engine", ...]
    async-packages = ["repro.service"]
    dispatch-abcs = ["repro.schedulers.base.Scheduler", ...]
    names-module = "repro.obs.names"
    baseline = ".reprolint-baseline.json"
    disable = []

    [tool.reprolint.severity]
    D003 = "warning"

    [tool.reprolint.layers.deterministic-core]
    modules = ["repro.core", "repro.simulation"]
    forbid = ["repro.service", "repro.obs"]
    allow = ["repro.obs"]

Layer-contract names become part of the L001 diagnostics; keep them
dot-free so the 3.10 fallback parser (which splits section headers on
``.``) reads them identically to ``tomllib``.

``tomllib`` ships with Python 3.11+; on 3.10 (which this repo still
supports and CI exercises) a minimal fallback parser handles exactly
the subset the table above uses — string values, arrays of strings,
and nested ``[tool.reprolint.*]`` tables.  No third-party TOML
dependency is pulled in either way.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

try:  # Python 3.11+
    import tomllib
except ImportError:  # pragma: no cover - exercised only on 3.10
    tomllib = None  # type: ignore[assignment]

__all__ = [
    "DEFAULTS",
    "LayerContract",
    "LintConfig",
    "find_pyproject",
    "load_config",
]

#: Built-in defaults mirroring this repository's layout; external
#: projects override them wholesale from their own pyproject.
DEFAULTS: dict[str, object] = {
    "deterministic-packages": [
        "repro.core",
        "repro.simulation",
        "repro.faults",
        "repro.experiments.sweep",
        "repro.service",
    ],
    "wallclock-allow": [],
    "engine-hot-paths": [
        "repro.core",
        "repro.simulation.engine",
        "repro.simulation.dag_engine",
    ],
    "async-packages": ["repro.service"],
    "dispatch-abcs": [
        "repro.schedulers.base.Scheduler",
        "repro.service.backends.base.StorageBackend",
    ],
    "names-module": "repro.obs.names",
    "baseline": ".reprolint-baseline.json",
}


@dataclass(frozen=True)
class LayerContract:
    """One ``[tool.reprolint.layers.<name>]`` architecture contract.

    Modules matching any prefix in ``modules`` must not import modules
    matching any prefix in ``forbid`` at module level, except exact
    modules listed in ``allow`` (the escape hatch for a sanctioned
    facade such as ``repro.obs``).
    """

    name: str
    modules: tuple[str, ...]
    forbid: tuple[str, ...]
    allow: tuple[str, ...] = ()

    def covers(self, module: str) -> bool:
        """Whether this contract constrains ``module``."""
        return any(
            module == p or module.startswith(p + ".")
            for p in self.modules
        )

    def forbids(self, imported: str) -> bool:
        """Whether importing ``imported`` violates this contract."""
        if imported in self.allow:
            return False
        return any(
            imported == p or imported.startswith(p + ".")
            for p in self.forbid
        )


@dataclass(frozen=True)
class LintConfig:
    """Resolved checker configuration (see module docstring)."""

    #: Packages whose modules must stay wall-clock- and global-RNG-free.
    deterministic_packages: tuple[str, ...] = tuple(
        DEFAULTS["deterministic-packages"]  # type: ignore[arg-type]
    )
    #: Modules inside deterministic packages that may read the clock.
    wallclock_allow: tuple[str, ...] = ()
    #: Modules where unordered-set iteration is a finding (D003).
    engine_hot_paths: tuple[str, ...] = tuple(
        DEFAULTS["engine-hot-paths"]  # type: ignore[arg-type]
    )
    #: Packages whose ``async def`` bodies must not block (A001).
    async_packages: tuple[str, ...] = tuple(
        DEFAULTS["async-packages"]  # type: ignore[arg-type]
    )
    #: ABC qualnames whose method calls fan out to every registered
    #: implementation in the call graph (conservative dynamic dispatch).
    dispatch_abcs: tuple[str, ...] = tuple(
        DEFAULTS["dispatch-abcs"]  # type: ignore[arg-type]
    )
    #: Module declaring METRIC_NAMES/SPAN_NAMES (M001/M002 registry).
    names_module: str = str(DEFAULTS["names-module"])
    #: Architecture contracts enforced by L001.
    layers: tuple[LayerContract, ...] = ()
    #: Baseline path, relative to the config file's directory.
    baseline: str = str(DEFAULTS["baseline"])
    #: Rule ids disabled outright.
    disabled_rules: tuple[str, ...] = ()
    #: Per-rule severity overrides.
    severity: dict[str, str] = field(default_factory=dict)
    #: Directory the config was loaded from (resolves the baseline).
    root: Path = field(default_factory=Path.cwd)

    def severity_for(self, rule_id: str, default: str) -> str:
        """Effective severity of one rule."""
        return self.severity.get(rule_id, default)

    def baseline_path(self) -> Path:
        """The baseline file, anchored at the config root."""
        path = Path(self.baseline)
        return path if path.is_absolute() else self.root / path


def find_pyproject(start: Path) -> Path | None:
    """Nearest ``pyproject.toml`` at or above ``start``."""
    node = start.resolve()
    if node.is_file():
        node = node.parent
    for candidate in [node, *node.parents]:
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def load_config(pyproject: str | Path | None = None) -> LintConfig:
    """Build a :class:`LintConfig` from a ``pyproject.toml``.

    ``pyproject`` may be a file path or ``None`` (search upward from
    the working directory).  A missing file or missing
    ``[tool.reprolint]`` table yields the built-in defaults.
    """
    path = (
        Path(pyproject)
        if pyproject is not None
        else find_pyproject(Path.cwd())
    )
    if path is None or not path.is_file():
        return LintConfig()
    table = _reprolint_table(path.read_text(encoding="utf-8"))
    severity_table = table.get("severity", {})
    severity = (
        {str(k): str(v) for k, v in severity_table.items()}
        if isinstance(severity_table, dict)
        else {}
    )
    return LintConfig(
        deterministic_packages=_strings(
            table, "deterministic-packages",
            DEFAULTS["deterministic-packages"],  # type: ignore[arg-type]
        ),
        wallclock_allow=_strings(table, "wallclock-allow", []),
        engine_hot_paths=_strings(
            table, "engine-hot-paths",
            DEFAULTS["engine-hot-paths"],  # type: ignore[arg-type]
        ),
        async_packages=_strings(
            table, "async-packages",
            DEFAULTS["async-packages"],  # type: ignore[arg-type]
        ),
        dispatch_abcs=_strings(
            table, "dispatch-abcs",
            DEFAULTS["dispatch-abcs"],  # type: ignore[arg-type]
        ),
        names_module=str(
            table.get("names-module", DEFAULTS["names-module"])
        ),
        layers=_layer_contracts(table.get("layers", {})),
        baseline=str(table.get("baseline", DEFAULTS["baseline"])),
        disabled_rules=_strings(table, "disable", []),
        severity=severity,
        root=path.parent,
    )


def _layer_contracts(raw: object) -> tuple[LayerContract, ...]:
    """``[tool.reprolint.layers.*]`` sections as frozen contracts.

    Malformed entries (non-table values, missing ``modules``/``forbid``)
    are dropped rather than raised on — lint configuration must never
    crash the checker on a foreign pyproject.
    """
    if not isinstance(raw, dict):
        return ()
    contracts: list[LayerContract] = []
    for name in sorted(raw):
        body = raw[name]
        if not isinstance(body, dict):
            continue
        modules = _strings(body, "modules", [])
        forbid = _strings(body, "forbid", [])
        if not modules or not forbid:
            continue
        contracts.append(
            LayerContract(
                name=str(name),
                modules=modules,
                forbid=forbid,
                allow=_strings(body, "allow", []),
            )
        )
    return tuple(contracts)


def _strings(
    table: dict[str, object], key: str, default: list[str]
) -> tuple[str, ...]:
    value = table.get(key, default)
    if not isinstance(value, list):
        return tuple(default)
    return tuple(str(item) for item in value)


def _reprolint_table(text: str) -> dict[str, object]:
    """The ``[tool.reprolint]`` table (nested tables folded in)."""
    if tomllib is not None:
        data = tomllib.loads(text)
    else:  # pragma: no cover - Python 3.10 fallback
        data = _parse_minimal_toml(text)
    tool = data.get("tool", {})
    if not isinstance(tool, dict):
        return {}
    table = tool.get("reprolint", {})
    return table if isinstance(table, dict) else {}


# -- 3.10 fallback parser ---------------------------------------------------

_SECTION = re.compile(r"^\[(?P<name>[^\]]+)\]\s*$")
_KEYVAL = re.compile(r"^(?P<key>[\w.-]+)\s*=\s*(?P<value>.+)$")


def _parse_minimal_toml(text: str) -> dict[str, object]:
    """Parse the tiny TOML subset ``[tool.reprolint]`` actually uses.

    Supports ``[dotted.section]`` headers, string values, numbers,
    booleans, and single-line arrays of strings.  Good enough for the
    reprolint table; anything fancier should run on 3.11+ where the
    stdlib parser takes over.
    """
    root: dict[str, object] = {}
    current = root
    pending = ""
    for raw in text.splitlines():
        line = raw.strip()
        if pending:
            line = pending + " " + line
            pending = ""
        if not line or line.startswith("#"):
            continue
        section = _SECTION.match(line)
        if section:
            current = root
            for part in section.group("name").strip().split("."):
                part = part.strip().strip('"').strip("'")
                current = current.setdefault(part, {})  # type: ignore[assignment]
            continue
        # Multi-line arrays: accumulate until brackets balance.
        if line.count("[") > line.count("]"):
            pending = line
            continue
        keyval = _KEYVAL.match(line)
        if not keyval:
            continue
        current[keyval.group("key").strip('"').strip("'")] = _parse_value(
            keyval.group("value").strip()
        )
    return root


def _parse_value(value: str) -> object:
    value = value.split("#")[0].strip() if not value.startswith(
        ("'", '"', "[")
    ) else value
    if value.startswith("[") and value.endswith("]"):
        inner = value[1:-1].strip()
        if not inner:
            return []
        return [
            _parse_value(item.strip())
            for item in _split_array(inner)
        ]
    if value.startswith(("'", '"')) and value.endswith(value[0]):
        return value[1:-1]
    if value in ("true", "false"):
        return value == "true"
    try:
        return int(value)
    except ValueError:
        try:
            return float(value)
        except ValueError:
            return value


def _split_array(inner: str) -> list[str]:
    """Split a flat array body on commas outside quotes."""
    parts: list[str] = []
    buf: list[str] = []
    quote: str | None = None
    for ch in inner:
        if quote is not None:
            buf.append(ch)
            if ch == quote:
                quote = None
        elif ch in ("'", '"'):
            quote = ch
            buf.append(ch)
        elif ch == ",":
            parts.append("".join(buf).strip())
            buf = []
        else:
            buf.append(ch)
    tail = "".join(buf).strip()
    if tail:
        parts.append(tail)
    return parts
