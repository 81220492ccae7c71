"""Continuous benchmarking: one protocol, ``BENCH_<name>.json`` artifacts.

Every benchmark in the repo runs through the same measurement
protocol — pinned seeds, explicit warmup, fixed repetitions,
median/IQR summary, machine fingerprint — and emits a schema-validated
JSON artifact (``BENCH_<name>.json``).  Artifacts are the
machine-readable performance trajectory ROADMAP asks for: CI uploads
them per commit, and :func:`compare_to_baseline` gates merges against
the committed ``benchmarks/baseline.json``.

Three layers:

* **protocol** — :class:`BenchSpec` (what to measure, in which unit,
  which direction is better) and :func:`run_bench` (warmup +
  repetitions → :class:`BenchResult` with median and IQR);
* **artifacts** — :func:`write_bench_artifact` /
  :func:`validate_bench_artifact` over the closed ``repro.bench/1``
  schema, so a malformed artifact fails loudly instead of polluting
  the trend;
* **comparator** — :func:`load_baseline` + :func:`compare_to_baseline`
  compute the adverse ratio per benchmark (``measured/baseline`` when
  lower is better, inverted otherwise) and flag anything beyond the
  regression budget; the CLI maps a flagged run to exit code 2.

The workloads and their registry (``bench_specs``) live with the
``repro-oa bench`` verb in :mod:`repro.cli.bench`, which also renders
the comparison: this module imports nothing of the packages it
measures, so :mod:`repro.obs` stays a leaf.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro._version import __version__
from repro.exceptions import ConfigurationError

__all__ = [
    "BASELINE_SCHEMA",
    "BENCH_SCHEMA",
    "BenchComparison",
    "BenchResult",
    "BenchSpec",
    "baseline_from_results",
    "compare_to_baseline",
    "inject_slowdown",
    "load_baseline",
    "load_bench_artifact",
    "machine_fingerprint",
    "run_bench",
    "validate_bench_artifact",
    "write_bench_artifact",
]

#: Artifact schema identifier; bump on incompatible layout changes.
BENCH_SCHEMA = "repro.bench/1"

#: Baseline file schema identifier.
BASELINE_SCHEMA = "repro.bench-baseline/1"

#: Default repetitions (when neither the spec nor the caller says) and
#: warmup (when the caller does not).
DEFAULT_REPETITIONS = 5
DEFAULT_WARMUP = 1

#: Default regression budget (percent of adverse drift vs baseline).
#: Deliberately < 100 so a 2x slowdown can never slip through.
DEFAULT_MAX_REGRESSION_PCT = 50.0

#: The seed every benchmark workload pins (none of the quick tier is
#: stochastic, but the artifact records it so future stochastic
#: benches stay comparable).
PINNED_SEED = 0

_DIRECTIONS = ("lower", "higher")


@dataclass(frozen=True)
class BenchSpec:
    """One benchmark under the common protocol.

    ``run`` performs a single repetition and returns the measured value
    in ``unit``; the harness owns warmup and aggregation.  ``direction``
    declares which way is better (``"lower"`` for latencies,
    ``"higher"`` for throughputs) so the comparator can compute adverse
    drift without per-benchmark cases.
    """

    name: str
    description: str
    unit: str
    direction: str
    run: Callable[[], float]
    repetitions: int | None = None

    def __post_init__(self) -> None:
        if self.direction not in _DIRECTIONS:
            raise ConfigurationError(
                f"bench {self.name!r}: direction must be one of "
                f"{_DIRECTIONS}, got {self.direction!r}"
            )
        if not self.name or any(ch in self.name for ch in "/\\ "):
            raise ConfigurationError(
                f"bench name {self.name!r} must be non-empty and "
                f"filename-safe (no spaces or slashes)"
            )


@dataclass(frozen=True)
class BenchResult:
    """The aggregated measurement of one benchmark."""

    name: str
    unit: str
    direction: str
    value: float  # median of the samples
    p25: float
    p75: float
    low: float
    high: float
    mean: float
    samples: tuple[float, ...]
    repetitions: int
    warmup: int
    seed: int
    machine: Mapping[str, Any]
    library_version: str
    unix_time: float

    @property
    def iqr(self) -> float:
        """The interquartile range (p75 - p25) of the samples."""
        return self.p75 - self.p25

    def as_dict(self) -> dict[str, Any]:
        """The ``repro.bench/1`` artifact document."""
        return {
            "schema": BENCH_SCHEMA,
            "name": self.name,
            "unit": self.unit,
            "direction": self.direction,
            "value": self.value,
            "p25": self.p25,
            "p75": self.p75,
            "iqr": self.iqr,
            "min": self.low,
            "max": self.high,
            "mean": self.mean,
            "samples": list(self.samples),
            "repetitions": self.repetitions,
            "warmup": self.warmup,
            "seed": self.seed,
            "machine": dict(self.machine),
            "library_version": self.library_version,
            "unix_time": self.unix_time,
        }


@dataclass(frozen=True)
class BenchComparison:
    """One benchmark's standing against the baseline."""

    name: str
    unit: str
    direction: str
    value: float
    baseline: float | None
    #: Adverse drift: >= 1.0 means no better than baseline; 2.0 means
    #: twice as slow (or half the throughput).  ``None`` without a
    #: baseline entry.
    ratio: float | None
    regressed: bool

    @property
    def delta_pct(self) -> float | None:
        """Adverse drift as a percentage (positive = worse)."""
        return None if self.ratio is None else (self.ratio - 1.0) * 100.0


def machine_fingerprint() -> dict[str, Any]:
    """Where a measurement was taken — numbers travel with their host."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
    }


def _nearest_rank(ordered: Sequence[float], q: float) -> float:
    rank = max(math.ceil(q * len(ordered)) - 1, 0)
    return ordered[rank]


def run_bench(
    spec: BenchSpec,
    *,
    repetitions: int | None = None,
    warmup: int | None = None,
) -> BenchResult:
    """Measure one spec under the common protocol.

    Caller overrides win over the spec's repetitions, which win over
    the module defaults.
    The reported ``value`` is the median; p25/p75 bound the IQR so a
    noisy host is visible in the artifact itself.
    """
    reps = (
        repetitions
        if repetitions is not None
        else (spec.repetitions or DEFAULT_REPETITIONS)
    )
    warm = DEFAULT_WARMUP if warmup is None else warmup
    if reps < 1:
        raise ConfigurationError(f"repetitions must be >= 1, got {reps!r}")
    if warm < 0:
        raise ConfigurationError(f"warmup must be >= 0, got {warm!r}")
    for _ in range(warm):
        spec.run()
    samples = [float(spec.run()) for _ in range(reps)]
    ordered = sorted(samples)
    return BenchResult(
        name=spec.name,
        unit=spec.unit,
        direction=spec.direction,
        value=statistics.median(ordered),
        p25=_nearest_rank(ordered, 0.25),
        p75=_nearest_rank(ordered, 0.75),
        low=ordered[0],
        high=ordered[-1],
        mean=statistics.fmean(ordered),
        samples=tuple(samples),
        repetitions=reps,
        warmup=warm,
        seed=PINNED_SEED,
        machine=machine_fingerprint(),
        library_version=__version__,
        unix_time=time.time(),
    )


def inject_slowdown(result: BenchResult, factor: float) -> BenchResult:
    """Adversely scale a result by ``factor`` — the gate's self-test hook.

    A factor of 2 makes a latency twice as slow and a throughput half
    as fast, so a healthy comparator must flag it.  Exposed on the CLI
    as ``--inject-slowdown`` to prove the regression gate actually
    fires.
    """
    if factor <= 0:
        raise ConfigurationError(f"slowdown factor must be > 0, got {factor!r}")
    scale = factor if result.direction == "lower" else 1.0 / factor
    return replace(
        result,
        value=result.value * scale,
        p25=result.p25 * scale,
        p75=result.p75 * scale,
        low=result.low * scale,
        high=result.high * scale,
        mean=result.mean * scale,
        samples=tuple(s * scale for s in result.samples),
    )


# ---------------------------------------------------------------------------
# Artifacts.
# ---------------------------------------------------------------------------

_NUMBER_FIELDS = (
    "value",
    "p25",
    "p75",
    "iqr",
    "min",
    "max",
    "mean",
    "unix_time",
)
_INT_FIELDS = ("repetitions", "warmup", "seed")
_STR_FIELDS = ("name", "unit", "direction", "library_version")


def validate_bench_artifact(doc: Mapping[str, Any]) -> None:
    """Check one artifact document against the ``repro.bench/1`` schema.

    Collects *every* defect into one
    :class:`~repro.exceptions.ConfigurationError`, so a broken emitter
    is fixed in one round trip.
    """
    problems: list[str] = []
    if not isinstance(doc, Mapping):
        raise ConfigurationError(
            f"bench artifact must be an object, got {type(doc).__name__}"
        )
    if doc.get("schema") != BENCH_SCHEMA:
        problems.append(
            f"schema must be {BENCH_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    for key in _STR_FIELDS:
        if not isinstance(doc.get(key), str) or not doc.get(key):
            problems.append(f"{key} must be a non-empty string")
    if doc.get("direction") not in _DIRECTIONS:
        problems.append(f"direction must be one of {_DIRECTIONS}")
    for key in _NUMBER_FIELDS:
        if not isinstance(doc.get(key), (int, float)) or isinstance(
            doc.get(key), bool
        ):
            problems.append(f"{key} must be a number")
    for key in _INT_FIELDS:
        if not isinstance(doc.get(key), int) or isinstance(
            doc.get(key), bool
        ):
            problems.append(f"{key} must be an integer")
    samples = doc.get("samples")
    if (
        not isinstance(samples, list)
        or not samples
        or not all(
            isinstance(s, (int, float)) and not isinstance(s, bool)
            for s in samples
        )
    ):
        problems.append("samples must be a non-empty list of numbers")
    elif isinstance(doc.get("repetitions"), int) and len(samples) != doc[
        "repetitions"
    ]:
        problems.append(
            f"samples has {len(samples)} entries for "
            f"{doc['repetitions']} repetitions"
        )
    if not isinstance(doc.get("machine"), Mapping):
        problems.append("machine must be an object (machine_fingerprint)")
    if (
        isinstance(doc.get("p25"), (int, float))
        and isinstance(doc.get("p75"), (int, float))
        and doc["p25"] > doc["p75"]
    ):
        problems.append(f"p25 ({doc['p25']}) exceeds p75 ({doc['p75']})")
    if problems:
        raise ConfigurationError(
            "invalid bench artifact: " + "; ".join(problems)
        )


def write_bench_artifact(result: BenchResult, out_dir: str | Path) -> Path:
    """Write ``BENCH_<name>.json`` under ``out_dir``; returns the path.

    The document is validated before it hits disk — the emitter is held
    to the same schema as every consumer.
    """
    doc = result.as_dict()
    validate_bench_artifact(doc)
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{result.name}.json"
    path.write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_bench_artifact(path: str | Path) -> dict[str, Any]:
    """Read and validate one ``BENCH_*.json`` file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read bench artifact {path}: {exc}"
        ) from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"bench artifact {path} is not JSON: {exc}"
        ) from None
    validate_bench_artifact(doc)
    return doc


# ---------------------------------------------------------------------------
# Baseline + comparator.
# ---------------------------------------------------------------------------


def load_baseline(path: str | Path) -> dict[str, Any]:
    """Read ``benchmarks/baseline.json`` with validation.

    Shape::

        {"schema": "repro.bench-baseline/1",
         "max_regression_pct": 50.0,
         "benchmarks": {"sweep": {"value": ..., "unit": ...,
                                  "direction": "higher"}, ...}}
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read baseline {path}: {exc}"
        ) from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"baseline {path} is not JSON: {exc}"
        ) from None
    if not isinstance(doc, Mapping) or doc.get("schema") != BASELINE_SCHEMA:
        raise ConfigurationError(
            f"baseline {path} must carry schema {BASELINE_SCHEMA!r}"
        )
    benchmarks = doc.get("benchmarks")
    if not isinstance(benchmarks, Mapping):
        raise ConfigurationError(
            f"baseline {path} needs a 'benchmarks' object"
        )
    for name, entry in benchmarks.items():
        if (
            not isinstance(entry, Mapping)
            or not isinstance(entry.get("value"), (int, float))
            or entry.get("direction") not in _DIRECTIONS
        ):
            raise ConfigurationError(
                f"baseline {path} entry {name!r} needs a numeric 'value' "
                f"and a direction in {_DIRECTIONS}"
            )
    return dict(doc)


def baseline_from_results(
    results: Sequence[BenchResult],
    *,
    max_regression_pct: float = DEFAULT_MAX_REGRESSION_PCT,
) -> dict[str, Any]:
    """A baseline document pinned to these results (the update workflow)."""
    return {
        "schema": BASELINE_SCHEMA,
        "max_regression_pct": max_regression_pct,
        "machine": machine_fingerprint(),
        "library_version": __version__,
        "benchmarks": {
            r.name: {
                "value": r.value,
                "unit": r.unit,
                "direction": r.direction,
            }
            for r in sorted(results, key=lambda r: r.name)
        },
    }


def compare_to_baseline(
    results: Sequence[BenchResult],
    baseline: Mapping[str, Any],
    *,
    max_regression_pct: float | None = None,
) -> list[BenchComparison]:
    """Each result's adverse drift vs the baseline, regression-flagged.

    ``max_regression_pct`` defaults to the budget recorded in the
    baseline file itself (falling back to
    :data:`DEFAULT_MAX_REGRESSION_PCT`), so the budget is versioned
    with the numbers it protects.  Results without a baseline entry are
    reported unflagged — new benchmarks land first, their baseline
    follows via ``--update-baseline``.
    """
    if max_regression_pct is None:
        raw = baseline.get("max_regression_pct", DEFAULT_MAX_REGRESSION_PCT)
        max_regression_pct = float(raw)
    if max_regression_pct < 0:
        raise ConfigurationError(
            f"max regression budget must be >= 0, got {max_regression_pct!r}"
        )
    entries = baseline.get("benchmarks", {})
    rows: list[BenchComparison] = []
    for result in results:
        entry = entries.get(result.name) if isinstance(entries, Mapping) else None
        if entry is None:
            rows.append(
                BenchComparison(
                    name=result.name,
                    unit=result.unit,
                    direction=result.direction,
                    value=result.value,
                    baseline=None,
                    ratio=None,
                    regressed=False,
                )
            )
            continue
        base = float(entry["value"])
        if base <= 0 or result.value <= 0:
            raise ConfigurationError(
                f"bench {result.name!r}: non-positive measurement "
                f"({result.value!r}) or baseline ({base!r})"
            )
        ratio = (
            result.value / base
            if result.direction == "lower"
            else base / result.value
        )
        rows.append(
            BenchComparison(
                name=result.name,
                unit=result.unit,
                direction=result.direction,
                value=result.value,
                baseline=base,
                ratio=ratio,
                regressed=ratio > 1.0 + max_regression_pct / 100.0,
            )
        )
    return rows
