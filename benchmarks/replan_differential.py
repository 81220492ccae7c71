"""Canonical dump of replanner output over a seeded set of campaigns.

Every case runs the campaign replanner —
:func:`repro.middleware.recovery.run_campaign_with_faults` on a seeded
fault trace, or :func:`~repro.middleware.recovery.run_campaign_with_failure`
on one crash — and writes one JSON line: the case, then every field of
the report with each float as its ``repr``, plus ``describe()``.  A case
the replanner rejects writes its error type and message instead.  Two
checkouts that write the same bytes plan every recovery identically.

The set crosses four platform families (``benchmark_grid`` with 2–5
clusters × R 20–80 step 10, eight ``random_grid``\\ s, and the Grid'5000 catalog
capped at 40 processors per cluster) with four ensemble shapes, four
fault mixes × seeds 1–5, and five single-failure instants per cluster.
``--subset`` keeps every 160th case, the slice the tier-1 test reruns.

Run from the root of a checkout::

    PYTHONPATH=src python benchmarks/replan_differential.py --out dump.ndjson
    PYTHONPATH=src python benchmarks/replan_differential.py --check

``--check`` compares the dump's case count, byte count and sha256 with
``tests/data/replan_golden.json`` and exits 1 on any difference;
``--pin`` rewrites that file from the current checkout.  The last line
is a JSON summary either way.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import json
import pathlib
import random
from collections.abc import Iterator

import numpy as np

from repro.exceptions import ReproError
from repro.faults.trace import (
    FaultEvent,
    FaultKind,
    FaultProfile,
    FaultTrace,
    generate_trace,
)
from repro.middleware.recovery import (
    ClusterFailure,
    run_campaign_with_failure,
    run_campaign_with_faults,
)
from repro.platform.benchmarks import benchmark_grid
from repro.platform.grid import GridSpec
from repro.platform.gridfive import catalog_grid
from repro.platform.heterogeneity import random_grid

GOLDEN = (
    pathlib.Path(__file__).resolve().parent.parent
    / "tests" / "data" / "replan_golden.json"
)

SHAPES = ((3, 6), (6, 12), (9, 24), (12, 12))
SEEDS = range(1, 6)
#: crash/outage/slowdown weights of each generated mix; "rejoin" is
#: built by hand (generated traces never rejoin a crashed cluster).
MIXES = {
    "crash": (1.0, 0.0, 0.0),
    "outage": (0.0, 1.0, 0.0),
    "mixed": (0.2, 0.5, 0.3),
    "rejoin": None,
}
FAILURE_FRACTIONS = (0.1, 0.3, 0.5, 0.7, 0.9)
SUBSET_STRIDE = 160


def grids() -> Iterator[tuple[str, GridSpec]]:
    """Every platform of the set, with a stable label."""
    for n in range(2, 6):
        for r in range(20, 81, 10):
            yield f"bench{n}x{r}", benchmark_grid(n, r)
    for i in range(8):
        rng = np.random.default_rng(i)
        yield f"random{i}", random_grid(rng, 2 + i % 4)
    yield "catalog40", catalog_grid(max_resources_per_cluster=40)


def _trace(grid: GridSpec, mix: str, seed: int, horizon: float) -> FaultTrace:
    """A seeded trace over ``[0, horizon)`` of one fault mix."""
    weights = MIXES[mix]
    if weights is not None:
        profile = FaultProfile(
            mtbf_seconds=horizon / 2,
            mttr_seconds=horizon / 10,
            kind_weights=weights,
        )
        return generate_trace(
            {name: profile for name in grid.names}, horizon, seed
        )
    rng = random.Random(f"replan-rejoin:{seed}")
    first, second = rng.sample(list(grid.names), 2)
    down = rng.uniform(0.05, 0.5) * horizon
    back = down + rng.uniform(0.05, 0.3) * horizon
    return FaultTrace.of([
        FaultEvent(FaultKind.CRASH, first, down),
        FaultEvent(FaultKind.REJOIN, first, back),
        FaultEvent(FaultKind.CRASH, second, back + rng.uniform(0.0, 0.5) * horizon),
    ])


def cases() -> Iterator[tuple[str, GridSpec, int, int, tuple]]:
    """``(group, grid, scenarios, months, fault)`` for every case.

    ``fault`` is ``("trace", mix, seed)`` or ``("fail", cluster,
    fraction)``; both scale with the group's fault-free makespan.
    """
    for label, grid in grids():
        for ns, nm in SHAPES:
            group = f"{label}/{ns}x{nm}"
            for mix in MIXES:
                for seed in SEEDS:
                    yield group, grid, ns, nm, ("trace", mix, seed)
            for name in grid.names:
                for fraction in FAILURE_FRACTIONS:
                    yield group, grid, ns, nm, ("fail", name, fraction)


def canonical(value: object) -> object:
    """``value`` as JSON-ready data, every float as its ``repr``."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return [[canonical(k), canonical(v)] for k, v in value.items()]
    if isinstance(value, (tuple, list)):
        return [canonical(v) for v in value]
    return value


def dump_case(
    grid: GridSpec, ns: int, nm: int, fault: tuple, horizon: float
) -> dict:
    """The canonical record of one case."""
    kind, what, number = fault
    try:
        if kind == "fail":
            failure = ClusterFailure(what, number * horizon)
            report = run_campaign_with_failure(grid, ns, nm, failure)
        else:
            trace = _trace(grid, what, number, horizon)
            report = run_campaign_with_faults(grid, ns, nm, trace)
    except ReproError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"report": canonical(report), "describe": report.describe()}


def run(subset: bool, out: pathlib.Path | None = None) -> dict[str, object]:
    """Dump the full set (or the subset); return its digest summary."""
    digest = hashlib.sha256()
    horizons: dict[str, float] = {}
    n_cases = n_bytes = n_errors = 0
    sink = out.open("w", encoding="utf-8") if out is not None else None
    try:
        for index, (group, grid, ns, nm, fault) in enumerate(cases()):
            if subset and index % SUBSET_STRIDE:
                continue
            if group not in horizons:
                horizons[group] = run_campaign_with_faults(
                    grid, ns, nm, FaultTrace()
                ).original_makespan
            record = dump_case(grid, ns, nm, fault, horizons[group])
            label = "/".join([group, *map(str, fault)])
            line = json.dumps({"case": label, **record}, sort_keys=True) + "\n"
            data = line.encode("utf-8")
            digest.update(data)
            n_cases += 1
            n_bytes += len(data)
            n_errors += "error" in record
            if sink is not None:
                sink.write(line)
    finally:
        if sink is not None:
            sink.close()
    return {
        "cases": n_cases,
        "errors": n_errors,
        "bytes": n_bytes,
        "sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--subset", action="store_true",
                        help=f"every {SUBSET_STRIDE}th case only")
    parser.add_argument("--out", type=pathlib.Path,
                        help="write the canonical dump here")
    parser.add_argument("--check", action="store_true",
                        help="compare with the pinned digest")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite the pinned digests of both sets")
    args = parser.parse_args(argv)
    if args.pin:
        pinned = {"full": run(False, args.out), "subset": run(True)}
        GOLDEN.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
        print(json.dumps(pinned, sort_keys=True))
        return 0
    key = "subset" if args.subset else "full"
    summary = run(args.subset, args.out)
    status = 0
    if args.check:
        pinned = json.loads(GOLDEN.read_text())[key]
        summary["matches"] = summary == {k: pinned[k] for k in summary}
        status = 0 if summary["matches"] else 1
    print(json.dumps({"set": key, **summary}, sort_keys=True))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
