"""Job kinds and the worker-process entry point.

A *job kind* names a unit of work the campaign service knows how to
run: a full middleware campaign, a single-cluster simulation, a figure
sweep, the fig9 protocol trace.  Each kind validates its parameters at
submission time (so the server rejects garbage before it is queued) and
produces a result object that
:func:`repro.experiments.results_io.dump_result` can serialize — one
serializer for every job kind is what lets the run store treat results
uniformly.

:func:`execute_job` is the function shipped to
:class:`~concurrent.futures.ProcessPoolExecutor` workers.  It is
module-level (picklable), takes only plain values, and returns the
serialized result string, so nothing non-picklable ever crosses the
process boundary.

Every execution goes through one routine,
:class:`~repro.service.fleet.FleetWorker` — whether the worker is a
thread of the server's pool or a ``repro-oa worker`` process — which
ships this entry point (``execute_job_traced`` when observability is
on) to its own child process.  Job kinds therefore must stay
host-agnostic: pure functions of their validated parameters, no
reliance on which process or machine runs them — that is what makes a
lease reassignment mid-campaign safe.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.exceptions import ReproError, ServiceError

__all__ = [
    "JobKind",
    "execute_job",
    "execute_job_traced",
    "job_kinds",
    "validate_job",
]

_HEURISTICS = ("basic", "redistribute", "allpost_end", "knapsack")


def _as_int(params: Mapping[str, Any], key: str, default: int, *, low: int = 1) -> int:
    """Pull a bounded integer parameter with a typed error on garbage."""
    value = params.get(key, default)
    try:
        value = int(value)
    except (TypeError, ValueError):
        raise ServiceError(
            f"parameter {key!r} must be an integer, got {value!r}",
            code="bad-params",
        ) from None
    if value < low:
        raise ServiceError(
            f"parameter {key!r} must be >= {low}, got {value}",
            code="bad-params",
        )
    return value


def _as_float(
    params: Mapping[str, Any], key: str, default: float, *, low: float = 0.0
) -> float:
    """Pull a bounded float parameter with a typed error on garbage."""
    value = params.get(key, default)
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ServiceError(
            f"parameter {key!r} must be a number, got {value!r}",
            code="bad-params",
        ) from None
    if value < low:
        raise ServiceError(
            f"parameter {key!r} must be >= {low}, got {value}",
            code="bad-params",
        )
    return value


def _as_heuristic(params: Mapping[str, Any]) -> str:
    value = str(params.get("heuristic", "knapsack"))
    if value not in _HEURISTICS:
        raise ServiceError(
            f"unknown heuristic {value!r}; expected one of {_HEURISTICS}",
            code="bad-params",
        )
    return value


# ---------------------------------------------------------------------------
# Job implementations (all module-level: they run in worker processes).
# ---------------------------------------------------------------------------


def _validate_campaign(params: Mapping[str, Any]) -> dict[str, Any]:
    return {
        "clusters": _as_int(params, "clusters", 3),
        "resources": _as_int(params, "resources", 40),
        "scenarios": _as_int(params, "scenarios", 10),
        "months": _as_int(params, "months", 12),
        "heuristic": _as_heuristic(params),
    }


def _run_campaign(params: Mapping[str, Any]):
    from repro.experiments.results_io import GenericResult
    from repro.middleware.deployment import run_campaign
    from repro.platform.benchmarks import benchmark_grid

    grid = benchmark_grid(params["clusters"], params["resources"])
    result = run_campaign(
        grid, params["scenarios"], params["months"], params["heuristic"]
    )
    return GenericResult(
        kind="campaign",
        data={
            "makespan": result.makespan,
            "predicted_makespan": result.predicted_makespan,
            "control_plane_seconds": result.control_plane_seconds,
            "scenarios": params["scenarios"],
            "months": params["months"],
            "heuristic": params["heuristic"],
            "clusters": [
                {
                    "name": report.cluster_name,
                    "scenarios": list(report.scenario_ids),
                    "grouping": report.grouping.describe(),
                    "makespan": report.makespan,
                }
                for report in result.reports
            ],
        },
    )


def _validate_simulate(params: Mapping[str, Any]) -> dict[str, Any]:
    return {
        "cluster": str(params.get("cluster", "sagittaire")),
        "resources": _as_int(params, "resources", 53),
        "scenarios": _as_int(params, "scenarios", 10),
        "months": _as_int(params, "months", 12),
        "heuristic": _as_heuristic(params),
    }


def _run_simulate(params: Mapping[str, Any]):
    from repro.experiments.results_io import GenericResult
    from repro.experiments.runner import run_cluster_simulation
    from repro.workflow.ocean_atmosphere import EnsembleSpec

    spec = EnsembleSpec(params["scenarios"], params["months"])
    result = run_cluster_simulation(
        params["cluster"], params["resources"], spec, params["heuristic"]
    )
    return GenericResult(
        kind="simulate",
        data={
            "makespan": result.makespan,
            "cluster": params["cluster"],
            "resources": params["resources"],
            "scenarios": params["scenarios"],
            "months": params["months"],
            "heuristic": params["heuristic"],
        },
    )


def _validate_sweep(params: Mapping[str, Any]) -> dict[str, Any]:
    clean = {
        "scenarios": _as_int(params, "scenarios", 10),
        "months": _as_int(params, "months", 12),
        "r_min": _as_int(params, "r_min", 11),
        "r_max": _as_int(params, "r_max", 40),
        "step": _as_int(params, "step", 4),
    }
    if clean["r_max"] < clean["r_min"]:
        raise ServiceError(
            f"r_max ({clean['r_max']}) must be >= r_min ({clean['r_min']})",
            code="bad-params",
        )
    return clean


def _run_fig7(params: Mapping[str, Any]):
    from repro.experiments import fig7

    return fig7.run(
        scenarios=params["scenarios"],
        months=params["months"],
        r_min=params["r_min"],
        r_max=params["r_max"],
        step=params["step"],
    )


def _run_fig8(params: Mapping[str, Any]):
    from repro.experiments import fig8

    return fig8.run(
        scenarios=params["scenarios"],
        months=params["months"],
        r_min=params["r_min"],
        r_max=params["r_max"],
        step=params["step"],
    )


def _validate_fig10(params: Mapping[str, Any]) -> dict[str, Any]:
    clean = _validate_sweep(params)
    raw = params.get("clusters", [2, 3])
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ServiceError(
            f"parameter 'clusters' must be a non-empty list, got {raw!r}",
            code="bad-params",
        )
    clean["clusters"] = [_as_int({"n": n}, "n", 0, low=1) for n in raw]
    return clean


def _run_fig10(params: Mapping[str, Any]):
    from repro.experiments import fig10

    return fig10.run(
        scenarios=params["scenarios"],
        months=params["months"],
        cluster_counts=tuple(params["clusters"]),
        r_min=params["r_min"],
        r_max=params["r_max"],
        step=params["step"],
    )


def _validate_fig9(params: Mapping[str, Any]) -> dict[str, Any]:
    return {
        "clusters": _as_int(params, "clusters", 2),
        "resources": _as_int(params, "resources", 25),
        "scenarios": _as_int(params, "scenarios", 4),
        "months": _as_int(params, "months", 6),
        "heuristic": _as_heuristic(params),
    }


def _run_fig9(params: Mapping[str, Any]):
    from repro.experiments import fig9_protocol
    from repro.experiments.results_io import GenericResult
    from repro.platform.benchmarks import benchmark_grid

    result = fig9_protocol.run(
        grid=benchmark_grid(params["clusters"], params["resources"]),
        scenarios=params["scenarios"],
        months=params["months"],
        heuristic=params["heuristic"],
    )
    return GenericResult(
        kind="fig9",
        data={
            "makespan": result.campaign.makespan,
            "predicted_makespan": result.campaign.predicted_makespan,
            "participants": list(result.participants),
            "message_kinds": result.kinds_in_order(),
            "messages": [
                {
                    "sender": entry.sender,
                    "receiver": entry.receiver,
                    "kind": entry.kind,
                    "nbytes": entry.nbytes,
                }
                for entry in result.log
            ],
        },
    )


def _validate_grid_sweep(params: Mapping[str, Any]) -> dict[str, Any]:
    clean = _validate_sweep(params)
    raw_clusters = params.get("clusters", ["sagittaire"])
    if not isinstance(raw_clusters, (list, tuple)) or not raw_clusters:
        raise ServiceError(
            f"parameter 'clusters' must be a non-empty list of cluster "
            f"names, got {raw_clusters!r}",
            code="bad-params",
        )
    clean["clusters"] = [str(name) for name in raw_clusters]
    raw_heuristics = params.get("heuristics", list(_HEURISTICS))
    if not isinstance(raw_heuristics, (list, tuple)) or not raw_heuristics:
        raise ServiceError(
            f"parameter 'heuristics' must be a non-empty list, "
            f"got {raw_heuristics!r}",
            code="bad-params",
        )
    for name in raw_heuristics:
        if name not in _HEURISTICS:
            raise ServiceError(
                f"unknown heuristic {name!r}; expected one of {_HEURISTICS}",
                code="bad-params",
            )
    clean["heuristics"] = [str(name) for name in raw_heuristics]
    # Jobs already run inside a pool worker, so the sweep itself stays
    # serial by default; opt into nested workers explicitly if the
    # deployment allows it.
    clean["workers"] = _as_int(params, "workers", 0, low=0)
    clean["chunk_size"] = _as_int(params, "chunk_size", 32)
    return clean


def _run_grid_sweep(params: Mapping[str, Any]):
    from repro.experiments.sweep import SweepGrid, run_sweep

    grid = SweepGrid.from_ranges(
        clusters=tuple(params["clusters"]),
        r_min=params["r_min"],
        r_max=params["r_max"],
        step=params["step"],
        scenarios=(params["scenarios"],),
        months=(params["months"],),
        heuristics=tuple(params["heuristics"]),
    )
    return run_sweep(
        grid,
        workers=params["workers"] or None,
        chunk_size=params["chunk_size"],
    )


def _validate_faults(params: Mapping[str, Any]) -> dict[str, Any]:
    clean = {
        "clusters": _as_int(params, "clusters", 3),
        "resources": _as_int(params, "resources", 40),
        "scenarios": _as_int(params, "scenarios", 10),
        "months": _as_int(params, "months", 12),
        "heuristic": _as_heuristic(params),
        "seed": _as_int(params, "seed", 0, low=0),
        "mtbf_hours": _as_float(params, "mtbf_hours", 6.0, low=1e-6),
        "mttr_hours": _as_float(params, "mttr_hours", 1.0, low=1e-6),
        "outages_only": bool(params.get("outages_only", False)),
    }
    events = params.get("events")
    if events is not None:
        if not isinstance(events, (list, tuple)):
            raise ServiceError(
                f"parameter 'events' must be a list of fault events, "
                f"got {events!r}",
                code="bad-params",
            )
        from repro.exceptions import ConfigurationError
        from repro.faults.trace import FaultTrace

        try:
            FaultTrace.from_dicts(events)
        except ConfigurationError as exc:
            raise ServiceError(
                f"invalid fault event list: {exc}", code="bad-params"
            ) from None
        clean["events"] = [dict(entry) for entry in events]
    else:
        clean["events"] = None
    return clean


def _run_faults(params: Mapping[str, Any]):
    from repro.experiments.results_io import GenericResult
    from repro.faults.trace import FaultProfile, FaultTrace, generate_trace
    from repro.middleware.recovery import run_campaign_with_faults
    from repro.platform.benchmarks import benchmark_grid

    grid = benchmark_grid(params["clusters"], params["resources"])
    scenarios, months = params["scenarios"], params["months"]
    heuristic = params["heuristic"]
    baseline = run_campaign_with_faults(
        grid, scenarios, months, FaultTrace(), heuristic=heuristic
    )
    if params["events"] is not None:
        trace = FaultTrace.from_dicts(params["events"])
    else:
        profile = (
            FaultProfile.outages_only(
                params["mtbf_hours"] * 3600.0, params["mttr_hours"] * 3600.0
            )
            if params["outages_only"]
            else FaultProfile(
                mtbf_seconds=params["mtbf_hours"] * 3600.0,
                mttr_seconds=params["mttr_hours"] * 3600.0,
            )
        )
        trace = generate_trace(
            {name: profile for name in grid.names},
            baseline.makespan,
            params["seed"],
        )
    report = run_campaign_with_faults(
        grid, scenarios, months, trace, heuristic=heuristic
    )
    return GenericResult(
        kind="faults",
        data={
            "original_makespan": report.original_makespan,
            "makespan": report.makespan,
            "delay": report.delay,
            "replans": report.replans,
            "months_lost": report.months_lost,
            "lost_work_seconds": report.lost_work_seconds,
            "seed": params["seed"],
            "heuristic": heuristic,
            "scenarios": scenarios,
            "months": months,
            "trace": trace.to_dicts(),
            "events": [
                {
                    "kind": outcome.event.kind.value,
                    "cluster": outcome.event.cluster,
                    "at_time": outcome.event.at_time,
                    "applied": outcome.applied,
                    "reason": outcome.reason,
                    "interrupted": list(outcome.interrupted),
                    "reassignment": {
                        str(s): t for s, t in outcome.reassignment.items()
                    },
                    "months_lost": outcome.months_lost,
                    "makespan_after": outcome.makespan_after,
                }
                for outcome in report.events
            ],
        },
    )


def _validate_arena(params: Mapping[str, Any]) -> dict[str, Any]:
    from repro.exceptions import ConfigurationError
    from repro.schedulers.arena import ARENA_PRESETS
    from repro.schedulers.base import list_schedulers

    preset = str(params.get("preset", "fig7"))
    if preset not in ARENA_PRESETS:
        raise ServiceError(
            f"unknown arena preset {preset!r}; "
            f"expected one of {tuple(sorted(ARENA_PRESETS))}",
            code="bad-params",
        )
    registered = list_schedulers()
    raw_schedulers = params.get("schedulers", "all")
    if raw_schedulers == "all":
        schedulers = list(registered)
    elif isinstance(raw_schedulers, (list, tuple)) and raw_schedulers:
        for name in raw_schedulers:
            if name not in registered:
                raise ServiceError(
                    f"unknown scheduler {name!r}; "
                    f"registered: {sorted(registered)}",
                    code="bad-params",
                )
        schedulers = [str(name) for name in raw_schedulers]
    else:
        raise ServiceError(
            f"parameter 'schedulers' must be 'all' or a non-empty list, "
            f"got {raw_schedulers!r}",
            code="bad-params",
        )
    raw_faults = params.get("fault_seeds", [])
    if not isinstance(raw_faults, (list, tuple)):
        raise ServiceError(
            f"parameter 'fault_seeds' must be a list of integers, "
            f"got {raw_faults!r}",
            code="bad-params",
        )
    fault_seeds = [_as_int({"s": s}, "s", 0, low=0) for s in raw_faults]
    clean = {
        "preset": preset,
        "schedulers": schedulers,
        "fault_seeds": fault_seeds,
        "include_fault_free": bool(params.get("include_fault_free", True)),
        "seed": _as_int(params, "seed", 0, low=0),
        "scenarios": _as_int(params, "scenarios", 10),
        "months": _as_int(params, "months", 12),
        "mtbf_hours": _as_float(params, "mtbf_hours", 6.0, low=1e-6),
        "mttr_hours": _as_float(params, "mttr_hours", 1.0, low=1e-6),
        # Same stance as the sweep job: already inside a pool worker,
        # so the race stays serial unless the deployment opts in.
        "workers": _as_int(params, "workers", 0, low=0),
        "chunk_size": _as_int(params, "chunk_size", 16),
    }
    for key in ("r_min", "r_max", "step"):
        # None (absent or explicit) means "use the preset's value" —
        # kept as None so validation stays idempotent under the
        # re-validation execute_job performs.
        clean[key] = (
            None if params.get(key) is None else _as_int(params, key, 0)
        )
    if (
        clean["r_min"] is not None
        and clean["r_max"] is not None
        and clean["r_max"] < clean["r_min"]
    ):
        raise ServiceError(
            f"r_max ({clean['r_max']}) must be >= r_min ({clean['r_min']})",
            code="bad-params",
        )
    if not clean["fault_seeds"] and not clean["include_fault_free"]:
        raise ServiceError(
            "a race needs fault_seeds and/or include_fault_free=True",
            code="bad-params",
        )
    try:
        _arena_grid(clean)
    except ConfigurationError as exc:
        raise ServiceError(str(exc), code="bad-params") from None
    return clean


def _arena_grid(params: Mapping[str, Any]):
    from repro.schedulers.arena import ArenaGrid

    return ArenaGrid.from_preset(
        params["preset"],
        schedulers=tuple(params["schedulers"]),
        fault_seeds=tuple(params["fault_seeds"]),
        include_fault_free=params["include_fault_free"],
        seed=params["seed"],
        r_min=params["r_min"],
        r_max=params["r_max"],
        step=params["step"],
        scenarios=params["scenarios"],
        months=params["months"],
        mtbf_hours=params["mtbf_hours"],
        mttr_hours=params["mttr_hours"],
    )


def _run_arena(params: Mapping[str, Any]):
    from repro.schedulers.arena import run_arena

    return run_arena(
        _arena_grid(params),
        workers=params["workers"] or None,
        chunk_size=params["chunk_size"],
    )


def _validate_sleep(params: Mapping[str, Any]) -> dict[str, Any]:
    try:
        seconds = float(params.get("seconds", 0.0))
    except (TypeError, ValueError):
        raise ServiceError(
            f"parameter 'seconds' must be a number, "
            f"got {params.get('seconds')!r}",
            code="bad-params",
        ) from None
    if seconds < 0:
        raise ServiceError(
            f"parameter 'seconds' must be >= 0, got {seconds}",
            code="bad-params",
        )
    return {"seconds": seconds, "fail": bool(params.get("fail", False))}


def _run_sleep(params: Mapping[str, Any]):
    from repro.experiments.results_io import GenericResult

    if params["seconds"]:
        time.sleep(params["seconds"])
    if params["fail"]:
        raise ServiceError("sleep job asked to fail", code="injected")
    return GenericResult(kind="sleep", data={"slept": params["seconds"]})


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JobKind:
    """One unit of work the service can execute."""

    name: str
    description: str
    validate: Callable[[Mapping[str, Any]], dict[str, Any]]
    run: Callable[[Mapping[str, Any]], Any]


_KINDS: dict[str, JobKind] = {
    kind.name: kind
    for kind in (
        JobKind(
            "campaign",
            "full middleware campaign on a benchmark grid",
            _validate_campaign,
            _run_campaign,
        ),
        JobKind(
            "simulate",
            "single-cluster ensemble simulation",
            _validate_simulate,
            _run_simulate,
        ),
        JobKind(
            "fig7",
            "optimal-grouping sweep (Figure 7)",
            _validate_sweep,
            _run_fig7,
        ),
        JobKind(
            "fig8",
            "homogeneous-cluster gains sweep (Figure 8)",
            _validate_sweep,
            _run_fig8,
        ),
        JobKind(
            "fig10",
            "grid gains sweep with repartition (Figure 10)",
            _validate_fig10,
            _run_fig10,
        ),
        JobKind(
            "fig9",
            "live protocol trace (Figure 9)",
            _validate_fig9,
            _run_fig9,
        ),
        JobKind(
            "sweep",
            "declarative parameter-grid sweep through the memoized kernels",
            _validate_grid_sweep,
            _run_grid_sweep,
        ),
        JobKind(
            "faults",
            "campaign replanned through a seeded (or explicit) fault trace",
            _validate_faults,
            _run_faults,
        ),
        JobKind(
            "arena",
            "scheduler race across a figure-shaped grid and fault traces",
            _validate_arena,
            _run_arena,
        ),
        JobKind(
            "sleep",
            "diagnostic no-op job (optionally failing) for tests and benchmarks",
            _validate_sleep,
            _run_sleep,
        ),
    )
}


def job_kinds() -> tuple[JobKind, ...]:
    """Every registered job kind, in registration order."""
    return tuple(_KINDS.values())


def validate_job(kind: str, params: Mapping[str, Any]) -> dict[str, Any]:
    """Check a submission and return its normalized parameters.

    Raises :class:`~repro.exceptions.ServiceError` with code
    ``unknown-kind`` or ``bad-params``; the server maps these straight
    to typed wire errors, so invalid work is refused before it touches
    the queue.
    """
    job = _KINDS.get(kind)
    if job is None:
        raise ServiceError(
            f"unknown job kind {kind!r}; "
            f"expected one of {tuple(_KINDS)}",
            code="unknown-kind",
        )
    if not isinstance(params, Mapping):
        raise ServiceError(
            f"params must be an object, got {type(params).__name__}",
            code="bad-params",
        )
    return job.validate(params)


def execute_job(kind: str, params: dict[str, Any]) -> str:
    """Run one job to completion; the worker-process entry point.

    Returns the result serialized with
    :func:`repro.experiments.results_io.dump_result`.  Library errors
    propagate as :class:`~repro.exceptions.ReproError` subclasses —
    they pickle cleanly back to the worker, which decides between
    retry and terminal failure.
    """
    from repro.experiments.results_io import dump_result

    clean = validate_job(kind, params)
    try:
        result = _KINDS[kind].run(clean)
    except ReproError:
        raise
    except Exception as exc:  # pragma: no cover - defensive normalization
        raise ServiceError(
            f"job kind {kind!r} crashed: {exc!r}", code="job-crashed"
        ) from exc
    return dump_result(result)


def execute_job_traced(
    kind: str,
    params: dict[str, Any],
    trace: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Run one job inside a child-local observability session.

    The cross-process half of trace propagation: ``trace`` is a
    :meth:`~repro.obs.context.TraceContext.to_wire` dict minted at
    submit time.  It is re-hydrated here — inside the worker's job
    child — so the job's own instrumentation (campaign spans, SeD
    execution spans, planner spans) records under the same trace as
    the worker that sent it.  The child's span buffer travels back in
    the returned envelope, which stays picklable::

        {"result": <dump_result string>,
         "spans": [<Chrome complete-span event dicts>],
         "worker_pid": <os pid of this child>}

    The worker grafts the spans onto its own tracer
    (``pid=WORKER_PID``, tid = the child's os pid) and persists only
    ``result``, so the store contract of :func:`execute_job` is
    unchanged.  On failure the exception propagates exactly as from
    :func:`execute_job` (the attempt's spans are dropped with the
    child's session — the worker's ``service.job`` span still
    records the failed attempt).
    """
    from repro import obs
    from repro.obs.context import TraceContext, use_trace

    context = TraceContext.from_wire(trace) if trace is not None else None
    with obs.session() as (_registry, tracer):
        with use_trace(context):
            tags = context.tag_args() if context is not None else {}
            with obs.span("service.worker", kind=kind, **tags):
                result = execute_job(kind, params)
        spans = [span.as_event() for span in tracer.spans]
    return {"result": result, "spans": spans, "worker_pid": os.getpid()}
