"""Job kinds, their parameter tables, and the job child's entry point.

A *job kind* names a unit of work the campaign service knows how to
run: a full middleware campaign, a single-cluster simulation, a figure
sweep, the fig9 protocol trace.  Each kind declares its parameters
once, as a tuple of :class:`Param` entries (name, value type, default,
lower bound or choices, help text).  That table is the whole contract:

* :func:`validate_job` interprets it at submission time, so the server
  rejects garbage before it is queued, and again when a worker runs the
  job (validation is idempotent: validated params validate to
  themselves);
* ``repro-oa`` derives the flags of the verb that shares the kind's
  name from it (``repro-oa fig7 --help`` lists the ``fig7`` kind's
  parameters, dashed).

Only the cross-field rules (``r_max >= r_min``, a constructible arena
grid, a parseable fault-event list) stay as code.  Every kind produces
a result object that :func:`repro.experiments.results_io.dump_result`
can serialize — one serializer for every job kind is what lets the run
store treat results uniformly.

:func:`execute_job` runs one job and returns that serialized string.
:func:`execute_in_child` is the one function a
:class:`~repro.service.fleet.FleetWorker` ships to its job child —
whether the worker is a thread of the server's pool or a ``repro-oa
worker`` process.  Both are module-level (picklable) and take only
plain values.  Job kinds therefore must stay host-agnostic: pure
functions of their validated parameters, no reliance on which process
or machine runs them — that is what makes a lease reassignment
mid-campaign safe.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, get_args, get_origin

from repro.core.heuristics import HeuristicName
from repro.exceptions import ConfigurationError, ReproError, ServiceError

__all__ = [
    "JobKind",
    "Param",
    "arena_grid",
    "execute_in_child",
    "execute_job",
    "fault_report",
    "fig9_exchange",
    "job_kind",
    "job_kinds",
    "sweep_grid",
    "validate_job",
]

_HEURISTICS = tuple(h.value for h in HeuristicName)


def _bad(message: str) -> ServiceError:
    return ServiceError(message, code="bad-params")


@dataclass(frozen=True)
class Param:
    """One declared job parameter.

    ``type`` is ``int``, ``float``, ``bool``, ``str``, or ``list[T]`` of
    one of these (``list[dict]`` for the wire-only fault-event list).
    ``default`` fills an absent parameter; a zero-argument callable
    stands for a value a library module owns, read on first use so the
    service imports no experiment code up front.  A ``None`` default
    lets the value stay ``None`` ("use the library's value").  ``low``
    bounds numbers, ``choices`` lists the allowed values (or is a
    callable returning them); both apply to each element of a list.  A
    list may be empty only when its default is.  ``bare`` also accepts
    a lone value as a one-element list — the wire form of parameters
    that used to be scalars.  ``flag`` is the CLI spelling without
    dashes: ``""`` derives it from ``name``, ``None`` keeps the
    parameter wire-only.
    """

    name: str
    type: Any
    default: Any
    help: str = ""
    low: float | None = None
    choices: Any = None
    bare: bool = False
    flag: str | None = ""

    @property
    def many(self) -> bool:
        """Whether the value is a list."""
        return get_origin(self.type) is list

    @property
    def cli_flag(self) -> str | None:
        """The ``--flag`` spelling (without dashes), or ``None``."""
        if self.flag == "":
            return self.name.replace("_", "-")
        return self.flag

    def convert_item(self, raw: Any) -> Any:
        """One scalar value (or list element), converted and checked."""
        item_type = get_args(self.type)[0] if self.many else self.type
        try:
            value = item_type(raw)
        except (TypeError, ValueError):
            raise _bad(
                f"parameter {self.name!r} must be {item_type.__name__}, "
                f"got {raw!r}"
            ) from None
        if self.low is not None and value < self.low:
            raise _bad(
                f"parameter {self.name!r} must be >= {self.low}, got {value}"
            )
        choices = self.choices() if callable(self.choices) else self.choices
        if choices is not None and value not in choices:
            raise _bad(
                f"unknown {self.name} {value!r}; "
                f"expected one of {tuple(choices)}"
            )
        return value

    def convert(self, raw: Any) -> Any:
        """The whole value, converted and checked."""
        if raw is None and self.default is None:
            return None
        if not self.many:
            return self.convert_item(raw)
        if self.bare and not isinstance(raw, (list, tuple)):
            raw = [raw]
        if not isinstance(raw, (list, tuple)) or (not raw and self.default):
            shape = "a non-empty list" if self.default else "a list"
            raise _bad(f"parameter {self.name!r} must be {shape}, got {raw!r}")
        return [self.convert_item(item) for item in raw]

    def default_value(self) -> Any:
        """The default, with a library-owned one read now."""
        return self.default() if callable(self.default) else self.default


# ---------------------------------------------------------------------------
# Library-owned values, read on first use.
# ---------------------------------------------------------------------------


def _sweep_chunk_size() -> int:
    from repro.experiments.sweep import DEFAULT_CHUNK_SIZE

    return DEFAULT_CHUNK_SIZE


def _arena_chunk_size() -> int:
    from repro.schedulers.arena import DEFAULT_CHUNK_SIZE

    return DEFAULT_CHUNK_SIZE


def _arena_presets() -> tuple[str, ...]:
    from repro.schedulers.arena import ARENA_PRESETS

    return tuple(ARENA_PRESETS)


# ---------------------------------------------------------------------------
# Parameter tables.  Defaults are the paper's (see README/EXPERIMENTS).
# ---------------------------------------------------------------------------


def _count(
    name: str, default: Any, help: str, *, type: Any = int, bare: bool = False
) -> Param:
    """A positive integer (or list of them) parameter."""
    return Param(name, type, default, help, low=1, bare=bare)


_HEURISTIC = Param(
    "heuristic", str, "knapsack", "processor-grouping heuristic",
    choices=_HEURISTICS,
)


def _ensemble_params(scenarios: int, months: int) -> tuple[Param, ...]:
    return (
        _count("scenarios", scenarios, "ensemble scenarios (NS)"),
        _count("months", months, "months per scenario (NM)"),
        _HEURISTIC,
    )


def _campaign_params(
    clusters: int, resources: int, scenarios: int, months: int
) -> tuple[Param, ...]:
    return (
        _count("clusters", clusters, "benchmark clusters in the grid"),
        _count("resources", resources, "processors per cluster"),
        *_ensemble_params(scenarios, months),
    )


def _range_params(r_max: int, step: int) -> tuple[Param, ...]:
    return (
        _count("r_min", 11, "smallest resource count R"),
        _count("r_max", r_max, "largest resource count R"),
        _count("step", step, "resource-count step"),
    )


def _figure_params(months: int, r_max: int, step: int) -> tuple[Param, ...]:
    return (
        _count("scenarios", 10, "ensemble scenarios (NS)"),
        _count("months", months, "months per scenario (NM)"),
        *_range_params(r_max, step),
    )


_FAULT_RATES = (
    Param("mtbf_hours", float, 6.0,
          "mean time between failures per cluster (hours)", low=1e-6),
    Param("mttr_hours", float, 1.0, "mean outage duration (hours)",
          low=1e-6),
)

#: Jobs already run inside a worker's child, so sweeps and races stay
#: serial unless the submission opts into nested worker processes.
_WORKERS = Param(
    "workers", int, 0, "fan chunks out over N worker processes (0 = serial)",
    low=0,
)

_SWEEP_PARAMS = (
    Param("clusters", list[str], ("sagittaire",), "benchmark cluster names"),
    *_range_params(120, 1),
    _count("scenarios", (10,), "NS values to sweep", type=list[int],
           bare=True),
    _count("months", (12,), "NM values to sweep", type=list[int], bare=True),
    Param("heuristics", list[str], _HEURISTICS, "heuristics to sweep",
          choices=_HEURISTICS),
    _WORKERS,
    _count("chunk_size", _sweep_chunk_size, "points per journaled chunk"),
)

_ARENA_PARAMS = (
    Param("preset", str, "fig7", "figure-shaped race presets",
          choices=_arena_presets, flag="grids"),
    Param("schedulers", list[str], ("all",),
          "registered scheduler names, or 'all'", bare=True),
    Param("fault_seeds", list[int], (),
          "seeded fault-trace entries for the fault axis", low=0,
          flag="faults"),
    Param("include_fault_free", bool, True,
          "race a fault-free entry on the fault axis", flag="no-fault-free"),
    Param("seed", int, 0, "seed handed to stochastic schedulers", low=0),
    *(
        _count(name, None, "override the preset's value")
        for name in ("r_min", "r_max", "step", "scenarios", "months")
    ),
    *_FAULT_RATES,
    _WORKERS,
    _count("chunk_size", _arena_chunk_size, "points per journaled chunk"),
)

_FAULTS_PARAMS = (
    *_campaign_params(3, 30, 9, 24),
    Param("seed", int, 0, "fault-trace seed", low=0),
    *_FAULT_RATES,
    Param("outages_only", bool, False,
          "no permanent crashes: every cluster eventually rejoins"),
    Param("events", list[dict], None, "explicit fault events", flag=None),
)


# ---------------------------------------------------------------------------
# Cross-field checks.
# ---------------------------------------------------------------------------


def _check_range(clean: dict[str, Any]) -> None:
    low, high = clean["r_min"], clean["r_max"]
    if low is not None and high is not None and high < low:
        raise _bad(f"r_max ({high}) must be >= r_min ({low})")


def _check_arena(clean: dict[str, Any]) -> None:
    _check_range(clean)
    if clean["schedulers"] == ["all"]:
        from repro.schedulers.base import list_schedulers

        clean["schedulers"] = list(list_schedulers())
    try:
        arena_grid(clean)  # also refuses an empty fault axis
    except ConfigurationError as exc:
        raise _bad(str(exc)) from None


def _check_events(clean: dict[str, Any]) -> None:
    if clean["events"] is None:
        return
    from repro.faults.trace import FaultTrace

    try:
        FaultTrace.from_dicts(clean["events"])
    except ConfigurationError as exc:
        raise _bad(f"invalid fault event list: {exc}") from None


# ---------------------------------------------------------------------------
# Library calls from validated params (shared with the CLI verbs).
# ---------------------------------------------------------------------------


def sweep_grid(params: Mapping[str, Any]):
    """The :class:`~repro.experiments.sweep.SweepGrid` a sweep job runs."""
    from repro.experiments.sweep import SweepGrid

    return SweepGrid.from_ranges(
        clusters=tuple(params["clusters"]),
        r_min=params["r_min"],
        r_max=params["r_max"],
        step=params["step"],
        scenarios=tuple(params["scenarios"]),
        months=tuple(params["months"]),
        heuristics=tuple(params["heuristics"]),
    )


def arena_grid(params: Mapping[str, Any]):
    """The :class:`~repro.schedulers.arena.ArenaGrid` an arena job races."""
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


def fault_report(params: Mapping[str, Any]):
    """Replan a campaign through the job's fault trace.

    The trace is the explicit ``events`` list when given, else one
    seeded from the MTBF/MTTR profile over the fault-free makespan.
    Returns ``(trace, report)``.
    """
    from repro.faults.trace import FaultProfile, FaultTrace, generate_trace
    from repro.middleware.recovery import run_campaign_with_faults
    from repro.platform.benchmarks import benchmark_grid

    grid = benchmark_grid(params["clusters"], params["resources"])
    campaign = (grid, params["scenarios"], params["months"])
    heuristic = params["heuristic"]
    if params["events"] is not None:
        trace = FaultTrace.from_dicts(params["events"])
    else:
        baseline = run_campaign_with_faults(
            *campaign, FaultTrace(), heuristic=heuristic
        )
        mtbf = params["mtbf_hours"] * 3600.0
        mttr = params["mttr_hours"] * 3600.0
        profile = (
            FaultProfile.outages_only(mtbf, mttr)
            if params["outages_only"]
            else FaultProfile(mtbf_seconds=mtbf, mttr_seconds=mttr)
        )
        trace = generate_trace(
            {name: profile for name in grid.names},
            baseline.makespan,
            params["seed"],
        )
    report = run_campaign_with_faults(*campaign, trace, heuristic=heuristic)
    return trace, report


def fig9_exchange(params: Mapping[str, Any]):
    """Run the Figure 9 protocol and capture its message exchange."""
    from repro.experiments import fig9_protocol
    from repro.platform.benchmarks import benchmark_grid

    return fig9_protocol.run(
        grid=benchmark_grid(params["clusters"], params["resources"]),
        scenarios=params["scenarios"],
        months=params["months"],
        heuristic=params["heuristic"],
    )


# ---------------------------------------------------------------------------
# Job implementations (all module-level: they run in worker processes).
# ---------------------------------------------------------------------------


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


def _run_fig7(params: Mapping[str, Any]):
    from repro.experiments import fig7

    return fig7.run(**params)


def _run_fig8(params: Mapping[str, Any]):
    from repro.experiments import fig8

    return fig8.run(**params)


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


def _run_fig9(params: Mapping[str, Any]):
    from repro.experiments.results_io import GenericResult

    result = fig9_exchange(params)
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
                for entry in result.campaign.messages
            ],
        },
    )


def _run_grid_sweep(params: Mapping[str, Any]):
    from repro.experiments.sweep import run_sweep

    return run_sweep(
        sweep_grid(params),
        workers=params["workers"] or None,
        chunk_size=params["chunk_size"],
    )


def _run_faults(params: Mapping[str, Any]):
    from repro.experiments.results_io import GenericResult

    trace, report = fault_report(params)
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
            "heuristic": params["heuristic"],
            "scenarios": params["scenarios"],
            "months": params["months"],
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


def _run_arena(params: Mapping[str, Any]):
    from repro.schedulers.arena import run_arena

    return run_arena(
        arena_grid(params),
        workers=params["workers"] or None,
        chunk_size=params["chunk_size"],
    )


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
    """One unit of work the service can execute, and its parameters."""

    name: str
    description: str
    params: tuple[Param, ...]
    run: Callable[[Mapping[str, Any]], Any]
    #: Cross-field rules; may also normalize the validated dict.
    check: Callable[[dict[str, Any]], None] | None = None

    def validate(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """Interpret the parameter table over ``params``."""
        clean = {
            p.name: p.convert(
                params[p.name] if p.name in params else p.default_value()
            )
            for p in self.params
        }
        if self.check is not None:
            self.check(clean)
        return clean


_KINDS: dict[str, JobKind] = {
    kind.name: kind
    for kind in (
        JobKind(
            "campaign",
            "full middleware campaign on a benchmark grid",
            _campaign_params(3, 40, 10, 12),
            _run_campaign,
        ),
        JobKind(
            "simulate",
            "single-cluster ensemble simulation",
            (
                Param("cluster", str, "sagittaire", "benchmark cluster name"),
                _count("resources", 53, "processors on the cluster"),
                *_ensemble_params(10, 12),
            ),
            _run_simulate,
        ),
        JobKind(
            "fig7",
            "optimal-grouping sweep (Figure 7)",
            _figure_params(60, 120, 1),
            _run_fig7,
            _check_range,
        ),
        JobKind(
            "fig8",
            "homogeneous-cluster gains sweep (Figure 8)",
            _figure_params(60, 120, 1),
            _run_fig8,
            _check_range,
        ),
        JobKind(
            "fig10",
            "grid gains sweep with repartition (Figure 10)",
            (
                *_figure_params(60, 99, 4),
                _count("clusters", (2, 3, 4, 5), "cluster counts to sweep",
                       type=list[int]),
            ),
            _run_fig10,
            _check_range,
        ),
        JobKind(
            "fig9",
            "live protocol trace (Figure 9)",
            _campaign_params(2, 25, 4, 6),
            _run_fig9,
        ),
        JobKind(
            "sweep",
            "declarative parameter-grid sweep through the memoized kernels",
            _SWEEP_PARAMS,
            _run_grid_sweep,
            _check_range,
        ),
        JobKind(
            "faults",
            "campaign replanned through a seeded (or explicit) fault trace",
            _FAULTS_PARAMS,
            _run_faults,
            _check_events,
        ),
        JobKind(
            "arena",
            "scheduler race across a figure-shaped grid and fault traces",
            _ARENA_PARAMS,
            _run_arena,
            _check_arena,
        ),
        JobKind(
            "sleep",
            "diagnostic no-op job (optionally failing) for tests and benchmarks",
            (
                Param("seconds", float, 0.0, "how long to sleep", low=0.0),
                Param("fail", bool, False, "raise after sleeping"),
            ),
            _run_sleep,
        ),
    )
}


def job_kinds() -> tuple[JobKind, ...]:
    """Every registered job kind, in registration order."""
    return tuple(_KINDS.values())


def job_kind(kind: str) -> JobKind:
    """The registered job kind named ``kind``.

    Raises :class:`~repro.exceptions.ServiceError` with code
    ``unknown-kind`` for a name nobody registered.
    """
    job = _KINDS.get(kind)
    if job is None:
        raise ServiceError(
            f"unknown job kind {kind!r}; "
            f"expected one of {tuple(_KINDS)}",
            code="unknown-kind",
        )
    return job


def validate_job(kind: str, params: Mapping[str, Any]) -> dict[str, Any]:
    """Check a submission and return its normalized parameters.

    Raises :class:`~repro.exceptions.ServiceError` with code
    ``unknown-kind`` or ``bad-params``; the server maps these straight
    to typed wire errors, so invalid work is refused before it touches
    the queue.
    """
    job = job_kind(kind)
    if not isinstance(params, Mapping):
        raise _bad(f"params must be an object, got {type(params).__name__}")
    return job.validate(params)


def execute_job(kind: str, params: dict[str, Any]) -> str:
    """Run one job to completion and return its serialized result.

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


def execute_in_child(
    kind: str,
    params: dict[str, Any],
    trace: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """The job child's one entry point: :func:`execute_job`, maybe traced.

    Returns ``{"result": <dump_result string>}``.  When the worker
    passes ``trace`` — a :meth:`~repro.obs.context.TraceContext.to_wire`
    dict minted at submit time — the job runs inside a child-local
    observability session under that trace, so its own instrumentation
    (campaign spans, SeD execution spans, planner spans) records under
    the same trace as the worker that sent it, and the envelope also
    carries the span buffer::

        {"result": ..., "spans": [<Chrome complete-span event dicts>],
         "worker_pid": <os pid of this child>}

    The worker grafts the spans onto its own tracer (``pid=WORKER_PID``,
    tid = the child's os pid) and persists only ``result``.  An
    untraced job imports no span code.  On failure the exception
    propagates exactly as from :func:`execute_job` (a traced attempt's
    spans are dropped with the child's session — the worker's
    ``service.job`` span still records the failed attempt).
    """
    if trace is None:
        return {"result": execute_job(kind, params)}
    from repro import obs
    from repro.obs.context import TraceContext, use_trace

    context = TraceContext.from_wire(trace)
    with obs.session() as (_registry, tracer):
        with use_trace(context):
            with obs.span("service.worker", kind=kind, **context.tag_args()):
                result = execute_job(kind, params)
        spans = [span.as_event() for span in tracer.spans]
    return {"result": result, "spans": spans, "worker_pid": os.getpid()}
