"""Command-line interface: ``repro-oa`` (or ``python -m repro.cli``).

Subcommands::

    repro-oa fig1                     # application model (Figures 1-2)
    repro-oa fig7  [--months 60 ...]  # optimal grouping staircase
    repro-oa fig8  [--step 1 ...]     # homogeneous gains, mean ± std
    repro-oa fig10 [--step 4 ...]     # grid gains with Algorithm 1
    repro-oa sweep [--out sweep.ndjson ...]  # batched resumable grid sweep
    repro-oa arena [--grids fig7 --schedulers all --faults 7]  # scheduler race
    repro-oa ablations                # design-decision studies
    repro-oa simulate  --cluster sagittaire --resources 53 ...
    repro-oa campaign  --clusters 3 --resources 40 ...
    repro-oa recover   --fail chti --at-hours 5 ...
    repro-oa faults    --seed 7 --mtbf-hours 6 [--resilience]
    repro-oa report    [--full] [--output report.md]
    repro-oa report    RUN_ID --db runs.db [--output run.html]  # HTML run report
    repro-oa report    sweep.ndjson                  # HTML sweep-journal report
    repro-oa bench     [--quick] [--update-baseline] # continuous benchmarks
    repro-oa info                     # benchmark cluster database
    repro-oa obs summary m.json       # digest a --metrics-out dump
    repro-oa obs trace t.json         # digest a --trace-out file

Campaign service (:mod:`repro.service`)::

    repro-oa serve   --db runs.db [--port 4321] [--workers 2]
    repro-oa submit  --kind campaign --param clusters=3 [--wait]
    repro-oa status  RUN_ID
    repro-oa result  RUN_ID
    repro-oa runs    [--state queued]
    repro-oa cancel  RUN_ID

Figure subcommands accept ``--csv PATH`` to dump the plotted series for
external plotting tools.  ``simulate``, ``campaign``, ``recover``, and
the figure sweeps accept ``--metrics-out PATH`` / ``--trace-out PATH``
to collect the run's metrics registry and span trace
(:mod:`repro.obs`); ``--trace-out`` writes Chrome Trace Event JSON, or
JSONL when the path ends in ``.jsonl``.  ``--log LEVEL`` (or the
``REPRO_LOG`` environment variable) turns on JSON structured logging.

Layout: the root parser lists every verb of :data:`VERBS`; one module
per verb group declares its verbs' options next to their handlers in a
``register`` function, binding each handler with ``set_defaults(run=)``.
:func:`main` imports only the module of the verb it runs, and
:func:`build_parser` registers every module through the same calls.
"""

from __future__ import annotations

import argparse
from contextlib import nullcontext
from importlib import import_module
from typing import Iterable, Sequence

from repro import obs
from repro._version import __version__
from repro.exceptions import ServiceError

__all__ = ["add_obs_flags", "build_parser", "finalize_obs", "main", "parse_command"]

#: Every verb, in help order: name -> (its module under ``repro.cli``, help).
VERBS: dict[str, tuple[str, str]] = {
    "fig1": ("figures", "application model check (Figures 1-2)"),
    "fig3to6": ("figures", "schedule-shape phenomena with Gantt proofs (Figures 3-6)"),
    "fig9": ("figures", "protocol sequence diagram from a live run (Figure 9)"),
    "fig7": ("figures", "optimal grouping vs resources (Figure 7)"),
    "fig8": ("figures", "homogeneous-cluster gains (Figure 8)"),
    "fig10": ("figures", "grid gains with repartition (Figure 10)"),
    "sweep": ("grid", "batched parameter-grid sweep through the memoized kernels"),
    "arena": ("grid", "race registered schedulers across figure grids and fault traces"),
    "ablations": ("figures", "design-decision ablation studies"),
    "simulate": ("campaign", "simulate one cluster schedule"),
    "campaign": ("campaign", "full middleware campaign on a grid"),
    "recover": ("campaign", "campaign with a mid-flight cluster failure"),
    "faults": ("campaign", "campaign replanned through a seeded multi-failure trace"),
    "generic": (
        "campaign", "schedule a generic moldable-chain workload (future-work extension)"
    ),
    "report": (
        "report",
        "reproduction report (Markdown), or a self-contained HTML "
        "run/sweep report when given a run id or journal path",
    ),
    "bench": (
        "bench",
        "continuous benchmarks: BENCH_*.json artifacts gated against "
        "benchmarks/baseline.json (exit 2 on regression)",
    ),
    "info": ("info", "show the benchmark cluster database"),
    "lint": ("lint", "run reprolint, the determinism & invariant checker"),
    "serve": ("service", "run the persistent campaign service (repro.service)"),
    "worker": ("service", "run one fleet worker against a shared run store"),
    "health": ("service", "probe a running service; exit 0 when healthy, 1 otherwise"),
    "submit": ("service", "queue a job on a running service"),
    "status": ("service", "show one run's state and attempts"),
    "result": ("service", "fetch a finished run's result"),
    "runs": ("service", "list runs known to the service"),
    "cancel": ("service", "cancel a queued run"),
    "obs": ("info", "observability utilities"),
}


def _parser(
    modules: Iterable[str], *, verb_help: bool = True
) -> argparse.ArgumentParser:
    """The root parser with every verb, and ``modules``' verbs' options."""
    parser = argparse.ArgumentParser(
        prog="repro-oa",
        description=(
            "Reproduction of 'Ocean-Atmosphere Modelization over the Grid' "
            "(Caniou et al., ICPP 2008)"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--log", metavar="LEVEL", default=None,
        help=(
            "emit structured JSON logs at LEVEL (debug/info/warning/error); "
            "defaults to the REPRO_LOG environment variable"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verbs = {
        name: sub.add_parser(name, help=text, add_help=verb_help)
        for name, (_, text) in VERBS.items()
    }
    for module in modules:
        import_module(f"{__name__}.{module}").register(verbs)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full argument parser (exposed for the CLI tests)."""
    return _parser(dict.fromkeys(module for module, _ in VERBS.values()))


def add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--metrics-out``/``--trace-out`` flags.

    Every long-running subcommand (simulate, campaign, recover, the
    figure sweeps, and the campaign service) takes the same two
    observability outputs; pair with :func:`finalize_obs` to write
    them after the run.
    """
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the run's metrics registry as JSON",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help=(
            "write the run's span trace: Chrome trace-event JSON, or JSONL "
            "when PATH ends in .jsonl"
        ),
    )


def obs_scope(args: argparse.Namespace):
    """An observability session if ``args`` asks for its output, else a no-op."""
    wanted = getattr(args, "metrics_out", None) or getattr(args, "trace_out", None)
    return obs.session() if wanted else nullcontext()


def finalize_obs(args: argparse.Namespace, records=()) -> list[str]:
    """Write the requested metrics/trace files; return status lines.

    ``records`` are simulated :class:`~repro.simulation.events.TaskRecord`
    entries to project into the trace — one span per scheduled task,
    on the simulated-schedule timeline (1 s -> 1 us, tid = first
    processor of the task's range).
    """
    parts: list[str] = []
    if getattr(args, "trace_out", None):
        tracer = obs.tracer()
        for r in records:
            tracer.add_complete_span(
                f"{r.kind}(s{r.scenario},m{r.month})",
                ts=r.start,
                dur=r.duration,
                tid=r.procs_start,
                kind=r.kind,
                scenario=r.scenario,
                month=r.month,
                group=r.group,
            )
        text = (
            tracer.to_jsonl()
            if args.trace_out.endswith(".jsonl")
            else tracer.to_chrome_json()
        )
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        parts.append(
            f"span trace written to {args.trace_out} "
            f"({len(tracer.spans)} spans; open JSON in Perfetto)"
        )
    if getattr(args, "metrics_out", None):
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(obs.registry().to_json() + "\n")
        parts.append(f"metrics written to {args.metrics_out}")
    return parts


def parse_command(argv: Sequence[str] | None = None) -> argparse.Namespace:
    """Parse ``argv``; a job-kind verb also gets its validated ``params``.

    Only the module of the verb ``argv`` names is imported: a root
    parser whose verbs take no options finds the verb first.
    ``args.params`` is what :func:`~repro.service.workers.validate_job`
    returns for the verb's flags — a list of them, one per value, for a
    verb that repeats a parameter (``arena --grids``).  Every rejection,
    per value or cross-field, exits through argparse's error path (exit
    code 2) before any work starts.
    """
    verb = _parser((), verb_help=False).parse_known_args(argv)[0].command
    parser = _parser((VERBS[verb][0],))
    args = parser.parse_args(argv)
    if hasattr(args, "job_params"):
        try:
            args.params = args.job_params(args)
        except ServiceError as exc:
            parser.error(f"{args.command}: {exc}")
    return args


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = parse_command(argv)
    obs.configure_logging(args.log)
    result = args.run(args)
    if isinstance(result, int):
        # Commands with their own exit-code contract (lint) print
        # their report themselves.
        return result
    print(result)
    return 0
