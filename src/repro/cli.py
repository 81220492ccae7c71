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
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import Sequence

from repro._version import __version__

__all__ = ["add_obs_flags", "build_parser", "finalize_obs", "main", "parse_command"]


def build_parser() -> argparse.ArgumentParser:
    """The full argument parser (exposed for the CLI tests)."""
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

    sub.add_parser("fig1", help="application model check (Figures 1-2)")

    sub.add_parser("fig3to6", help="schedule-shape phenomena with Gantt proofs (Figures 3-6)")

    p9 = sub.add_parser(
        "fig9", help="protocol sequence diagram from a live run (Figure 9)"
    )
    _add_kind_flags(p9, "fig9")

    p7 = sub.add_parser("fig7", help="optimal grouping vs resources (Figure 7)")
    _add_figure_args(p7, "fig7")

    p8 = sub.add_parser("fig8", help="homogeneous-cluster gains (Figure 8)")
    _add_figure_args(p8, "fig8")
    p8.add_argument(
        "--workers", type=int, default=None,
        help="fan the sweep's chunks out over N worker processes",
    )

    p10 = sub.add_parser("fig10", help="grid gains with repartition (Figure 10)")
    _add_figure_args(p10, "fig10")

    psw = sub.add_parser(
        "sweep",
        help="batched parameter-grid sweep through the memoized kernels",
    )
    _add_kind_flags(psw, "sweep")
    _add_journal_args(psw)
    psw.add_argument(
        "--table", action="store_true",
        help="print every evaluated row, not just the summary",
    )
    add_obs_flags(psw)

    par = sub.add_parser(
        "arena",
        help="race registered schedulers across figure grids and fault traces",
    )
    _add_kind_flags(par, "arena", repeat="preset")
    _add_journal_args(par)
    par.add_argument(
        "--table", action="store_true",
        help="print every evaluated row, not just the standings",
    )
    add_obs_flags(par)

    sub.add_parser("ablations", help="design-decision ablation studies")

    ps = sub.add_parser("simulate", help="simulate one cluster schedule")
    _add_kind_flags(ps, "simulate")
    ps.add_argument("--gantt", action="store_true", help="render an ASCII Gantt chart")
    ps.add_argument(
        "--trace-json", metavar="PATH", default=None,
        help="export the schedule as Chrome/Perfetto trace-event JSON",
    )
    add_obs_flags(ps)

    pc = sub.add_parser("campaign", help="full middleware campaign on a grid")
    _add_kind_flags(pc, "campaign")
    pc.add_argument("--show-messages", action="store_true")
    add_obs_flags(pc)

    pr = sub.add_parser("recover", help="campaign with a mid-flight cluster failure")
    pr.add_argument("--clusters", type=int, default=3)
    pr.add_argument("--resources", type=int, default=30)
    pr.add_argument("--scenarios", type=int, default=10)
    pr.add_argument("--months", type=int, default=24)
    pr.add_argument("--fail", default="chti", help="name of the failing cluster")
    pr.add_argument(
        "--at-hours", type=float, default=5.0,
        help="failure time, hours into the campaign",
    )
    pr.add_argument(
        "--heuristic",
        default="knapsack",
        choices=["basic", "redistribute", "allpost_end", "knapsack"],
    )
    add_obs_flags(pr)

    pf = sub.add_parser(
        "faults",
        help="campaign replanned through a seeded multi-failure trace",
    )
    _add_kind_flags(pf, "faults")
    pf.add_argument(
        "--resilience", action="store_true",
        help=(
            "run the MTBF-sweep resilience study "
            "(experiments/resilience) instead of a single trace"
        ),
    )
    pf.add_argument(
        "--trials", type=int, default=3,
        help="traces averaged per MTBF point (with --resilience)",
    )
    add_obs_flags(pf)

    pg = sub.add_parser(
        "generic",
        help="schedule a generic moldable-chain workload (future-work extension)",
    )
    pg.add_argument(
        "--table", required=True,
        help="moldable timing table, e.g. '2:500,3:360,4:300' (procs:seconds)",
    )
    pg.add_argument("--post-seconds", type=float, default=60.0)
    pg.add_argument("--chains", type=int, default=4)
    pg.add_argument("--repeats", type=int, default=10)
    pg.add_argument("--resources", type=int, default=16)
    pg.add_argument(
        "--heuristic",
        default="all",
        choices=["all", "basic", "redistribute", "allpost_end", "knapsack"],
    )

    prep = sub.add_parser(
        "report",
        help=(
            "reproduction report (Markdown), or a self-contained HTML "
            "run/sweep report when given a run id or journal path"
        ),
    )
    prep.add_argument(
        "target", nargs="?", default=None,
        help=(
            "a service run id (with --db) or a sweep-journal path; "
            "omitted = the one-shot Markdown reproduction report"
        ),
    )
    prep.add_argument(
        "--full", action="store_true",
        help="EXPERIMENTS.md resolution (minutes) instead of quick (seconds)",
    )
    prep.add_argument(
        "--output", metavar="PATH", default=None,
        help="write the report to a file instead of stdout",
    )
    prep.add_argument(
        "--db", metavar="PATH", default="runs.db",
        help="run-store path backing a run-id target (default: runs.db)",
    )
    prep.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="--metrics-out dump to fold into the run report (cache hit rates)",
    )
    prep.add_argument(
        "--trace", metavar="PATH", default=None,
        help=(
            "Chrome trace file to fold into the run report "
            "(spans filtered to the run's trace id)"
        ),
    )

    pb = sub.add_parser(
        "bench",
        help=(
            "continuous benchmarks: BENCH_*.json artifacts gated against "
            "benchmarks/baseline.json (exit 2 on regression)"
        ),
    )
    pb.add_argument(
        "names", nargs="*", metavar="NAME",
        help="benchmarks to run (default: the whole quick tier)",
    )
    pb.add_argument(
        "--list", action="store_true", dest="list_specs",
        help="list registered benchmarks and exit",
    )
    pb.add_argument(
        "--quick", action="store_true",
        help="one repetition after one warm-up call (CI smoke; noisy numbers)",
    )
    pb.add_argument(
        "--out", metavar="DIR", default="bench_artifacts",
        help="directory for BENCH_<name>.json artifacts",
    )
    pb.add_argument(
        "--baseline", metavar="PATH", default="benchmarks/baseline.json",
        help="baseline to compare against (missing = comparison skipped)",
    )
    pb.add_argument(
        "--max-regression", type=float, default=None, metavar="PCT",
        help=(
            "adverse-drift budget in percent; default: the budget "
            "recorded in the baseline file"
        ),
    )
    pb.add_argument(
        "--repetitions", type=int, default=None,
        help="override every spec's repetition count",
    )
    pb.add_argument(
        "--warmup", type=int, default=None,
        help="override every spec's warmup count",
    )
    pb.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline file from this run's medians",
    )
    pb.add_argument(
        "--inject-slowdown", type=float, default=None, metavar="FACTOR",
        help=(
            "adversely scale every result by FACTOR before comparing "
            "(self-test: proves the regression gate fires)"
        ),
    )

    sub.add_parser("info", help="show the benchmark cluster database")

    plint = sub.add_parser(
        "lint",
        help="run reprolint, the determinism & invariant checker",
    )
    from repro.lintkit.cli import add_lint_arguments

    add_lint_arguments(plint)

    psrv = sub.add_parser(
        "serve", help="run the persistent campaign service (repro.service)"
    )
    psrv.add_argument(
        "--store", "--db", dest="store", metavar="URL", default="runs.db",
        help=(
            "run store (created if missing): a sqlite path, sqlite:PATH, "
            "postgres://DSN, or memory:// (default: runs.db)"
        ),
    )
    psrv.add_argument(
        "--reap-interval", type=float, default=1.0, metavar="SECONDS",
        help=(
            "lease reaper period for worker-fleet deployments "
            "(0 disables; default: 1.0)"
        ),
    )
    psrv.add_argument("--host", default="127.0.0.1")
    psrv.add_argument("--port", type=int, default=4321)
    psrv.add_argument(
        "--workers", type=int, default=2,
        help="local pool workers (concurrent jobs; 0 = fleet-only)",
    )
    psrv.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-job deadline; the job's child is killed past it "
        "(default: unlimited)",
    )
    psrv.add_argument(
        "--max-attempts", type=int, default=3,
        help="executions per run before it lands in 'failed'",
    )
    psrv.add_argument(
        "--chaos-rate", type=float, default=0.0, metavar="P",
        help=(
            "arm chaos testing: probability per job execution of an "
            "injected failure, split evenly over crash/timeout/error "
            "(default: 0 = off)"
        ),
    )
    psrv.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed for the deterministic chaos decision stream",
    )
    add_obs_flags(psrv)

    pwrk = sub.add_parser(
        "worker",
        help="run one fleet worker against a shared run store",
    )
    pwrk.add_argument(
        "--store", metavar="URL", default="runs.db",
        help=(
            "shared run store: a sqlite path, sqlite:PATH, "
            "postgres://DSN, or memory:// (default: runs.db)"
        ),
    )
    pwrk.add_argument(
        "--owner", default=None, metavar="ID",
        help="worker identity (default: worker-<pid>-<random>)",
    )
    pwrk.add_argument(
        "--lease-seconds", type=float, default=15.0,
        help="lease duration stamped on each claim (default: 15)",
    )
    pwrk.add_argument(
        "--heartbeat-interval", type=float, default=5.0,
        help="lease renewal period; must be < lease/2 (default: 5)",
    )
    pwrk.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-job deadline; the job's child is killed past it "
        "(default: unlimited)",
    )
    pwrk.add_argument(
        "--max-jobs", type=int, default=None, metavar="N",
        help="exit after N executed jobs (default: run until stopped)",
    )
    pwrk.add_argument(
        "--poll-seed", type=int, default=None,
        help="seed for the idle-poll and retry jitter stream",
    )
    pwrk.add_argument(
        "--fleet-chaos-rate", type=float, default=0.0, metavar="P",
        help=(
            "arm fleet chaos: probability per claimed job of an injected "
            "worker failure, split over kill/kill-heartbeat/partition "
            "(default: 0 = off)"
        ),
    )
    pwrk.add_argument(
        "--fleet-chaos-seed", type=int, default=0,
        help="seed for the deterministic fleet-chaos decision stream",
    )
    add_obs_flags(pwrk)

    phl = sub.add_parser(
        "health",
        help="probe a running service; exit 0 when healthy, 1 otherwise",
    )
    _add_service_endpoint(phl)

    psub = sub.add_parser("submit", help="queue a job on a running service")
    _add_service_endpoint(psub, timeout=False)
    from repro.service.workers import job_kinds

    psub.add_argument(
        "--kind", required=True,
        help="job kind: " + ", ".join(kind.name for kind in job_kinds()),
    )
    psub.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="job parameter; VALUE is parsed as JSON, falling back to text",
    )
    psub.add_argument(
        "--max-attempts", type=int, default=None,
        help="override the server's retry budget for this run",
    )
    psub.add_argument(
        "--wait", action="store_true",
        help="poll until the run reaches a terminal state",
    )
    psub.add_argument(
        "--timeout", type=float, default=600.0,
        help=(
            "--wait polling budget in seconds (also the per-request "
            "network timeout)"
        ),
    )

    pst = sub.add_parser("status", help="show one run's state and attempts")
    _add_service_endpoint(pst)
    pst.add_argument("run_id", help="run id returned by submit")

    pres = sub.add_parser("result", help="fetch a finished run's result")
    _add_service_endpoint(pres)
    pres.add_argument("run_id", help="run id returned by submit")

    pruns = sub.add_parser("runs", help="list runs known to the service")
    _add_service_endpoint(pruns)
    pruns.add_argument(
        "--state", default=None,
        choices=["queued", "running", "done", "failed", "cancelled"],
    )
    pruns.add_argument("--limit", type=int, default=20)

    pcan = sub.add_parser("cancel", help="cancel a queued run")
    _add_service_endpoint(pcan)
    pcan.add_argument("run_id", help="run id returned by submit")

    po = sub.add_parser("obs", help="observability utilities")
    obs_sub = po.add_subparsers(dest="obs_command", required=True)
    pos = obs_sub.add_parser(
        "summary", help="summarize a --metrics-out JSON dump"
    )
    pos.add_argument("path", help="metrics dump written by --metrics-out")
    pos.add_argument(
        "--prometheus", action="store_true",
        help="render Prometheus text exposition instead of tables",
    )
    pot = obs_sub.add_parser(
        "trace", help="summarize a --trace-out trace file (JSON or JSONL)"
    )
    pot.add_argument("path", help="trace file written by --trace-out")
    return parser


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


def _add_service_endpoint(
    parser: argparse.ArgumentParser, *, timeout: bool = True
) -> None:
    """The shared client-side service address flags.

    ``timeout=False`` skips the shared ``--timeout`` flag for verbs
    that define their own (``submit``, whose ``--timeout`` is both the
    network and the ``--wait`` budget).
    """
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=4321)
    if timeout:
        parser.add_argument(
            "--timeout", type=float, default=30.0, metavar="SECONDS",
            help="connect/read timeout for the service request",
        )


def _add_kind_flags(
    parser: argparse.ArgumentParser, kind: str, *, repeat: str | None = None
) -> None:
    """Declare job kind ``kind``'s parameter table as this verb's flags.

    Each parameter becomes ``--name-with-dashes`` (or the table's own
    spelling); list parameters take several values, choices become
    argparse choices, and every token is converted and checked by the
    table itself.  ``repeat`` names a scalar parameter that takes
    several values here: the verb runs one job per value.
    :func:`parse_command` validates the parsed values as a whole.
    """
    from repro.service.workers import job_kind

    for param in job_kind(kind).params:
        flag = param.cli_flag
        if flag is None:
            continue
        default = param.default
        if param.type is bool:
            parser.add_argument(
                f"--{flag}", action="store_const", const=not default,
                default=default,
                help=f"do not {param.help}" if default else param.help,
            )
            continue
        many = param.many or param.name == repeat
        if callable(default):
            default = None  # a library-owned default: filled in by validation
        elif param.name == repeat:
            default = [default]
        elif many and default is not None:
            default = list(default)
        parser.add_argument(
            f"--{flag}",
            type=partial(_flag_value, param),
            nargs="+" if many else None,
            default=default,
            choices=None if callable(param.choices) else param.choices,
            help=param.help + (
                "" if default is None else " (default: %(default)s)"
            ),
        )
    parser.set_defaults(job_kind=kind, job_repeat=repeat)


def _flag_value(param, token: str):
    """One command-line token, converted and checked by its table entry."""
    from repro.exceptions import ServiceError

    try:
        return param.convert_item(token)
    except ServiceError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_figure_args(parser: argparse.ArgumentParser, kind: str) -> None:
    _add_kind_flags(parser, kind)
    add_obs_flags(parser)
    parser.add_argument("--no-plot", action="store_true", help="table output only")
    parser.add_argument(
        "--csv", metavar="PATH", default=None,
        help="also write the plotted series to a CSV file",
    )
    parser.add_argument(
        "--svg", metavar="PATH", default=None,
        help="also render the figure to a standalone SVG file",
    )


def _add_journal_args(parser: argparse.ArgumentParser) -> None:
    """The resumable-journal flags shared by ``sweep`` and ``arena``."""
    parser.add_argument(
        "--max-chunks", type=int, default=None,
        help="stop after N chunks (resume later from the journal)",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help=(
            "NDJSON journal: completed chunks append here and a rerun "
            "resumes (an arena with several --grids suffixes the preset "
            "name)"
        ),
    )
    parser.add_argument(
        "--no-resume", action="store_true",
        help="overwrite the journal instead of resuming from it",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the memoized makespan kernels (baseline timing)",
    )


def _cmd_fig1(_args: argparse.Namespace) -> str:
    from repro.experiments import fig1_model

    return fig1_model.render(fig1_model.run())


def _write_csv(path: str, x_label, xs, series) -> None:
    from repro.analysis.plotting import series_to_csv

    with open(path, "w", encoding="utf-8") as handle:
        handle.write(series_to_csv(x_label, xs, series) + "\n")


def _write_svg(path: str, xs, series, *, title, x_label, y_label) -> None:
    from repro.analysis.svg import svg_line_chart

    svg = svg_line_chart(
        xs, series, title=title, x_label=x_label, y_label=y_label
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(svg + "\n")


def _wants_obs(args: argparse.Namespace) -> bool:
    """Whether the parsed command asked for any observability output."""
    return bool(
        getattr(args, "metrics_out", None) or getattr(args, "trace_out", None)
    )


def _obs_scope(args: argparse.Namespace):
    """An enabled observability session, or a no-op context manager."""
    from contextlib import nullcontext

    from repro import obs

    return obs.session() if _wants_obs(args) else nullcontext()


def finalize_obs(args: argparse.Namespace, records=()) -> list[str]:
    """Write the requested metrics/trace files; return status lines.

    ``records`` are simulated :class:`~repro.simulation.events.TaskRecord`
    entries to project into the trace — one span per scheduled task,
    on the simulated-schedule timeline (1 s -> 1 us, tid = first
    processor of the task's range).
    """
    from repro import obs

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


def _cmd_fig3to6(_args: argparse.Namespace) -> str:
    from repro.experiments import fig3to6

    return fig3to6.render(fig3to6.run())


def _cmd_fig9(args: argparse.Namespace) -> str:
    from repro.experiments import fig9_protocol
    from repro.service.workers import fig9_exchange

    return fig9_protocol.render(fig9_exchange(args.params))


def _run_figure(args: argparse.Namespace, name: str, runner):
    """Run one figure driver, optionally inside an observability session."""
    import time

    from repro import obs

    with _obs_scope(args):
        with obs.span(f"figure.{name}"):
            started = time.perf_counter()
            result = runner()
            obs.observe(
                "figure.seconds", time.perf_counter() - started, figure=name
            )
        extra = finalize_obs(args)
    return result, extra


def _cmd_fig7(args: argparse.Namespace) -> str:
    from repro.experiments import fig7

    result, extra = _run_figure(args, "fig7", lambda: fig7.run(**args.params))
    if args.csv:
        _write_csv(
            args.csv,
            "R",
            [float(r) for r in result.resources],
            {"G_star": [float(g) for g in result.best_group]},
        )
    if args.svg:
        _write_svg(
            args.svg,
            [float(r) for r in result.resources],
            {"best grouping G*": [float(g) for g in result.best_group]},
            title=(
                f"Figure 7: optimal groupings for "
                f"{args.params['scenarios']} scenarios"
            ),
            x_label="resources (processors)",
            y_label="best grouping",
        )
    return "\n\n".join([fig7.render(result, plot=not args.no_plot), *extra])


def _cmd_fig8(args: argparse.Namespace) -> str:
    from repro.experiments import fig8

    result, extra = _run_figure(
        args, "fig8", lambda: fig8.run(**args.params, workers=args.workers)
    )
    if args.csv:
        series: dict[str, list[float]] = {}
        for name, per_point in result.stats.items():
            series[f"{name}_mean"] = [s.mean for s in per_point]
            series[f"{name}_std"] = [s.std for s in per_point]
        _write_csv(
            args.csv, "R", [float(r) for r in result.resources], series
        )
    if args.svg:
        _write_svg(
            args.svg,
            [float(r) for r in result.resources],
            {name: [s.mean for s in pts] for name, pts in result.stats.items()},
            title="Figure 8: mean gains over the basic heuristic",
            x_label="resources (processors)",
            y_label="gain (%)",
        )
    return "\n\n".join([fig8.render(result, plot=not args.no_plot), *extra])


def _cmd_fig10(args: argparse.Namespace) -> str:
    from repro.experiments import fig10
    from repro.service.workers import job_kind

    result, extra = _run_figure(
        args, "fig10", lambda: job_kind("fig10").run(args.params)
    )
    if args.csv:
        _write_csv(
            args.csv,
            "n_plus_R_over_100",
            list(result.x_axis),
            {name: list(values) for name, values in result.gains.items()},
        )
    if args.svg:
        _write_svg(
            args.svg,
            list(result.x_axis),
            {name: list(values) for name, values in result.gains.items()},
            title="Figure 10: grid gains with DAG repartition",
            x_label="clusters + resources/100",
            y_label="gain (%)",
        )
    return "\n\n".join([fig10.render(result, plot=not args.no_plot), *extra])


def _cmd_sweep(args: argparse.Namespace) -> str:
    from repro.analysis.tables import format_table
    from repro.core.makespan import makespan_cache_stats
    from repro.experiments.sweep import run_sweep
    from repro.service.workers import sweep_grid

    from repro import obs

    params = args.params
    grid = sweep_grid(params)
    with _obs_scope(args):
        with obs.span("sweep.cli", points=grid.size):
            result = run_sweep(
                grid,
                workers=params["workers"] or None,
                chunk_size=params["chunk_size"],
                journal_path=args.out,
                resume=not args.no_resume,
                max_chunks=args.max_chunks,
                use_cache=not args.no_cache,
            )
        extra = finalize_obs(args)

    summary = result.summary()
    parts = [
        f"sweep over {summary['points']} points "
        f"({len(grid.clusters)} clusters x {len(grid.resources)} resource "
        f"counts x {len(grid.scenarios)} NS x {len(grid.months)} NM x "
        f"{len(grid.heuristics)} heuristics): "
        f"{summary['evaluated']} evaluated, "
        f"{summary['infeasible']} infeasible"
        + ("" if result.complete else " — partial; rerun to continue"),
        "wins by heuristic: "
        + ", ".join(f"{h}={n}" for h, n in summary["wins"].items()),
    ]
    if args.table:
        parts.append(
            format_table(
                ["cluster", "R", "NS", "NM", "heuristic", "makespan (s)", "grouping"],
                [
                    [
                        row.point.cluster,
                        row.point.resources,
                        row.point.scenarios,
                        row.point.months,
                        row.point.heuristic,
                        "-" if row.makespan is None else f"{row.makespan:.1f}",
                        row.grouping,
                    ]
                    for row in result.rows
                ],
            )
        )
    if not args.no_cache and params["workers"] <= 1:
        stats = makespan_cache_stats()
        parts.append(
            "kernel cache: "
            + "; ".join(
                f"{kind} {c['hits']} hits / {c['misses']} misses "
                f"({c['size']} entries)"
                for kind, c in stats.items()
            )
        )
    if args.out:
        parts.append(f"journal: {args.out} (rerun with the same grid to resume)")
    return "\n\n".join(parts + extra)


def _arena_journal_path(out: str | None, preset: str, many: bool) -> str | None:
    """The per-preset journal path: suffixed only for multi-grid runs."""
    if out is None or not many:
        return out
    from pathlib import Path

    path = Path(out)
    return str(path.with_name(f"{path.stem}-{preset}{path.suffix}"))


def _cmd_arena(args: argparse.Namespace) -> str:
    from repro.schedulers import run_arena
    from repro.service.workers import arena_grid

    from repro import obs

    parts: list[str] = []
    extra: list[str] = []
    many = len(args.params) > 1
    with _obs_scope(args):
        for params in args.params:  # one race per --grids preset
            preset = params["preset"]
            grid = arena_grid(params)
            journal = _arena_journal_path(args.out, preset, many)
            latencies: dict[str, list[float]] = {}
            with obs.span("arena.cli", preset=preset, points=grid.size):
                result = run_arena(
                    grid,
                    workers=params["workers"] or None,
                    chunk_size=params["chunk_size"],
                    journal_path=journal,
                    resume=not args.no_resume,
                    max_chunks=args.max_chunks,
                    use_cache=not args.no_cache,
                    latency_sink=latencies,
                )
            parts.extend(
                _render_arena(preset, result, latencies, table=args.table)
            )
            if journal:
                parts.append(
                    f"journal: {journal} (rerun with the same race to resume)"
                )
        extra = finalize_obs(args)
    return "\n\n".join(parts + extra)


def _render_arena(preset, result, latencies, *, table=False) -> list[str]:
    """Human-readable standings, win matrix, and (optionally) all rows."""
    from repro.analysis.tables import format_table

    grid = result.grid
    summary = result.summary()
    mean_gain = summary["mean_gain_over_basic"]
    parts = [
        f"arena[{preset}] over {summary['points']} points "
        f"({len(grid.clusters)} clusters x {len(grid.resources)} resource "
        f"counts x {len(grid.faults)} fault traces x "
        f"{len(grid.schedulers)} schedulers): "
        f"{summary['evaluated']} evaluated, "
        f"{summary['feasible']} feasible, {summary['crashed']} crashed"
        + ("" if result.complete else " — partial; rerun to continue")
    ]
    standings = []
    for name in grid.schedulers:
        timed = latencies.get(name, [])
        standings.append([
            name,
            summary["wins"].get(name, 0),
            "baseline" if name == "basic" else (
                f"{mean_gain[name]:+.2f}" if name in mean_gain else "-"
            ),
            f"{1e3 * sum(timed) / len(timed):.2f}" if timed else "-",
        ])
    parts.append(format_table(
        ["scheduler", "wins", "gain vs basic (%)", "decide (ms)"], standings
    ))
    matrix = summary["win_matrix"]
    parts.append(
        "win matrix (row beats column):\n"
        + format_table(
            ["beats ->", *grid.schedulers],
            [
                [a, *[
                    "-" if a == b else matrix[a].get(b, 0)
                    for b in grid.schedulers
                ]]
                for a in grid.schedulers
            ],
        )
    )
    if table:
        parts.append(format_table(
            ["cluster", "R", "NS", "NM", "fault", "scheduler",
             "makespan (s)", "done", "grouping"],
            [
                [
                    row.point.cluster, row.point.resources,
                    row.point.scenarios, row.point.months,
                    row.point.fault, row.point.scheduler,
                    "-" if row.makespan is None else f"{row.makespan:.1f}",
                    "yes" if row.completed else "CRASHED",
                    row.grouping,
                ]
                for row in result.rows
            ],
        ))
    return parts


def _cmd_ablations(_args: argparse.Namespace) -> str:
    import contextlib
    import io

    from repro.experiments import ablations

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        ablations.main()
    return buffer.getvalue().rstrip()


def _cmd_simulate(args: argparse.Namespace) -> str:
    from repro.experiments.runner import run_cluster_simulation
    from repro.simulation.trace import render_gantt, trace_summary
    from repro.workflow.ocean_atmosphere import EnsembleSpec

    from repro import obs

    params = args.params
    with _obs_scope(args):
        with obs.span(
            "simulate", cluster=params["cluster"], resources=params["resources"]
        ):
            result = run_cluster_simulation(
                params["cluster"],
                params["resources"],
                EnsembleSpec(params["scenarios"], params["months"]),
                params["heuristic"],
                record_trace=True,
            )
        parts = [trace_summary(result)]
        if args.gantt:
            parts.append(render_gantt(result))
        if args.trace_json:
            from repro.simulation.export import to_chrome_trace

            with open(args.trace_json, "w", encoding="utf-8") as handle:
                handle.write(to_chrome_trace(result) + "\n")
            parts.append(
                f"trace written to {args.trace_json} (open in Perfetto)"
            )
        parts.extend(finalize_obs(args, result.records))
    return "\n\n".join(parts)


def _cmd_campaign(args: argparse.Namespace) -> str:
    from repro.middleware.deployment import run_campaign
    from repro.platform.benchmarks import benchmark_grid

    params = args.params
    campaign = (params["scenarios"], params["months"], params["heuristic"])
    with _obs_scope(args):
        grid = benchmark_grid(params["clusters"], params["resources"])
        result = run_campaign(grid, *campaign)
        parts = [result.describe()]
        if args.show_messages:
            # Message log is on the network; re-run with an inspectable
            # deployment.
            from repro.middleware.deployment import deploy

            client, agent, _seds = deploy(grid)
            client.run_campaign(*campaign)
            parts.append(agent.network.describe())
        parts.extend(finalize_obs(args))
    return "\n\n".join(parts)


def _cmd_recover(args: argparse.Namespace) -> str:
    from repro.middleware.recovery import (
        ClusterFailure,
        run_campaign_with_failure,
    )
    from repro.platform.benchmarks import benchmark_grid

    from repro import obs

    with _obs_scope(args):
        with obs.span("recover", fail=args.fail, at_hours=args.at_hours):
            grid = benchmark_grid(args.clusters, args.resources)
            plan = run_campaign_with_failure(
                grid,
                args.scenarios,
                args.months,
                ClusterFailure(args.fail, args.at_hours * 3600.0),
                heuristic=args.heuristic,
            )
        parts = [plan.describe()]
        parts.extend(finalize_obs(args))
    return "\n\n".join(parts)


def _cmd_faults(args: argparse.Namespace) -> str:
    from repro import obs
    from repro.service.workers import fault_report

    params = args.params
    with _obs_scope(args):
        if args.resilience:
            from repro.experiments import resilience

            result = resilience.run(
                scenarios=params["scenarios"],
                months=params["months"],
                clusters=params["clusters"],
                resources=params["resources"],
                mttr_hours=params["mttr_hours"],
                trials=args.trials,
                seed=params["seed"],
            )
            parts = [resilience.render(result)]
        else:
            with obs.span(
                "faults", seed=params["seed"], mtbf_hours=params["mtbf_hours"]
            ):
                _trace, report = fault_report(params)
            parts = [report.describe()]
        parts.extend(finalize_obs(args))
    return "\n\n".join(parts)


def _parse_table(text: str) -> dict[int, float]:
    """Parse '2:500,3:360' into a {procs: seconds} mapping."""
    from repro.exceptions import ConfigurationError

    table: dict[int, float] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            procs_text, seconds_text = chunk.split(":")
            table[int(procs_text)] = float(seconds_text)
        except ValueError:
            raise ConfigurationError(
                f"malformed table entry {chunk!r}; expected 'procs:seconds'"
            ) from None
    if not table:
        raise ConfigurationError("empty timing table")
    return table


def _cmd_generic(args: argparse.Namespace) -> str:
    from repro.analysis.tables import format_table
    from repro.core.generic import GenericChainProblem, generic_simulate
    from repro.core.heuristics import HeuristicName

    problem = GenericChainProblem(
        chains=args.chains,
        repeats=args.repeats,
        moldable_table=_parse_table(args.table),
        post_seconds=args.post_seconds,
        resources=args.resources,
    )
    heuristics = (
        list(HeuristicName)
        if args.heuristic == "all"
        else [HeuristicName(args.heuristic)]
    )
    rows = []
    for heuristic in heuristics:
        result = generic_simulate(problem, heuristic)
        rows.append(
            [
                heuristic.value,
                result.grouping.describe(),
                f"{result.makespan:.1f}",
            ]
        )
    header = (
        f"generic workload: {args.chains} chains x {args.repeats} repeats "
        f"on {args.resources} processors\n"
    )
    return header + format_table(["heuristic", "grouping", "makespan (s)"], rows)


def _cmd_report(args: argparse.Namespace) -> str:
    if args.target is not None:
        import os

        if os.path.exists(args.target):
            from repro.analysis.runreport import report_for_journal

            report = report_for_journal(args.target)
        else:
            from repro.analysis.runreport import report_for_run

            report = report_for_run(
                args.db,
                args.target,
                metrics_path=args.metrics,
                trace_path=args.trace,
            )
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(report)
            return f"run report written to {args.output}"
        return report
    from repro.analysis.report import ReportConfig, generate_report

    config = ReportConfig.full() if args.full else ReportConfig.quick()
    report = generate_report(config)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        return f"report written to {args.output}"
    return report


def _cmd_bench(args: argparse.Namespace) -> int:
    import os

    from repro.obs.bench import (
        baseline_from_results,
        bench_specs,
        compare_to_baseline,
        inject_slowdown,
        load_baseline,
        render_comparison,
        run_bench,
        write_bench_artifact,
    )

    specs = bench_specs()
    if args.list_specs:
        for spec in specs:
            print(f"{spec.name:10s} [{spec.unit:>12s}]  {spec.description}")
        return 0
    if args.names:
        by_name = {spec.name: spec for spec in specs}
        unknown = [name for name in args.names if name not in by_name]
        if unknown:
            print(
                f"unknown benchmark(s) {unknown}; "
                f"known: {sorted(by_name)}",
                file=sys.stderr,
            )
            return 1
        specs = tuple(by_name[name] for name in args.names)
    repetitions = 1 if args.quick else args.repetitions
    # A cold first call can run far slower than a warm one, so a cold
    # baseline would hide a real slowdown in a later warm run.
    warmup = 1 if args.quick else args.warmup

    results = []
    for spec in specs:
        result = run_bench(spec, repetitions=repetitions, warmup=warmup)
        if args.inject_slowdown is not None:
            result = inject_slowdown(result, args.inject_slowdown)
        path = write_bench_artifact(result, args.out)
        print(
            f"{result.name:10s} {result.value:12.4g} {result.unit:>12s}  "
            f"(IQR {result.iqr:.3g}, n={result.repetitions}) -> {path}"
        )
        results.append(result)

    if args.update_baseline:
        import json as _json

        doc = baseline_from_results(results)
        os.makedirs(
            os.path.dirname(args.baseline) or ".", exist_ok=True
        )
        with open(args.baseline, "w", encoding="utf-8") as handle:
            handle.write(_json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"baseline updated: {args.baseline}")
        return 0
    if not os.path.exists(args.baseline):
        print(
            f"no baseline at {args.baseline}; comparison skipped "
            f"(run with --update-baseline to create one)"
        )
        return 0
    rows = compare_to_baseline(
        results,
        load_baseline(args.baseline),
        max_regression_pct=args.max_regression,
    )
    print(render_comparison(rows))
    if any(row.regressed for row in rows):
        print("benchmark regression detected", file=sys.stderr)
        return 2
    return 0


def _cmd_serve(args: argparse.Namespace) -> str:
    import asyncio

    from repro.service.fleet import WorkerConfig
    from repro.service.server import CampaignServer

    chaos = None
    if args.chaos_rate > 0:
        from repro.faults.chaos import ChaosConfig

        chaos = ChaosConfig.storm(seed=args.chaos_seed, rate=args.chaos_rate)
    reap_interval = args.reap_interval if args.reap_interval > 0 else None
    server = CampaignServer(
        args.store, host=args.host, port=args.port, workers=args.workers,
        max_attempts=args.max_attempts,
        worker_config=WorkerConfig(job_timeout=args.job_timeout),
        chaos=chaos, reap_interval=reap_interval,
    )

    async def _run() -> None:
        port = await server.start()
        print(
            f"campaign service listening on {args.host}:{port} "
            f"(store={args.store}, workers={args.workers}) — "
            f"Ctrl-C drains and stops",
            flush=True,
        )
        await server.serve_forever()

    with _obs_scope(args):
        asyncio.run(_run())
        extra = finalize_obs(args)
    return "\n".join(
        ["campaign service stopped (queued runs persist in the store)", *extra]
    )


def _cmd_worker(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.service.fleet import FleetWorker, WorkerConfig, WorkerKilled
    from repro.service.store import RunStore

    chaos = None
    if args.fleet_chaos_rate > 0:
        from repro.faults.chaos import PROCESS_ACTIONS, ChaosConfig

        chaos = ChaosConfig.storm(
            seed=args.fleet_chaos_seed,
            rate=args.fleet_chaos_rate,
            actions=PROCESS_ACTIONS,
        )
    config = WorkerConfig(
        lease_seconds=args.lease_seconds,
        heartbeat_interval=args.heartbeat_interval,
        job_timeout=args.job_timeout,
        max_jobs=args.max_jobs,
        seed=args.poll_seed,
    )
    stop = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(sig, lambda *_: stop.set())
        except ValueError:  # pragma: no cover - non-main thread
            pass
    with _obs_scope(args), RunStore(args.store) as store:
        worker = FleetWorker(
            store, config, owner_id=args.owner, chaos=chaos
        )
        print(
            f"fleet worker {worker.owner_id} polling {args.store} "
            f"(lease={config.lease_seconds}s, "
            f"heartbeat={config.heartbeat_interval}s) — Ctrl-C stops",
            flush=True,
        )
        try:
            stats = worker.run_forever(stop)
        except WorkerKilled as exc:
            # Chaos killed this worker: leave like a real SIGKILL would
            # (the claimed run stays leased; the reaper recovers it).
            print(f"worker killed by chaos: {exc}", file=sys.stderr)
            return 1
        extra = finalize_obs(args)
    summary = ", ".join(f"{key}={stats[key]}" for key in sorted(stats))
    print("\n".join([f"worker {worker.owner_id} stopped: {summary}", *extra]))
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    from repro.exceptions import ServiceError
    from repro.service.client import ServiceClient

    try:
        with ServiceClient(
            args.host, args.port, timeout=args.timeout, connect_retries=0
        ) as client:
            health = client.health()
    except (ServiceError, OSError) as exc:
        print(
            f"unhealthy: {args.host}:{args.port}: {exc}", file=sys.stderr
        )
        return 1
    fleet = health.get("fleet", {})
    print(
        f"healthy: version={health['version']} "
        f"uptime={health['uptime_seconds']:.0f}s "
        f"queue_depth={health['queue_depth']} "
        f"workers={health['workers']} "
        f"fleet_workers={fleet.get('live_workers', 0)} "
        f"leased={fleet.get('leased_jobs', 0)}"
    )
    return 0


def _parse_job_params(pairs: list[str]) -> dict:
    """Parse repeated ``--param KEY=VALUE`` flags (VALUE as JSON or text)."""
    import json

    from repro.exceptions import ConfigurationError

    params = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ConfigurationError(
                f"malformed --param {pair!r}; expected KEY=VALUE"
            )
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _describe_run(status: dict) -> str:
    """One run summary, formatted for terminal output."""
    lines = [
        f"run {status['run_id']}: kind={status['kind']} "
        f"state={status['state']} "
        f"attempts={status['attempts']}/{status['max_attempts']}",
    ]
    if status.get("error"):
        lines.append(f"  error: {status['error']}")
    return "\n".join(lines)


def _cmd_submit(args: argparse.Namespace) -> str:
    from repro.service.client import ServiceClient

    with ServiceClient(args.host, args.port, timeout=args.timeout) as client:
        run_id = client.submit(
            args.kind,
            _parse_job_params(args.param),
            max_attempts=args.max_attempts,
        )
        # The run id must stay the last token of the submit line —
        # scripts (and the CLI tests) parse it from there.
        trace = client.last_trace
        traced = f" (trace {trace.trace_id})" if trace is not None else ""
        parts = [f"submitted {args.kind}{traced} as run {run_id}"]
        if args.wait:
            status = client.wait(run_id, timeout=args.timeout)
            parts.append(_describe_run(status))
    return "\n".join(parts)


def _cmd_status(args: argparse.Namespace) -> str:
    from repro.service.client import ServiceClient

    with ServiceClient(args.host, args.port, timeout=args.timeout) as client:
        return _describe_run(client.status(args.run_id))


def _cmd_result(args: argparse.Namespace) -> str:
    import json

    from repro.service.client import ServiceClient

    with ServiceClient(args.host, args.port, timeout=args.timeout) as client:
        payload = client.result(args.run_id)
    return json.dumps(payload["result"], indent=2)


def _cmd_runs(args: argparse.Namespace) -> str:
    from repro.analysis.tables import format_table
    from repro.service.client import ServiceClient

    with ServiceClient(args.host, args.port, timeout=args.timeout) as client:
        runs = client.runs(args.state, limit=args.limit)
        health = client.health()
    if not runs:
        header = "no matching runs"
    else:
        header = format_table(
            ["run", "kind", "state", "attempts", "error"],
            [
                [
                    r["run_id"],
                    r["kind"],
                    r["state"],
                    f"{r['attempts']}/{r['max_attempts']}",
                    (r["error"] or "")[:40],
                ]
                for r in runs
            ],
        )
    jobs = health["jobs"]
    counts = ", ".join(f"{state}={jobs[state]}" for state in jobs)
    return f"{header}\n\nserver: {counts}"


def _cmd_cancel(args: argparse.Namespace) -> str:
    from repro.service.client import ServiceClient

    with ServiceClient(args.host, args.port, timeout=args.timeout) as client:
        status = client.cancel(args.run_id)
    return _describe_run(status)


def _cmd_obs(args: argparse.Namespace) -> str:
    import json

    from repro import obs
    from repro.exceptions import ConfigurationError

    try:
        with open(args.path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {args.path!r}: {exc}") from None
    if args.obs_command == "summary":
        try:
            dump = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{args.path!r} is not a JSON metrics dump: {exc}"
            ) from None
        if args.prometheus:
            return obs.prometheus_from_dump(dump).rstrip("\n")
        return obs.render_metrics_summary(dump)
    return obs.render_trace_summary(obs.load_trace_events(text))


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run reprolint; prints its own report and returns the exit code."""
    from repro.exceptions import ConfigurationError
    from repro.lintkit.cli import run_lint

    try:
        return run_lint(args)
    except ConfigurationError as exc:
        print(f"reprolint: {exc}", file=sys.stderr)
        return 2


def _cmd_info(_args: argparse.Namespace) -> str:
    from repro.analysis.tables import format_table
    from repro.platform.benchmarks import (
        REFERENCE_CLUSTER_SPEEDS,
        benchmark_timing,
    )

    rows = []
    for name in REFERENCE_CLUSTER_SPEEDS:
        timing = benchmark_timing(name)
        table = timing.main_time_table()
        rows.append(
            [
                name,
                *(f"{table[g]:.0f}" for g in sorted(table)),
                f"{timing.post_time():.0f}",
            ]
        )
    headers = ["cluster", *(f"T[{g}]" for g in range(4, 12)), "TP"]
    return (
        "synthetic Grid'5000-like benchmark database (seconds):\n"
        + format_table(headers, rows)
    )


_COMMANDS = {
    "fig1": _cmd_fig1,
    "fig3to6": _cmd_fig3to6,
    "fig9": _cmd_fig9,
    "fig7": _cmd_fig7,
    "fig8": _cmd_fig8,
    "fig10": _cmd_fig10,
    "sweep": _cmd_sweep,
    "arena": _cmd_arena,
    "ablations": _cmd_ablations,
    "simulate": _cmd_simulate,
    "campaign": _cmd_campaign,
    "recover": _cmd_recover,
    "faults": _cmd_faults,
    "generic": _cmd_generic,
    "report": _cmd_report,
    "bench": _cmd_bench,
    "info": _cmd_info,
    "lint": _cmd_lint,
    "obs": _cmd_obs,
    "serve": _cmd_serve,
    "worker": _cmd_worker,
    "health": _cmd_health,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "result": _cmd_result,
    "runs": _cmd_runs,
    "cancel": _cmd_cancel,
}


def parse_command(argv: Sequence[str] | None = None) -> argparse.Namespace:
    """Parse ``argv``; a job-kind verb also gets its validated ``params``.

    ``args.params`` is what :func:`~repro.service.workers.validate_job`
    returns for the verb's flags — a list of them, one per value, for a
    verb that repeats a parameter (``arena --grids``).  Every rejection,
    per value or cross-field, exits through argparse's error path (exit
    code 2) before any work starts.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    kind = getattr(args, "job_kind", None)
    if kind is None:
        return args
    from repro.exceptions import ServiceError
    from repro.service.workers import job_kind, validate_job

    given = {}
    for param in job_kind(kind).params:
        if param.cli_flag is not None:
            value = getattr(args, param.cli_flag.replace("-", "_"))
            if value is not None:
                given[param.name] = value
    repeat = args.job_repeat
    try:
        if repeat is None:
            args.params = validate_job(kind, given)
        else:
            args.params = [
                validate_job(kind, {**given, repeat: value})
                for value in given[repeat]
            ]
    except ServiceError as exc:
        parser.error(f"{args.command}: {exc}")
    return args


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = parse_command(argv)
    from repro.obs import configure_logging

    configure_logging(args.log)
    result = _COMMANDS[args.command](args)
    if isinstance(result, int):
        # Commands with their own exit-code contract (lint) print
        # their report themselves.
        return result
    print(result)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
