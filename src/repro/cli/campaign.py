"""The campaign verbs: ``simulate``, ``campaign``, ``recover``, ``faults``, ``generic``."""

from __future__ import annotations

import argparse

from repro import obs
from repro.analysis.tables import format_table
from repro.cli import add_obs_flags, finalize_obs, obs_scope
from repro.cli.kinds import add_kind_flags
from repro.core.generic import GenericChainProblem, generic_simulate
from repro.core.heuristics import HeuristicName
from repro.exceptions import ConfigurationError
from repro.experiments import resilience
from repro.experiments.runner import run_cluster_simulation
from repro.middleware.deployment import run_campaign
from repro.middleware.network import describe_log
from repro.middleware.recovery import ClusterFailure, run_campaign_with_failure
from repro.platform.benchmarks import benchmark_grid
from repro.service.workers import fault_report
from repro.simulation.export import to_chrome_trace
from repro.simulation.trace import render_gantt, trace_summary
from repro.workflow.ocean_atmosphere import EnsembleSpec

#: The paper's four heuristics, as ``--heuristic`` choices.
HEURISTICS = [heuristic.value for heuristic in HeuristicName]


def register(verbs: dict[str, argparse.ArgumentParser]) -> None:
    """Declare the campaign verbs' options and handlers."""
    ps = verbs["simulate"]
    add_kind_flags(ps, "simulate")
    ps.add_argument("--gantt", action="store_true", help="render an ASCII Gantt chart")
    ps.add_argument(
        "--trace-json", metavar="PATH", default=None,
        help="export the schedule as Chrome/Perfetto trace-event JSON",
    )
    add_obs_flags(ps)
    ps.set_defaults(run=_simulate)

    pc = verbs["campaign"]
    add_kind_flags(pc, "campaign")
    pc.add_argument("--show-messages", action="store_true")
    add_obs_flags(pc)
    pc.set_defaults(run=_campaign)

    pr = verbs["recover"]
    pr.add_argument("--clusters", type=int, default=3)
    pr.add_argument("--resources", type=int, default=30)
    pr.add_argument("--scenarios", type=int, default=10)
    pr.add_argument("--months", type=int, default=24)
    pr.add_argument("--fail", default="chti", help="name of the failing cluster")
    pr.add_argument(
        "--at-hours", type=float, default=5.0,
        help="failure time, hours into the campaign",
    )
    pr.add_argument("--heuristic", default="knapsack", choices=HEURISTICS)
    add_obs_flags(pr)
    pr.set_defaults(run=_recover)

    pf = verbs["faults"]
    add_kind_flags(pf, "faults")
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
    pf.set_defaults(run=_faults)

    pg = verbs["generic"]
    pg.add_argument(
        "--table", required=True,
        help="moldable timing table, e.g. '2:500,3:360,4:300' (procs:seconds)",
    )
    pg.add_argument("--post-seconds", type=float, default=60.0)
    pg.add_argument("--chains", type=int, default=4)
    pg.add_argument("--repeats", type=int, default=10)
    pg.add_argument("--resources", type=int, default=16)
    pg.add_argument("--heuristic", default="all", choices=["all", *HEURISTICS])
    pg.set_defaults(run=_generic)


def _simulate(args: argparse.Namespace) -> str:
    params = args.params
    with obs_scope(args):
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
            with open(args.trace_json, "w", encoding="utf-8") as handle:
                handle.write(to_chrome_trace(result) + "\n")
            parts.append(
                f"trace written to {args.trace_json} (open in Perfetto)"
            )
        parts.extend(finalize_obs(args, result.records))
    return "\n\n".join(parts)


def _campaign(args: argparse.Namespace) -> str:
    params = args.params
    campaign = (params["scenarios"], params["months"], params["heuristic"])
    with obs_scope(args):
        grid = benchmark_grid(params["clusters"], params["resources"])
        result = run_campaign(grid, *campaign)
        parts = [result.describe()]
        if args.show_messages:
            log = result.messages
            parts.append(describe_log(log, log[-1].received_at))
        parts.extend(finalize_obs(args))
    return "\n\n".join(parts)


def _recover(args: argparse.Namespace) -> str:
    with obs_scope(args):
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


def _faults(args: argparse.Namespace) -> str:
    params = args.params
    with obs_scope(args):
        if args.resilience:
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


def _generic(args: argparse.Namespace) -> str:
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
