"""The ``report`` verb: the Markdown reproduction report, or an HTML run/journal report."""

from __future__ import annotations

import argparse
import os

from repro.analysis.report import ReportConfig, generate_report
from repro.analysis.runreport import report_for_journal, report_for_run


def register(verbs: dict[str, argparse.ArgumentParser]) -> None:
    """Declare ``report``'s options and handler."""
    parser = verbs["report"]
    parser.add_argument(
        "target", nargs="?", default=None,
        help=(
            "a service run id (with --db) or a sweep or arena journal path; "
            "omitted = the one-shot Markdown reproduction report"
        ),
    )
    parser.add_argument(
        "--full", action="store_true",
        help="EXPERIMENTS.md resolution (minutes) instead of quick (seconds)",
    )
    parser.add_argument(
        "--output", metavar="PATH", default=None,
        help="write the report to a file instead of stdout",
    )
    parser.add_argument(
        "--db", metavar="PATH", default="runs.db",
        help="run-store path backing a run-id target (default: runs.db)",
    )
    parser.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="--metrics-out dump to fold into the run report (cache hit rates)",
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help=(
            "Chrome trace file to fold into the run report "
            "(spans filtered to the run's trace id)"
        ),
    )
    parser.set_defaults(run=_report)


def _report(args: argparse.Namespace) -> str:
    if args.target is not None:
        if os.path.exists(args.target):
            report = report_for_journal(args.target)
        else:
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
    config = ReportConfig.full() if args.full else ReportConfig.quick()
    report = generate_report(config)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        return f"report written to {args.output}"
    return report
