"""The read-only inspection verbs: ``info`` and ``obs summary|trace``.

Both load no numpy, no service code and no lint checker
(``tests/test_startup.py`` checks ``info``).
"""

from __future__ import annotations

import argparse
import json

from repro import obs
from repro.analysis.tables import format_table
from repro.exceptions import ConfigurationError
from repro.platform.benchmarks import REFERENCE_CLUSTER_SPEEDS, benchmark_timing


def register(verbs: dict[str, argparse.ArgumentParser]) -> None:
    """Declare ``info``'s and ``obs``'s options and handlers."""
    verbs["info"].set_defaults(run=_info)
    obs_sub = verbs["obs"].add_subparsers(dest="obs_command", required=True)
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
    verbs["obs"].set_defaults(run=_obs)


def _info(_args: argparse.Namespace) -> str:
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


def _obs(args: argparse.Namespace) -> str:
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
