"""The grid-run verbs: ``sweep`` and ``arena``, both journaled and resumable."""

from __future__ import annotations

import argparse
from pathlib import Path

from repro import obs
from repro.analysis.tables import format_table
from repro.cli import add_obs_flags, finalize_obs, obs_scope
from repro.cli.kinds import add_kind_flags
from repro.core.makespan import makespan_cache_stats
from repro.experiments.sweep import run_sweep
from repro.schedulers import run_arena
from repro.service.workers import arena_grid, sweep_grid


def register(verbs: dict[str, argparse.ArgumentParser]) -> None:
    """Declare ``sweep``'s and ``arena``'s options and handlers."""
    for name, repeat, what, run in (
        ("sweep", None, "every evaluated row, not just the summary", _sweep),
        ("arena", "preset", "every evaluated row, not just the standings", _arena),
    ):
        parser = verbs[name]
        add_kind_flags(parser, name, repeat=repeat)
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
        parser.add_argument("--table", action="store_true", help=f"print {what}")
        add_obs_flags(parser)
        parser.set_defaults(run=run)


def _sweep(args: argparse.Namespace) -> str:
    params = args.params
    grid = sweep_grid(params)
    with obs_scope(args):
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
    path = Path(out)
    return str(path.with_name(f"{path.stem}-{preset}{path.suffix}"))


def _arena(args: argparse.Namespace) -> str:
    parts: list[str] = []
    extra: list[str] = []
    many = len(args.params) > 1
    with obs_scope(args):
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
    grid = result.grid
    summary = result.summary()
    parts = [
        f"arena[{preset}] over {summary['points']} points "
        f"({len(grid.clusters)} clusters x {len(grid.resources)} resource "
        f"counts x {len(grid.faults)} fault traces x "
        f"{len(grid.schedulers)} schedulers): "
        f"{summary['evaluated']} evaluated, "
        f"{summary['feasible']} feasible, {summary['crashed']} crashed"
        + ("" if result.complete else " — partial; rerun to continue")
    ]
    standings, matrix = result.standings()
    for row in standings:
        timed = latencies.get(row[0], [])
        row.append(f"{1e3 * sum(timed) / len(timed):.2f}" if timed else "-")
    parts.append(format_table(
        ["scheduler", "wins", "gain vs basic (%)", "decide (ms)"], standings
    ))
    parts.append(
        "win matrix (row beats column):\n"
        + format_table(["beats ->", *grid.schedulers], matrix)
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
