"""The figure verbs: ``fig1``, ``fig3to6``, ``fig7`` to ``fig10``, and ``ablations``."""

from __future__ import annotations

import argparse
import contextlib
import io
import time

from repro import obs
from repro.analysis.plotting import series_to_csv
from repro.analysis.svg import svg_line_chart
from repro.cli import add_obs_flags, finalize_obs, obs_scope
from repro.cli.kinds import add_kind_flags
from repro.experiments import ablations, fig1_model, fig3to6, fig7, fig8, fig9_protocol, fig10
from repro.service.workers import fig9_exchange, job_kind


def register(verbs: dict[str, argparse.ArgumentParser]) -> None:
    """Declare the figure verbs' options and handlers."""
    verbs["fig1"].set_defaults(run=_fig1)
    verbs["fig3to6"].set_defaults(run=_fig3to6)
    add_kind_flags(verbs["fig9"], "fig9")
    verbs["fig9"].set_defaults(run=_fig9)
    for name, run in (("fig7", _fig7), ("fig8", _fig8), ("fig10", _fig10)):
        parser = verbs[name]
        add_kind_flags(parser, name)
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
        parser.set_defaults(run=run)
    verbs["fig8"].add_argument(
        "--workers", type=int, default=None,
        help="fan the sweep's chunks out over N worker processes",
    )
    verbs["ablations"].set_defaults(run=_ablations)


def _fig1(_args: argparse.Namespace) -> str:
    return fig1_model.render(fig1_model.run())


def _fig3to6(_args: argparse.Namespace) -> str:
    return fig3to6.render(fig3to6.run())


def _fig9(args: argparse.Namespace) -> str:
    return fig9_protocol.render(fig9_exchange(args.params))


def _write_csv(path: str, x_label, xs, series) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(series_to_csv(x_label, xs, series) + "\n")


def _write_svg(path: str, xs, series, *, title, x_label, y_label) -> None:
    svg = svg_line_chart(
        xs, series, title=title, x_label=x_label, y_label=y_label
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(svg + "\n")


def _run_figure(args: argparse.Namespace, name: str, runner):
    """Run one figure driver, optionally inside an observability session."""
    with obs_scope(args):
        with obs.span(f"figure.{name}"):
            started = time.perf_counter()
            result = runner()
            obs.observe(
                "figure.seconds", time.perf_counter() - started, figure=name
            )
        extra = finalize_obs(args)
    return result, extra


def _fig7(args: argparse.Namespace) -> str:
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


def _fig8(args: argparse.Namespace) -> str:
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


def _fig10(args: argparse.Namespace) -> str:
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


def _ablations(_args: argparse.Namespace) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        ablations.main()
    return buffer.getvalue().rstrip()
