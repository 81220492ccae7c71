"""Self-contained HTML run reports for campaigns, sweeps and races.

One store row (or one sweep or race journal) in, one HTML file out — no
external assets, no scripts, every chart an inline SVG from
:mod:`repro.analysis.svg`.  The file is the hand-off artifact: it can
be mailed, attached to an issue, or archived next to the ``BENCH_*``
artifacts and still render a decade from now.

Three entry points:

* :func:`report_for_run` — pull one run out of a service
  :class:`~repro.service.store.RunStore` and render everything known
  about it: the store row (state, attempts, trace id), a campaign
  Gantt, the fault/replan timeline of a ``faults`` run, the sections
  of a ``sweep`` or ``arena`` run, queue-latency histograms over the
  store's terminal runs, cache hit-rates from an optional
  ``--metrics-out`` dump, and span statistics from an optional Chrome
  trace file filtered to the run's ``trace_id``;
* :func:`report_for_journal` — render a sweep or race journal (the
  resumable NDJSON of :func:`repro.experiments.gridrun.run_grid`) with
  the same sections as the stored run, without needing a store at all;
* :func:`render_run_report` — the generic assembler both use, for
  callers with their own sections.

The CLI verb is ``repro-oa report <run-id> --db runs.db`` (or a
journal path).
"""

from __future__ import annotations

import html
import json
from dataclasses import astuple, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro._version import __version__
from repro.analysis.svg import svg_gantt, svg_histogram, svg_line_chart
from repro.exceptions import ConfigurationError
from repro.experiments.gridrun import load_journal
from repro.experiments.results_io import GenericResult, load_result

if TYPE_CHECKING:
    from repro.experiments.sweep import SweepResult
    from repro.schedulers.arena import ArenaResult

__all__ = [
    "render_run_report",
    "report_for_journal",
    "report_for_run",
]

#: Fixed colors for the Gantt legend — fault kinds must look alike
#: across reports.
_GANTT_COLORS = {
    "run": "#0072B2",
    "crash": "#D55E00",
    "outage": "#E69F00",
    "slowdown": "#CC79A7",
    "rejoin": "#009E73",
    "replan": "#000000",
}

_CSS = """
body { font-family: sans-serif; margin: 2em auto; max-width: 60em;
       color: #1a1a1a; }
h1 { font-size: 1.5em; border-bottom: 2px solid #0072B2; }
h2 { font-size: 1.15em; margin-top: 1.8em; }
table { border-collapse: collapse; margin: 0.8em 0; }
th, td { border: 1px solid #cccccc; padding: 0.3em 0.7em;
         text-align: left; font-size: 0.92em; }
th { background: #f0f4f8; }
svg { max-width: 100%; height: auto; }
code { background: #f4f4f4; padding: 0.1em 0.3em; }
.note { color: #555555; font-size: 0.9em; }
""".strip()


def _esc(value: object) -> str:
    return html.escape(str(value))


def _kv_table(items: Sequence[tuple[str, object]]) -> str:
    rows = "\n".join(
        f"<tr><th>{_esc(key)}</th><td>{_esc(value)}</td></tr>"
        for key, value in items
    )
    return f"<table>\n{rows}\n</table>"


def _table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "\n".join(
        "<tr>" + "".join(f"<td>{_esc(cell)}</td>" for cell in row) + "</tr>"
        for row in rows
    )
    return f"<table>\n<tr>{head}</tr>\n{body}\n</table>"


def render_run_report(
    title: str, sections: Sequence[tuple[str, str]]
) -> str:
    """Assemble titled HTML sections into one self-contained document."""
    if not sections:
        raise ConfigurationError("a report needs at least one section")
    body = "\n".join(
        f'<h2>{_esc(heading)}</h2>\n{content}'
        for heading, content in sections
    )
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>\n{_CSS}\n</style>\n</head>\n<body>\n"
        f"<h1>{_esc(title)}</h1>\n"
        f'<p class="note">generated by repro-oa {_esc(__version__)}; '
        "self-contained (no external assets)</p>\n"
        f"{body}\n</body>\n</html>\n"
    )


# ---------------------------------------------------------------------------
# Sections from one stored run.
# ---------------------------------------------------------------------------


def _hours(seconds: float) -> float:
    return seconds / 3600.0


def _campaign_sections(data: Mapping[str, Any]) -> list[tuple[str, str]]:
    """Gantt + per-cluster table of a ``campaign`` result."""
    clusters = data.get("clusters", [])
    if not clusters:
        return []
    lanes = [
        (
            str(entry["name"]),
            [
                {
                    "start": 0.0,
                    "end": _hours(float(entry["makespan"])),
                    "kind": "run",
                    "label": str(entry.get("grouping", "")),
                }
            ],
        )
        for entry in clusters
    ]
    gantt = svg_gantt(
        lanes,
        title="campaign schedule (per-cluster makespan)",
        x_label="hours",
        colors=_GANTT_COLORS,
    )
    table = _table(
        ["cluster", "scenarios", "grouping", "makespan (h)", "utilization"],
        [
            [
                entry["name"],
                len(entry.get("scenarios", [])),
                entry.get("grouping", ""),
                f"{_hours(float(entry['makespan'])):.2f}",
                f"{float(entry['makespan']) / float(data['makespan']):.0%}",
            ]
            for entry in clusters
        ],
    )
    summary = _kv_table(
        [
            ("achieved makespan (h)", f"{_hours(float(data['makespan'])):.2f}"),
            (
                "predicted makespan (h)",
                f"{_hours(float(data['predicted_makespan'])):.2f}",
            ),
            (
                "control plane (s)",
                f"{float(data.get('control_plane_seconds', 0.0)):.3f}",
            ),
            ("heuristic", data.get("heuristic", "")),
            (
                "ensemble",
                f"{data.get('scenarios')} scenarios x "
                f"{data.get('months')} months",
            ),
        ]
    )
    return [
        ("Campaign summary", summary),
        ("Campaign Gantt and per-cluster utilization", gantt + "\n" + table),
    ]


def _fault_sections(data: Mapping[str, Any]) -> list[tuple[str, str]]:
    """Gantt + timeline of a ``faults`` result (trace and outcomes)."""
    makespan = float(data.get("makespan", 0.0))
    original = float(data.get("original_makespan", makespan))
    horizon = _hours(max(makespan, original, 1.0))
    trace = list(data.get("trace", []))
    events = list(data.get("events", []))

    cluster_names: list[str] = []
    for entry in trace:
        name = str(entry.get("cluster", ""))
        if name and name not in cluster_names:
            cluster_names.append(name)
    lanes: list[tuple[str, list[dict[str, object]]]] = [
        (
            "campaign",
            [
                {
                    "start": 0.0,
                    "end": _hours(makespan),
                    "kind": "run",
                    "label": "achieved",
                }
            ],
        )
    ]
    for name in sorted(cluster_names):
        bars: list[dict[str, object]] = []
        for entry in trace:
            if str(entry.get("cluster", "")) != name:
                continue
            kind = str(entry.get("kind", "crash"))
            start = _hours(float(entry.get("at_time", 0.0)))
            duration = float(entry.get("duration", 0.0))
            end = horizon if kind == "crash" else min(
                _hours(float(entry.get("at_time", 0.0)) + duration), horizon
            )
            bars.append(
                {
                    "start": start,
                    "end": max(end, start),
                    "kind": kind,
                    "label": kind,
                }
            )
        lanes.append((name, bars))
    # Replans as instant markers on the campaign lane.
    for outcome in events:
        if outcome.get("applied"):
            at = _hours(float(outcome.get("at_time", 0.0)))
            lanes[0][1].append(
                {
                    "start": at,
                    "end": at,
                    "kind": "replan",
                    "label": f"replan ({outcome.get('cluster', '?')})",
                }
            )
    gantt = svg_gantt(
        lanes,
        title="fault and replan timeline",
        x_label="hours",
        colors=_GANTT_COLORS,
    )
    timeline = _table(
        ["t (h)", "kind", "cluster", "applied", "months lost", "makespan after (h)"],
        [
            [
                f"{_hours(float(o.get('at_time', 0.0))):.2f}",
                o.get("kind", ""),
                o.get("cluster", ""),
                "yes" if o.get("applied") else f"no ({o.get('reason', '-')})",
                o.get("months_lost", 0),
                f"{_hours(float(o.get('makespan_after', 0.0))):.2f}",
            ]
            for o in events
        ],
    )
    summary = _kv_table(
        [
            ("fault-free makespan (h)", f"{_hours(original):.2f}"),
            ("achieved makespan (h)", f"{_hours(makespan):.2f}"),
            ("delay (h)", f"{_hours(float(data.get('delay', 0.0))):.2f}"),
            ("replans", data.get("replans", 0)),
            ("months lost", data.get("months_lost", 0)),
            ("fault events", len(trace)),
            ("trace seed", data.get("seed", "-")),
        ]
    )
    return [
        ("Fault-recovery summary", summary),
        ("Fault and replan timeline", gantt + "\n" + timeline),
    ]


def _queue_latency_section(records: Sequence[Any]) -> list[tuple[str, str]]:
    """Histogram of queue residence time over the store's terminal runs."""
    samples = [
        max(record.updated_at - record.created_at, 0.0)
        for record in records
        if record.finished
    ]
    if not samples:
        return []
    chart = svg_histogram(
        samples,
        title=f"queue latency of {len(samples)} finished run(s)",
        x_label="seconds from submit to terminal state",
        y_label="runs",
        bins=min(20, max(len(samples), 1)),
    )
    return [("Queue latency", chart)]


def _cache_section(dump: Mapping[str, Any]) -> list[tuple[str, str]]:
    """Hit-rate table from the ``makespan.cache`` counters of a dump."""
    counters = dump.get("counters", {})
    series = counters.get("makespan.cache", []) if isinstance(counters, Mapping) else []
    if not series:
        return []
    tallies: dict[str, dict[str, float]] = {}
    for entry in series:
        labels = entry.get("labels", {})
        kind = str(labels.get("kind", "?"))
        outcome = str(labels.get("outcome", "?"))
        tallies.setdefault(kind, {})[outcome] = float(entry.get("value", 0.0))
    rows = []
    for kind in sorted(tallies):
        hits = tallies[kind].get("hit", 0.0)
        misses = tallies[kind].get("miss", 0.0)
        total = hits + misses
        rate = f"{hits / total:.1%}" if total else "-"
        rows.append([kind, int(hits), int(misses), rate])
    return [
        (
            "Makespan-cache hit rates",
            _table(["kernel", "hits", "misses", "hit rate"], rows),
        )
    ]


def _trace_section(
    events: Sequence[Mapping[str, Any]], trace_id: str | None
) -> list[tuple[str, str]]:
    """The span digest of a Chrome trace, filtered to one trace id."""
    from repro.obs.summary import SPAN_COLUMNS, span_rows

    if trace_id is not None:
        events = [
            e
            for e in events
            if isinstance(e.get("args"), Mapping)
            and e["args"].get("trace_id") == trace_id
        ]
    header, rows = span_rows(events)
    if not rows:
        return []
    correlated = f"; trace <code>{_esc(trace_id)}</code>" if trace_id else ""
    note = f'<p class="note">{_esc(header)}{correlated}.</p>'
    return [("Trace spans", note + _table(SPAN_COLUMNS, rows))]


def report_for_run(
    db_path: str | Path,
    run_id: str,
    *,
    metrics_path: str | Path | None = None,
    trace_path: str | Path | None = None,
) -> str:
    """Render one stored run as a self-contained HTML report.

    Always includes the store row and the store-wide queue-latency
    histogram; adds the campaign Gantt or fault timeline when the run's
    result carries one, the sections of its journal for a ``sweep`` or
    ``arena`` run, cache hit-rates when ``metrics_path`` points at a
    ``--metrics-out`` dump, and span statistics (filtered to the run's
    ``trace_id``) when ``trace_path`` points at a Chrome trace.
    """
    from repro.service.store import RunStore

    with RunStore(str(db_path)) as store:
        record = store.get(run_id)
        neighbours = store.list_runs(limit=500)

    sections: list[tuple[str, str]] = [
        (
            "Run",
            _kv_table(
                [
                    ("run id", record.run_id),
                    ("kind", record.kind),
                    ("state", record.state),
                    ("trace id", record.trace_id or "-"),
                    ("attempts", f"{record.attempts}/{record.max_attempts}"),
                    ("params", json.dumps(record.params, sort_keys=True)),
                    ("error", record.error or "-"),
                    (
                        "wall time (s)",
                        f"{max(record.updated_at - record.created_at, 0.0):.3f}",
                    ),
                ]
            ),
        )
    ]
    if record.result:
        result = load_result(record.result)
        if isinstance(result, GenericResult):
            if result.kind == "campaign":
                sections.extend(_campaign_sections(result.data))
            elif result.kind == "faults":
                sections.extend(_fault_sections(result.data))
        else:
            sections.extend(_grid_sections(result)[1])
    sections.extend(_queue_latency_section(neighbours))
    if metrics_path is not None:
        try:
            dump = json.loads(Path(metrics_path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(
                f"cannot read metrics dump {metrics_path}: {exc}"
            ) from None
        sections.extend(_cache_section(dump))
    if trace_path is not None:
        from repro.obs.summary import load_trace_events

        try:
            trace_text = Path(trace_path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read trace file {trace_path}: {exc}"
            ) from None
        sections.extend(
            _trace_section(load_trace_events(trace_text), record.trace_id)
        )
    return render_run_report(
        f"run report: {record.kind} {record.run_id[:12]}", sections
    )


def report_for_journal(journal_path: str | Path) -> str:
    """Render a sweep or race journal (resumable NDJSON) as an HTML report.

    Needs no store: :func:`repro.experiments.gridrun.load_journal`, the
    grid runner's own reader, turns the journal into its result, so the
    journal of a run killed mid-write renders its complete lines, a
    corrupt one is a :class:`~repro.exceptions.ConfigurationError`
    naming the line, and the sections are those of the stored run.
    """
    name, sections = _grid_sections(load_journal(journal_path))
    return render_run_report(f"{name} report: {Path(journal_path).name}", sections)


# ---------------------------------------------------------------------------
# Sections of a sweep or race result (a journal or a stored run).
# ---------------------------------------------------------------------------


def _grid_sections(result: Any) -> tuple[str, list[tuple[str, str]]]:
    """``("sweep" or "arena", sections)`` of a grid result; none otherwise."""
    from repro.experiments.sweep import SweepResult
    from repro.schedulers.arena import ArenaResult

    if isinstance(result, SweepResult):
        return "sweep", _sweep_sections(result)
    if isinstance(result, ArenaResult):
        return "arena", _arena_sections(result)
    return "", []


def _grid_table(grid: Any, note: str) -> str:
    identity = sorted((str(k), json.dumps(v)) for k, v in grid.as_dict().items())
    return _kv_table(identity) + f'<p class="note">{note}</p>'


def _makespan_chart(
    rows: Sequence[Any], series: str, title: str
) -> list[tuple[str, str]]:
    """Makespan against resources over the first row's slice.

    The slice is every row whose point differs from the first row's in
    resources and ``series`` (the heuristic or the scheduler) alone;
    one line per ``series`` value that covers every resource count.
    """
    def sliced(point: Any) -> Any:
        return replace(point, resources=0, **{series: ""})

    first = sliced(rows[0].point)
    lines: dict[str, dict[int, float]] = {}
    for row in rows:
        if sliced(row.point) == first:
            lines.setdefault(getattr(row.point, series), {})[
                row.point.resources
            ] = row.makespan
    xs = sorted({x for points in lines.values() for x in points})
    series_hours = {
        name: [_hours(points[x]) for x in xs]
        for name, points in sorted(lines.items())
        if len(points) == len(xs)
    }
    if len(xs) < 2 or not series_hours:
        return []
    chart = svg_line_chart(
        [float(x) for x in xs],
        series_hours,
        title=title,
        x_label="resources",
        y_label="makespan (h)",
    )
    return [("Makespan vs resources", chart)]


def _sweep_sections(result: SweepResult) -> list[tuple[str, str]]:
    """Grid, makespan chart and distribution, and best points of a sweep."""
    feasible = [row for row in result.rows if row.makespan is not None]
    sections = [
        (
            "Sweep grid",
            _grid_table(
                result.grid,
                f"{len(result.rows)} evaluated point(s), "
                f"{len(result.rows) - len(feasible)} infeasible.",
            ),
        )
    ]
    if not feasible:
        return sections
    first = feasible[0].point
    sections.extend(
        _makespan_chart(
            feasible,
            "heuristic",
            f"{first.cluster}: NS={first.scenarios} NM={first.months}",
        )
    )
    sections.append(
        (
            "Makespan distribution",
            svg_histogram(
                [_hours(row.makespan) for row in feasible],
                title=f"{len(feasible)} feasible point(s)",
                x_label="makespan (h)",
                y_label="points",
            ),
        )
    )
    best = sorted(feasible, key=lambda row: row.makespan)[:10]
    table = _table(
        ["cluster", "R", "NS", "NM", "heuristic", "makespan (h)", "grouping"],
        [
            [
                *astuple(row.point),
                f"{_hours(row.makespan):.2f}",
                row.grouping,
            ]
            for row in best
        ],
    )
    sections.append(("Best points", table))
    return sections


def _arena_sections(result: ArenaResult) -> list[tuple[str, str]]:
    """Race grid, standings, win matrix, and makespan chart of a race."""
    summary = result.summary()
    standings, matrix = result.standings()
    schedulers = result.grid.schedulers
    sections = [
        (
            "Arena race",
            _grid_table(
                result.grid,
                f'{summary["evaluated"]} evaluated point(s) '
                f'of {summary["points"]}, {summary["feasible"]} feasible, '
                f'{summary["crashed"]} crashed.',
            ),
        ),
        (
            "Standings",
            _table(["scheduler", "wins", "mean gain vs basic (%)"], standings),
        ),
        (
            "Win matrix",
            _table(["beats →", *schedulers], matrix)
            + '<p class="note">Cell counts the competition cells where the '
            "row scheduler's completed makespan strictly beats the column "
            "scheduler's.</p>",
        ),
    ]
    scored = [row for row in result.rows if row.makespan is not None and row.completed]
    if scored:
        first = scored[0].point
        sections.extend(
            _makespan_chart(
                scored,
                "scheduler",
                f"{first.cluster}: NS={first.scenarios} "
                f"NM={first.months} faults={first.fault}",
            )
        )
    return sections
