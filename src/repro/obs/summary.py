"""Human-readable digests of metrics dumps and trace files.

Backs the ``repro-oa obs`` CLI family: ``obs summary`` renders a
``--metrics-out`` JSON dump as aligned tables (or converts it to
Prometheus text), and ``obs trace`` digests a ``--trace-out`` file —
Chrome Trace Event JSON or JSONL — into per-name span statistics.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence

from repro.exceptions import ConfigurationError

__all__ = [
    "SPAN_COLUMNS",
    "load_trace_events",
    "render_metrics_summary",
    "render_trace_summary",
    "span_rows",
]


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _labels_text(labels: Mapping[str, object]) -> str:
    if not labels:
        return "-"
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "-+-".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append(" | ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)


def render_metrics_summary(dump: Mapping[str, object]) -> str:
    """Render a ``MetricsRegistry.as_dict`` document as text tables."""
    for section in ("counters", "gauges", "histograms"):
        if section not in dump:
            raise ConfigurationError(
                f"not a metrics dump: missing {section!r} section"
            )
    parts: list[str] = []
    for section in ("counters", "gauges"):
        table: Mapping[str, list] = dump[section]  # type: ignore[assignment]
        rows = [
            [name, _labels_text(entry.get("labels", {})), _fmt(entry["value"])]
            for name, series in sorted(table.items())
            for entry in series
        ]
        if rows:
            parts.append(
                f"{section}:\n" + _table(["name", "labels", "value"], rows)
            )
    histograms: Mapping[str, list] = dump["histograms"]  # type: ignore[assignment]
    rows = [
        [
            name,
            _labels_text(entry.get("labels", {})),
            _fmt(entry.get("count", 0)),
            _fmt(entry.get("mean", 0.0)),
            _fmt(entry.get("p50", 0.0)),
            _fmt(entry.get("p95", 0.0)),
            _fmt(entry.get("p99", 0.0)),
            _fmt(entry.get("max", 0.0)),
        ]
        for name, series in sorted(histograms.items())
        for entry in series
    ]
    if rows:
        parts.append(
            "histograms:\n"
            + _table(
                ["name", "labels", "count", "mean", "p50", "p95", "p99", "max"],
                rows,
            )
        )
    if not parts:
        return "(empty metrics dump)"
    return "\n\n".join(parts)


def load_trace_events(text: str) -> list[dict[str, object]]:
    """Parse trace text — Chrome JSON or JSONL — into a list of events."""
    stripped = text.strip()
    if not stripped:
        return []
    if stripped.startswith("{") and '"traceEvents"' in stripped[:200]:
        payload = json.loads(stripped)
        events = payload.get("traceEvents")
        if not isinstance(events, list):
            raise ConfigurationError(
                "trace JSON has no 'traceEvents' list"
            )
        return events
    events = []
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"trace line {lineno} is not valid JSON: {exc}"
            ) from None
    return events


#: The columns of :func:`span_rows`; durations in trace microseconds.
SPAN_COLUMNS = ["name", "count", "total_dur", "mean_dur", "max_dur"]


def span_rows(
    events: Sequence[Mapping[str, object]],
) -> tuple[str, list[list[str]]]:
    """Complete ("X") spans aggregated by name, heaviest total first.

    Returns a one-line header (spans, lanes, unit) and one row of
    :data:`SPAN_COLUMNS` per span name; no complete span, no rows.  The
    ``obs trace`` digest and the run report's span section both print
    these rows.
    """
    stats: dict[str, list[float]] = {}
    lanes: set[tuple[object, object]] = set()
    for event in events:
        if event.get("ph") != "X":
            continue
        name = str(event.get("name", "?"))
        stats.setdefault(name, []).append(float(event.get("dur", 0.0)))
        lanes.add((event.get("pid"), event.get("tid")))
    rows = [
        [
            name,
            str(len(durs)),
            _fmt(sum(durs)),
            _fmt(sum(durs) / len(durs)),
            _fmt(max(durs)),
        ]
        for name, durs in sorted(stats.items(), key=lambda item: -sum(item[1]))
    ]
    header = (
        f"{sum(len(d) for d in stats.values())} span(s) across {len(lanes)} "
        f"lane(s); durations in trace microseconds"
    )
    return header, rows


def render_trace_summary(events: list[dict[str, object]]) -> str:
    """The :func:`span_rows` digest of a trace as a text table."""
    header, rows = span_rows(events)
    if not rows:
        return "(no complete spans in trace)"
    return header + "\n" + _table(SPAN_COLUMNS, rows)
