"""Trace inspection: ASCII Gantt charts and textual summaries.

The Gantt renderer reproduces the *shape* diagrams of the paper
(Figures 3–6): hatched main-task waves, post tasks filling the dedicated
pool and the resources left by the last incomplete wave, and the
"overpassing" tail where late posts outlive the mains.
"""

from __future__ import annotations

from repro.exceptions import SimulationError
from repro.simulation.events import SimulationResult

__all__ = ["render_gantt", "trace_summary"]

#: Glyph for a processor busy with a main task (the paper's hatching).
MAIN_GLYPH = "#"

#: Glyph for a processor busy with a post task (the paper's light boxes).
POST_GLYPH = "o"

#: Glyph for an idle processor.
IDLE_GLYPH = "."


def render_gantt(
    result: SimulationResult,
    *,
    width: int = 100,
    max_rows: int = 60,
) -> str:
    """Render a processor×time occupancy chart as ASCII art.

    Each row is one processor (down-sampled evenly when the cluster has
    more than ``max_rows``); each column is a time bucket of
    ``makespan / width`` seconds.  A bucket shows a main glyph if any
    main task overlaps it, else a post glyph, else idle.
    """
    if not result.has_trace:
        raise SimulationError("Gantt rendering needs record_trace=True")
    if width < 10:
        raise SimulationError(f"width must be >= 10, got {width!r}")
    total = result.grouping.total_resources
    horizon = result.makespan
    if horizon <= 0:
        return "(empty schedule)"

    rows = min(total, max_rows)
    step = total / rows
    rendered = {int(row * step) for row in range(rows)}

    # occupancy[proc] = list of (start, end, kind) — only for processors
    # that will actually appear as rows, so down-sampled renders of large
    # clusters do not pay for intervals nobody looks at.
    occupancy: dict[int, list[tuple[float, float, str]]] = {
        p: [] for p in rendered
    }
    for record in result.records:
        for proc in record.procs:
            if proc in rendered:
                occupancy[proc].append(
                    (record.start, record.end, record.kind)
                )
    dt = horizon / width
    lines: list[str] = []
    header = (
        f"cluster={result.cluster_name} R={total} "
        f"grouping=[{result.grouping.describe()}] "
        f"makespan={horizon:.0f}s (mains end {result.main_makespan:.0f}s)"
    )
    lines.append(header)
    lines.append(f"time: 0 {'-' * (width - 12)} {horizon:.0f}s")
    for row in range(rows):
        proc = int(row * step)
        cells: list[str] = []
        intervals = sorted(occupancy[proc])
        for col in range(width):
            t0, t1 = col * dt, (col + 1) * dt
            glyph = IDLE_GLYPH
            for start, end, kind in intervals:
                if start < t1 and end > t0:
                    glyph = MAIN_GLYPH if kind == "main" else POST_GLYPH
                    if glyph == MAIN_GLYPH:
                        break
            cells.append(glyph)
        lines.append(f"p{proc:>4} |{''.join(cells)}|")
    lines.append(
        f"legend: '{MAIN_GLYPH}' main task, '{POST_GLYPH}' post task, "
        f"'{IDLE_GLYPH}' idle"
    )
    return "\n".join(lines)


def trace_summary(result: SimulationResult) -> str:
    """A short textual digest of a traced schedule."""
    if not result.has_trace:
        raise SimulationError("trace summary needs record_trace=True")
    mains = result.records_of_kind("main")
    posts = result.records_of_kind("post")
    lines = [
        f"cluster {result.cluster_name}: "
        f"{result.spec.scenarios} scenarios x {result.spec.months} months "
        f"on R={result.grouping.total_resources}",
        f"grouping: {result.grouping.describe()}",
        f"main tasks: {len(mains)}, post tasks: {len(posts)}",
        f"main makespan: {result.main_makespan:.1f}s",
        f"total makespan: {result.makespan:.1f}s "
        f"(post tail: {result.makespan - result.main_makespan:.1f}s)",
    ]
    if posts:
        # Post waiting time: gap between readiness (its main's end) and start.
        by_key = {(r.scenario, r.month): r for r in mains}
        delays = [
            p.start - by_key[(p.scenario, p.month)].end
            for p in posts
            if (p.scenario, p.month) in by_key
        ]
        if delays:
            lines.append(
                f"post wait: mean {sum(delays) / len(delays):.1f}s, "
                f"max {max(delays):.1f}s"
            )
    return "\n".join(lines)
