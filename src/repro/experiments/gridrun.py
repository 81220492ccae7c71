"""One resumable, journaled runner for every grid driver.

The paper's figures are sweeps over ``R × NS × heuristic``, and the
scheduler arena races over the same axes plus fault traces.  Both are
a grid of points evaluated chunk by chunk; :func:`run_grid` owns that
loop, so :mod:`repro.experiments.sweep` and
:mod:`repro.schedulers.arena` only declare their grid, their rows and
their per-chunk evaluation (a :class:`GridKind`).

:func:`run_grid` splits the pending points into chunks in grid order,
evaluates them through :func:`ordered_map` — serially, or across a
:class:`~concurrent.futures.ProcessPoolExecutor` with results in
order, so parallel rows are bit-identical to serial ones — and appends
each completed chunk to an NDJSON journal through the
:mod:`~repro.experiments.results_io` envelope::

    {"figure": "generic", ..., "data": {"kind": "<name>-grid", "data": {"grid": {...}}}}
    {"figure": "generic", ..., "data": {"kind": "<name>-rows", "data": {"rows": [...]}}}
    ...

The first line pins the grid identity; resuming against a journal
written for a different grid is a
:class:`~repro.exceptions.ConfigurationError`.  A resumed run skips
the journaled points, so an interrupted-then-resumed run equals one
uninterrupted run row for row, and writes the same journal bytes.

Torn tails: a line counts only when it ends in ``\\n`` and parses.  A
run killed mid-write leaves a final line that does not, so the reader
drops it and the file is truncated to the end of the last line that
counts before anything is appended.  Any other line that does not
parse is corruption, and an error naming the line.  There is one
journal reader: a resume and :func:`load_journal` (which hands the run
report a typed result, its grid decoded through the :class:`GridKind`
the grid line names) share it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro import obs
from repro.core.makespan import makespan_cache_stats
from repro.exceptions import ConfigurationError
from repro.experiments.results_io import GenericResult, load_result

__all__ = ["GridKind", "is_serial", "load_journal", "ordered_map", "run_grid"]


@dataclass(frozen=True)
class GridKind:
    """What one grid driver declares; :func:`run_grid` does the rest.

    ``name`` prefixes the journal's envelope kinds (``<name>-grid``,
    ``<name>-rows``) and its error messages; ``what`` is what a journal
    for another identity "was written for".  The codec functions stay
    in the declaring module: the two line encoders, the grid and row
    decoders, and ``result``, which builds the run's result from a
    grid and its rows in grid order.  Grids have ``points()``, ``size``
    and ``as_dict()`` (the identity); points have a ``key()`` and rows a
    ``point``.  The metric and span names are the declaring module's.
    """

    name: str
    what: str
    grid_line: Callable[[Any], str]
    rows_line: Callable[[Sequence[Any]], str]
    grid_from_dict: Callable[[dict[str, Any]], Any]
    row_from_dict: Callable[[dict[str, Any]], Any]
    result: Callable[[Any, tuple[Any, ...]], Any]
    chunk_size: int
    span: str
    runs_metric: str
    points_metric: str
    chunks_metric: str
    seconds_metric: str
    resumed_metric: str


def is_serial(workers: int | None, count: int) -> bool:
    """Whether :func:`ordered_map` runs ``count`` items in this process."""
    return workers in (None, 0, 1) or count <= 1


def ordered_map(
    fn: Callable[[Any], Any], items: Sequence[Any], workers: int | None
) -> Iterator[Any]:
    """``fn`` over ``items``, yielding results in item order.

    ``workers in (None, 0, 1)`` runs serially; larger values fan the
    items out over a process pool, so ``fn`` and each item must be
    picklable.  Results arrive one at a time, so a caller can journal
    each the moment it completes.
    """
    if workers is not None and workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers!r}")
    if is_serial(workers, len(items)):
        return map(fn, items)
    return _pool_map(fn, items, workers)


def _pool_map(
    fn: Callable[[Any], Any], items: Sequence[Any], workers: int | None
) -> Iterator[Any]:
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as executor:
        yield from executor.map(fn, items)


def _declared_kind(tag: str) -> GridKind | None:
    """The kind whose grid lines carry ``tag``, from its declaring module.

    Imported here, on demand: ``sweep`` and ``arena`` import this
    module, so it imports neither of them at module level.
    """
    if tag == "sweep-grid":
        from repro.experiments.sweep import _SWEEP

        return _SWEEP
    if tag == "arena-grid":
        from repro.schedulers.arena import _ARENA

        return _ARENA
    return None


def _read_journal(
    path: Path, label: str, kind: GridKind | None = None
) -> tuple[GridKind, Any, dict[tuple, Any], int] | None:
    """The journal's kind, grid identity, rows by point key, and end.

    The end is the byte just past the last line that counts.  A line
    counts when it ends in ``\\n`` and parses.  The final non-blank line
    may be torn — unterminated, or cut mid-write — and is dropped; any
    earlier line that does not parse, or that is not the kind's grid
    line (first) or rows line (after it), is corruption: a
    :class:`~repro.exceptions.ConfigurationError` naming ``label`` and
    the line.  Without ``kind``, the grid line names it.  Returns
    ``None`` when no grid line counts (an empty journal, or a torn
    grid line), so a resume starts fresh.
    """
    pieces = path.read_bytes().split(b"\n")
    last = max((i for i, piece in enumerate(pieces) if piece.strip()), default=-1)
    identity: Any = None  # set by the grid line
    done: dict[tuple, Any] = {}
    offset = end = 0
    for index, piece in enumerate(pieces[:-1]):  # the last piece has no newline
        offset += len(piece) + 1
        if not piece.strip():
            continue
        line = index + 1
        try:
            envelope = load_result(piece.decode())
        except (ConfigurationError, UnicodeDecodeError):
            if index == last:
                break  # torn final write — discard it
            raise ConfigurationError(f"corrupt {label} at line {line}") from None
        tag = (
            envelope.kind
            if isinstance(envelope, GenericResult)
            else type(envelope).__name__
        )
        if identity is None:
            kind = kind or _declared_kind(tag)
            if kind is None or tag != f"{kind.name}-grid":
                raise ConfigurationError(f"{label} does not start with a grid line")
            identity = envelope.data.get("grid", {})
        elif tag != f"{kind.name}-rows":
            raise ConfigurationError(
                f"{label} line {line} has unexpected kind {tag!r}"
            )
        else:
            for raw in envelope.data.get("rows", ()):
                try:
                    row = kind.row_from_dict(raw)
                except (KeyError, TypeError, ValueError) as exc:
                    raise ConfigurationError(
                        f"{label} line {line} holds a malformed row: {exc}"
                    ) from exc
                done[row.point.key()] = row
        end = offset
    return None if identity is None else (kind, identity, done, end)


def _in_grid_order(grid: Any, done: dict[tuple, Any]) -> tuple[Any, ...]:
    return tuple(done[point.key()] for point in grid.points() if point.key() in done)


def load_journal(path: str | Path) -> Any:
    """The result a grid journal holds so far, typed.

    The grid line names the declaring :class:`GridKind`, which decodes
    the grid and the rows: a sweep journal loads as a
    :class:`~repro.experiments.sweep.SweepResult`, a race journal as an
    :class:`~repro.schedulers.arena.ArenaResult`, holding what
    :func:`run_grid` would return on resuming it.  Lines are read by
    the resume rule, so a journal killed mid-write loads its complete
    lines, and a corrupt one is a
    :class:`~repro.exceptions.ConfigurationError` naming the line.
    """
    label = f"journal {path}"
    try:
        loaded = _read_journal(Path(path), label)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {label}: {exc}") from None
    if loaded is None:
        raise ConfigurationError(f"{label} holds no complete grid line")
    kind, identity, done, _end = loaded
    try:
        grid = kind.grid_from_dict(identity)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"{label} has a malformed grid line: {exc}") from exc
    return kind.result(grid, _in_grid_order(grid, done))


def run_grid(
    kind: GridKind,
    grid: Any,
    evaluate: Callable[[tuple[Any, ...]], Any],
    *,
    workers: int | None,
    chunk_size: int | None,
    journal_path: str | Path | None,
    resume: bool,
    max_chunks: int | None,
    collect: Callable[[Any], Sequence[Any]] | None = None,
    **span_attrs: Any,
) -> tuple[Any, ...]:
    """Evaluate ``grid`` chunk by chunk, journaling each chunk.

    ``evaluate`` maps one chunk (a tuple of points) to its rows; it
    runs in worker processes when ``workers > 1``.  When it returns
    more than rows, ``collect`` turns its result into the rows, in this
    process.  ``max_chunks`` caps this call's work.  Returns the rows
    evaluated so far — journaled history plus this call's work — in
    grid order.
    """
    points = grid.points()
    journal = Path(journal_path) if journal_path is not None else None
    done: dict[tuple, Any] = {}
    journal_end: int | None = None  # None: write a fresh journal
    if journal is not None and resume and journal.exists():
        loaded = _read_journal(journal, f"{kind.name} journal {journal}", kind)
        if loaded is not None:
            _kind, identity, done, journal_end = loaded
            if identity != grid.as_dict():
                raise ConfigurationError(
                    f"{kind.name} journal {journal} was written for a different "
                    f"{kind.what}; pass resume=False (or a fresh path) to "
                    f"overwrite it"
                )

    pending = [point for point in points if point.key() not in done]
    if chunk_size is None:
        chunk_size = kind.chunk_size
    elif chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size!r}")
    chunks = [
        tuple(pending[i : i + chunk_size])
        for i in range(0, len(pending), chunk_size)
    ]
    if max_chunks is not None:
        if max_chunks < 0:
            raise ConfigurationError(f"max_chunks must be >= 0, got {max_chunks!r}")
        chunks = chunks[:max_chunks]
    results = ordered_map(evaluate, chunks, workers)

    handle = None
    if journal is not None:
        if journal_end is None:
            handle = journal.open("w")
            handle.write(kind.grid_line(grid) + "\n")
            handle.flush()
        else:
            handle = journal.open("a")
            handle.truncate(journal_end)

    started = time.perf_counter()
    evaluated = 0
    try:
        with obs.span(
            kind.span,
            points=grid.size, pending=len(pending), chunks=len(chunks),
            **span_attrs,
        ):
            for result in results:
                rows = result if collect is None else collect(result)
                for row in rows:
                    done[row.point.key()] = row
                evaluated += len(rows)
                if handle is not None:
                    handle.write(kind.rows_line(rows) + "\n")
                    handle.flush()
                obs.inc(kind.points_metric, len(rows))
                obs.inc(kind.chunks_metric)
    finally:
        if handle is not None:
            handle.close()

    if obs.enabled():
        obs.observe(kind.seconds_metric, time.perf_counter() - started)
        obs.inc(kind.runs_metric)
        for cache, counters in makespan_cache_stats().items():
            obs.set_gauge("makespan.cache_size", counters["size"], kind=cache)
        obs.set_gauge(kind.resumed_metric, len(done) - evaluated)

    return _in_grid_order(grid, done)
