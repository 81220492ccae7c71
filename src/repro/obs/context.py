"""Cross-process trace context: one trace id across client, worker, child.

A campaign submitted through the service touches at least three
processes — the submitting client, the worker that claims it (a
server pool thread or a ``repro-oa worker``), and that worker's job
child process (more after retries).  Each of them keeps its own :class:`~repro.obs.tracing.Tracer`
with its own span-id namespace, so span ids alone cannot stitch a
campaign back together.  The :class:`TraceContext` is the envelope that
can: a ``trace_id`` minted once at submit time, carried through the
NDJSON protocol, persisted on the run's store row, and re-hydrated
inside every worker attempt, so every span of one campaign — client
submit, each job attempt, chaos injections, retries, the child-side
simulation spans — shares one ``trace_id`` in its args.

The context travels as a plain dict (:meth:`TraceContext.to_wire` /
:meth:`TraceContext.from_wire`) because everything it crosses — the
TCP protocol, the SQLite row, the executor's pickled call — only
speaks plain values.

Process-local propagation mirrors the tracer's span stack: a single
module-level slot, scoped with :func:`use_trace`::

    with use_trace(mint_trace()):
        client.submit("campaign", {...})   # submit picks up the context
"""

from __future__ import annotations

import uuid
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Iterator, Mapping

from repro.exceptions import ServiceError

__all__ = [
    "TraceContext",
    "current_trace",
    "mint_trace",
    "set_current_trace",
    "use_trace",
]


@dataclass(frozen=True)
class TraceContext:
    """The identity a trace carries across process boundaries.

    ``trace_id`` names the whole campaign trace; ``parent_span_id`` is
    the span (in the *sender's* tracer) under which the receiver's
    spans logically nest; ``run_id`` binds the context to a store row
    once the submission is accepted.
    """

    trace_id: str
    parent_span_id: int | None = None
    run_id: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.trace_id, str) or not self.trace_id:
            raise ServiceError(
                f"trace_id must be a non-empty string, "
                f"got {self.trace_id!r}",
                code="bad-request",
            )

    def with_run(self, run_id: str) -> "TraceContext":
        """The same trace bound to a store run id."""
        return replace(self, run_id=run_id)

    def with_parent(self, parent_span_id: int | None) -> "TraceContext":
        """The same trace re-parented under another span."""
        return replace(self, parent_span_id=parent_span_id)

    def tag_args(self) -> dict[str, Any]:
        """Span-args projection: the keys traces are joined on."""
        tags: dict[str, Any] = {"trace_id": self.trace_id}
        if self.run_id is not None:
            tags["run_id"] = self.run_id
        return tags

    def to_wire(self) -> dict[str, Any]:
        """The plain-dict form shipped over pickles and protocols."""
        wire: dict[str, Any] = {"trace_id": self.trace_id}
        if self.parent_span_id is not None:
            wire["parent_span_id"] = self.parent_span_id
        if self.run_id is not None:
            wire["run_id"] = self.run_id
        return wire

    @classmethod
    def from_wire(cls, raw: Mapping[str, Any]) -> "TraceContext":
        """Validate and rebuild a context from :meth:`to_wire` output."""
        if not isinstance(raw, Mapping):
            raise ServiceError(
                f"trace context must be an object, "
                f"got {type(raw).__name__}",
                code="bad-request",
            )
        trace_id = raw.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            raise ServiceError(
                f"trace context needs a non-empty 'trace_id' string, "
                f"got {trace_id!r}",
                code="bad-request",
            )
        parent = raw.get("parent_span_id")
        if parent is not None and not isinstance(parent, int):
            raise ServiceError(
                f"trace parent_span_id must be an integer, got {parent!r}",
                code="bad-request",
            )
        run_id = raw.get("run_id")
        if run_id is not None and not isinstance(run_id, str):
            raise ServiceError(
                f"trace run_id must be a string, got {run_id!r}",
                code="bad-request",
            )
        return cls(trace_id=trace_id, parent_span_id=parent, run_id=run_id)


def mint_trace(run_id: str | None = None) -> TraceContext:
    """A fresh context with a random 16-hex-digit trace id."""
    return TraceContext(trace_id=uuid.uuid4().hex[:16], run_id=run_id)


_current: TraceContext | None = None


def current_trace() -> TraceContext | None:
    """The process-locally active context, if any."""
    return _current


def set_current_trace(context: TraceContext | None) -> None:
    """Install (or clear) the process-local context unconditionally.

    Prefer the scoped :func:`use_trace`; this unscoped setter exists
    for worker entry points whose whole process lifetime is one job.
    """
    global _current
    _current = context


@contextmanager
def use_trace(context: TraceContext | None) -> Iterator[TraceContext | None]:
    """Make ``context`` current for the ``with`` body; restore after."""
    global _current
    previous = _current
    _current = context
    try:
        yield context
    finally:
        _current = previous
