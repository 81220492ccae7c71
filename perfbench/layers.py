"""Per-layer tracing for the benchmark's traced run.

The benchmark never edits the program.  For a traced round it rebinds
the public functions each layer exposes, at the name their callers look
up, to a wrapper that records a span.  Spans nest: a layer's busy time
is its *self* time, the span's duration minus the time covered by the
spans it caused, so the layer times of one thread plus an explicit
``unattributed`` remainder add up to that thread's wall time exactly.

Three layers are *opaque*: :data:`OPAQUE`.  Each is a whole path rather
than a shared kernel — the fault-warped replay re-runs the reference
engine only to warp it, a scheduler's decision runs its own search, and
the replanner's scalar performance vector plans and simulates its own
ensembles — so everything their calls do is their time.  Calls made
inside an opaque span are counted but open no span of their own.

Spans stay in memory and are written out once, when the benchmark ends.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: ``(module, attribute, layer)`` — every function rebound in a traced
#: round.  Names bound at import time are patched in the module that
#: imported them; names looked up at call time on their own module.
FUNCTION_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.core.batch", "batch_plan_groupings", "core.batch.plan"),
    ("repro.experiments.sweep", "plan_grouping", "core.heuristics.plan"),
    ("repro.middleware.sed", "plan_grouping", "core.heuristics.plan"),
    ("repro.experiments.sweep", "cached_simulated_makespan", "simulation.engine"),
    ("repro.schedulers.arena", "cached_simulated_makespan", "simulation.engine"),
    ("repro.simulation.engine", "simulate", "simulation.engine"),
    ("repro.middleware.sed", "simulate", "simulation.engine"),
    ("repro.middleware.recovery", "simulate", "simulation.engine"),
    ("repro.middleware.client", "repartition_dags", "core.repartition"),
    ("repro.middleware.recovery", "repartition_dags", "core.repartition"),
    ("repro.middleware.recovery", "performance_vector", "core.performance_vector"),
    ("repro.middleware.recovery", "knapsack_grouping", "core.heuristics.plan"),
    ("repro.middleware.recovery", "fused_scenario_dag", "workflow.dag"),
    ("repro.middleware.recovery", "simulate_dag", "simulation.dag_engine"),
    ("repro.faults.trace", "generate_trace", "faults.trace.generate"),
    ("repro.schedulers.arena", "generate_trace", "faults.trace.generate"),
    ("repro.faults.hooks", "simulate_with_faults", "faults.hooks.replay"),
    ("repro.experiments.sweep", "dump_result", "experiments.journal"),
    ("repro.schedulers.arena", "dump_result", "experiments.journal"),
)

#: Layers whose results are counted by length: plans per planner call,
#: fault events per generated trace.
ITEM_LAYERS = frozenset({"core.batch.plan", "faults.trace.generate"})

OPAQUE = frozenset(
    {"faults.hooks.replay", "schedulers.decide", "core.performance_vector"}
)

#: ``(module, class, method, layer)`` — methods rebound on their class.
METHOD_TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("repro.middleware.sed", "SeD", "handle_request", "middleware.sed.request"),
    ("repro.middleware.sed", "SeD", "execute", "middleware.sed.execute"),
    ("repro.service.client", "ServiceClient", "health", "service.protocol.health"),
    ("repro.service.client", "ServiceClient", "submit", "service.protocol.submit"),
    ("repro.service.client", "ServiceClient", "status", "service.protocol.status"),
    ("repro.service.client", "ServiceClient", "wait", "service.client.wait"),
)


class LayerTracer:
    """Nested spans, per-layer self time and per-binding call counts.

    ``calls`` is keyed by the patched binding (``module.attr``), so a
    layer reached through several names can still be counted exactly
    once per call of one of them.
    """

    def __init__(self) -> None:
        #: ``(span id, layer, thread id, start, end, parent span id)``
        self.spans: list[tuple[int, str, int, float, float, int]] = []
        self.busy: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.items: Counter[str] = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, binding: str) -> None:
        with self._lock:
            self.calls[binding] += 1

    def wrap(
        self, layer: str, binding: str, fn: Callable[..., Any], *, items: bool = False
    ) -> Callable[..., Any]:
        """``fn`` recording one span per call under ``layer``.

        With ``items``, the length of each result is added to
        ``items[layer]``.
        """

        opaque = layer in OPAQUE

        def traced_call(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            if stack and stack[-1][2]:
                self._count(binding)
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else -1
            frame = [0.0, next(self._ids), opaque]  # child seconds, id, opaque
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                stack.pop()
                duration = ended - started
                if stack:
                    stack[-1][0] += duration
                with self._lock:
                    self.busy[layer] += duration - frame[0]
                    self.calls[binding] += 1
                    self.spans.append(
                        (frame[1], layer, threading.get_ident(), started, ended, parent)
                    )
            if items:
                with self._lock:
                    self.items[layer] += len(result)
            return result

        traced_call.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced_call

    def span_events(self) -> list[dict[str, Any]]:
        """Spans as Chrome trace-event dicts (microseconds)."""
        return [
            {
                "name": layer, "ph": "X", "pid": 1, "tid": tid,
                "ts": started * 1e6, "dur": (ended - started) * 1e6,
                "args": {"id": span_id, "parent": parent},
            }
            for span_id, layer, tid, started, ended, parent in self.spans
        ]


@contextmanager
def traced(tracer: LayerTracer) -> Iterator[LayerTracer]:
    """Rebind every target to its traced wrapper; restore on exit."""
    restore: list[tuple[Any, str, Any, bool]] = []
    try:
        for module_name, attr, layer in FUNCTION_TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            restore.append((module, attr, original, True))
            wrapper = tracer.wrap(
                layer, f"{module_name}.{attr}", original,
                items=layer in ITEM_LAYERS,
            )
            setattr(module, attr, wrapper)
        methods = [
            (getattr(importlib.import_module(module), cls), method, layer)
            for module, cls, method, layer in METHOD_TARGETS
        ]
        from repro.schedulers.base import get_scheduler, list_schedulers

        schedulers = {type(get_scheduler(name)) for name in list_schedulers()}
        methods += [(cls, "decide", "schedulers.decide") for cls in schedulers]
        for cls, method, layer in methods:
            owned = method in cls.__dict__
            original = cls.__dict__[method] if owned else getattr(cls, method)
            restore.append((cls, method, original, owned))
            binding = f"{cls.__module__}.{cls.__name__}.{method}"
            setattr(cls, method, tracer.wrap(layer, binding, original))
        yield tracer
    finally:
        for owner, attr, original, owned in reversed(restore):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
