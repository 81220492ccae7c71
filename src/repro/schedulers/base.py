"""The :class:`Scheduler` interface and its plugin registry.

The paper evaluates four hand-rolled heuristics; the arena
(:mod:`repro.schedulers.arena`) makes that comparison open-ended by
racing anything that implements one small contract: a scheduler takes a
platform (:class:`~repro.platform.cluster.ClusterSpec`) and a scenario
spec (:class:`~repro.workflow.ocean_atmosphere.EnsembleSpec`) and
returns a :class:`~repro.core.grouping.Grouping` that passes
:meth:`~repro.core.grouping.Grouping.validate_against`.

Registration is decorator-based::

    @register_scheduler
    class MyScheduler(Scheduler):
        name = "my-scheduler"
        description = "what it does"

        def plan(self, cluster, spec):
            return Grouping.from_sizes([8, 8], cluster.resources)

and discovery goes through :func:`list_schedulers` /
:func:`get_scheduler`.  Every scheduler is constructed with a ``seed``
(ignored by deterministic ones) so stochastic competitors replay
bit-for-bit: the same ``(scheduler, seed, cluster, spec)`` always
yields the same grouping — the arena journal depends on it.

Callers go through :meth:`Scheduler.decide`, never :meth:`Scheduler.plan`
directly: ``decide`` validates the returned grouping against the timing
model and the paper's cardinality rule, and instruments the decision
(``scheduler.decide`` span, ``scheduler.decisions`` /
``scheduler.decide_seconds`` metrics) when observability is on.
"""

from __future__ import annotations

import abc
import time
from typing import ClassVar, Iterator

from repro import obs
from repro.core.grouping import Grouping
from repro.exceptions import ConfigurationError
from repro.platform.cluster import ClusterSpec
from repro.workflow.ocean_atmosphere import EnsembleSpec

__all__ = [
    "Scheduler",
    "get_scheduler",
    "iter_schedulers",
    "list_schedulers",
    "register_scheduler",
]

_log = obs.get_logger(__name__)


class Scheduler(abc.ABC):
    """One processor-partitioning strategy behind a uniform contract.

    Subclasses set the class attributes ``name`` (registry key,
    filename-safe) and ``description`` (one line for ``--list`` style
    output) and implement :meth:`plan`.  Schedulers must be pure in
    ``(seed, cluster, spec)``: no hidden state, no wall-clock reads, no
    unseeded randomness — the arena replays and resumes races on that
    assumption.
    """

    #: Registry key; unique across the process.
    name: ClassVar[str] = ""

    #: One-line summary shown by discovery listings.
    description: ClassVar[str] = ""

    #: Whether :meth:`plan` solves Improvement 3's knapsack on the
    #: cluster's item table.  The arena then builds that table's memoized
    #: ``dp`` stack once per race, at the grid's largest ``(R, NS)``,
    #: instead of letting each cell regrow it.
    reads_dp_stack: ClassVar[bool] = False

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ConfigurationError(f"scheduler seed must be an int, got {seed!r}")
        self.seed = seed

    @abc.abstractmethod
    def plan(self, cluster: ClusterSpec, spec: EnsembleSpec) -> Grouping:
        """Produce a grouping for ``spec`` on ``cluster``.

        Raise :class:`~repro.exceptions.SchedulingError` when the
        cluster cannot host any admissible partition.
        """

    def decide(self, cluster: ClusterSpec, spec: EnsembleSpec) -> Grouping:
        """Plan, validate, and instrument — the arena's entry point.

        The returned grouping has passed
        :meth:`~repro.core.grouping.Grouping.validate_against`, so a
        scheduler that emits an inadmissible partition fails here, at
        the decision, not deep inside the simulator.
        """
        if not obs.enabled():
            grouping = self.plan(cluster, spec)
            grouping.validate_against(cluster.timing, spec.scenarios)
            return grouping
        with obs.span(
            "scheduler.decide", scheduler=self.name, cluster=cluster.name
        ):
            started = time.perf_counter()
            grouping = self.plan(cluster, spec)
            elapsed = time.perf_counter() - started
        grouping.validate_against(cluster.timing, spec.scenarios)
        obs.inc("scheduler.decisions", scheduler=self.name, cluster=cluster.name)
        obs.observe(
            "scheduler.decide_seconds", elapsed,
            scheduler=self.name, cluster=cluster.name,
        )
        obs.log_event(
            _log, "scheduler.decided",
            scheduler=self.name, cluster=cluster.name,
            grouping=grouping.describe(), decide_seconds=elapsed,
        )
        return grouping


_REGISTRY: dict[str, type[Scheduler]] = {}


def register_scheduler(cls: type[Scheduler]) -> type[Scheduler]:
    """Class decorator adding a :class:`Scheduler` to the registry.

    The class must declare a non-empty, filename-safe ``name``;
    registering a taken name with a different class is an error while
    re-registering the same class is a no-op (idempotent imports, the
    same contract as :func:`repro.experiments.results_io.register_codec`).
    """
    if not issubclass(cls, Scheduler):
        raise ConfigurationError(
            f"@register_scheduler needs a Scheduler subclass, got {cls!r}"
        )
    name = cls.name
    if not name or any(ch in name for ch in "/\\ "):
        raise ConfigurationError(
            f"scheduler name {name!r} must be non-empty and filename-safe "
            f"(no spaces or slashes)"
        )
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise ConfigurationError(
            f"scheduler name {name!r} is already registered "
            f"for {existing.__name__}"
        )
    _REGISTRY[name] = cls
    return cls


def list_schedulers() -> tuple[str, ...]:
    """Every registered scheduler name, in registration order.

    The paper's four adapters register first (package import order), so
    figure-style reports keep the familiar baseline-first ordering.
    """
    _ensure_loaded()
    return tuple(_REGISTRY)


def get_scheduler(name: str, *, seed: int = 0) -> Scheduler:
    """Construct one registered scheduler by name."""
    _ensure_loaded()
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ConfigurationError(
            f"unknown scheduler {name!r}; registered: {sorted(_REGISTRY)}"
        )
    return cls(seed=seed)


def iter_schedulers(*, seed: int = 0) -> Iterator[Scheduler]:
    """One instance of every registered scheduler, registration order."""
    for name in list_schedulers():
        yield get_scheduler(name, seed=seed)


def _ensure_loaded() -> None:
    """Import the built-in scheduler modules exactly once.

    Discovery must not depend on what the caller happened to import:
    ``list_schedulers()`` from a cold process and from a process that
    already ran a race must agree.
    """
    import repro.schedulers  # noqa: F401  (package __init__ registers all)
