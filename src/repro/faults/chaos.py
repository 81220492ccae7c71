"""Service-layer chaos injection — deterministic fault storms.

A :class:`ChaosConfig` arms a :class:`~repro.service.fleet.FleetWorker`
(a ``repro-oa worker`` process or one of the server's own pool
workers) with a *seeded* monkey that, on each claimed execution, may
inject one of six failure modes (:data:`CHAOS_ACTIONS`):

* in-pool modes (:data:`POOL_ACTIONS`), each consuming the attempt
  through the worker's one failure/retry routine:

  - ``crash`` — the job's child process dies (it is killed and a fresh
    child takes the next job);
  - ``timeout`` — the job overruns its deadline (same handling as a
    real deadline: the child is killed);
  - ``error`` — a transient executor exception (plain failed attempt);

* process modes (:data:`PROCESS_ACTIONS`), which hit the worker itself
  and are recovered by leases instead:

  - ``kill`` — SIGKILL right after the claim (the lease is never
    released);
  - ``kill-heartbeat`` — SIGKILL after one successful lease renewal
    (the lease looks *fresh* when the worker dies);
  - ``partition`` — the worker is cut off from the store mid-job:
    heartbeats stop, the job still "completes", and the owner-checked
    write must lose.

Decisions are a pure function of ``(seed, run_id, attempt)`` — not of
scheduler interleaving or of which worker claimed the run — so a
chaotic campaign is *replayable*: the same submissions under the same
seed hit the same storms, which is what lets the chaos suite assert
exact outcomes.  A ``None`` config (or all rates zero) costs nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import obs
from repro.exceptions import ServiceError

__all__ = [
    "CHAOS_ACTIONS",
    "POOL_ACTIONS",
    "PROCESS_ACTIONS",
    "ChaosConfig",
    "ChaosMonkey",
]

_log = obs.get_logger(__name__)

#: Failure modes a job execution can suffer inside a healthy worker.
POOL_ACTIONS: tuple[str, ...] = ("crash", "timeout", "error")

#: Failure modes that kill or partition the worker itself.
PROCESS_ACTIONS: tuple[str, ...] = ("kill", "kill-heartbeat", "partition")

#: Every injectable mode, in decision-threshold order.
CHAOS_ACTIONS: tuple[str, ...] = POOL_ACTIONS + PROCESS_ACTIONS


@dataclass(frozen=True)
class ChaosConfig:
    """Per-execution injection probabilities (one per action) plus the seed.

    Each rate is the probability that one claimed execution suffers
    that failure mode; the rates must sum to at most 1.  ``seed``
    anchors the deterministic decision stream.
    """

    seed: int = 0
    crash_rate: float = 0.0
    timeout_rate: float = 0.0
    error_rate: float = 0.0
    kill_rate: float = 0.0
    kill_heartbeat_rate: float = 0.0
    partition_rate: float = 0.0

    def __post_init__(self) -> None:
        rates = self.rates
        if any(r < 0 or r > 1 for r in rates):
            raise ServiceError(
                f"chaos rates must be in [0, 1], got {rates!r}",
                code="bad-request",
            )
        if sum(rates) > 1.0 + 1e-12:
            raise ServiceError(
                f"chaos rates must sum to <= 1, got {sum(rates)!r}",
                code="bad-request",
            )

    @property
    def rates(self) -> tuple[float, ...]:
        """The rates in :data:`CHAOS_ACTIONS` order."""
        return (
            self.crash_rate,
            self.timeout_rate,
            self.error_rate,
            self.kill_rate,
            self.kill_heartbeat_rate,
            self.partition_rate,
        )

    @property
    def total_rate(self) -> float:
        """Probability that an execution suffers *some* injection."""
        return sum(self.rates)

    @classmethod
    def storm(
        cls,
        seed: int = 0,
        rate: float = 0.5,
        actions: tuple[str, ...] = POOL_ACTIONS,
    ) -> "ChaosConfig":
        """A balanced storm splitting ``rate`` evenly over ``actions``.

        ``serve --chaos-rate`` storms the in-pool modes (the default);
        ``worker --fleet-chaos-rate`` storms :data:`PROCESS_ACTIONS`.
        """
        unknown = set(actions) - set(CHAOS_ACTIONS)
        if not actions or unknown:
            raise ServiceError(
                f"storm actions must be a non-empty subset of "
                f"{CHAOS_ACTIONS}, got {actions!r}",
                code="bad-request",
            )
        share = rate / len(actions)
        return cls(
            seed=seed,
            **{
                f"{action.replace('-', '_')}_rate": share
                for action in actions
            },
        )


class ChaosMonkey:
    """The decision engine a :class:`~repro.service.fleet.FleetWorker` arms."""

    def __init__(self, config: ChaosConfig) -> None:
        self.config = config
        self.injected = 0

    def decide(self, run_id: str, attempt: int) -> str | None:
        """Which failure (if any) execution ``attempt`` of ``run_id`` suffers.

        Deterministic in ``(seed, run_id, attempt)`` — independent of
        worker interleaving — and ``None`` means the execution proceeds
        untouched.
        """
        if self.config.total_rate <= 0.0:
            return None
        roll = random.Random(
            f"chaos:{self.config.seed}:{run_id}:{attempt}"
        ).random()
        threshold = 0.0
        for action, rate in zip(CHAOS_ACTIONS, self.config.rates, strict=True):
            threshold += rate
            if roll < threshold:
                return action
        return None

    def record(self, action: str, run_id: str, kind: str) -> None:
        """Count one injection (metrics + structured log)."""
        self.injected += 1
        obs.inc("chaos.injected", action=action, kind=kind)
        obs.log_event(
            _log, "chaos.injected",
            action=action, run_id=run_id, kind=kind, total=self.injected,
        )
