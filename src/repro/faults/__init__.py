"""repro.faults — deterministic fault injection across every layer.

The paper's campaign runs for weeks on Grid'5000; real deployments of
that scale see sites crash, drop offline for hours, and run degraded.
This subsystem makes those regimes a first-class, *seeded* input so the
rest of the codebase can be tested and measured under failure:

* :mod:`repro.faults.trace` — the failure-trace artifact:
  :class:`FaultEvent`/:class:`FaultTrace` (crash, transient outage,
  slowdown, rejoin) and :func:`generate_trace`, a per-cluster
  MTBF/MTTR renewal process whose output is bit-for-bit reproducible
  from ``(profiles, horizon, seed)``;
* :mod:`repro.faults.hooks` — the engine-level injector:
  :class:`FaultHook` compiles one cluster's sub-trace into an exact
  monotone time warp plus a crash instant, honoring the paper's
  monthly restart-file checkpoints (finished months are safe, the
  month in flight is lost);
* :mod:`repro.faults.chaos` — the service-level injector:
  :class:`ChaosConfig`/:class:`ChaosMonkey` arm a service worker with
  deterministic job crashes, forced timeouts, transient executor
  errors, worker kills, and store partitions.

Campaign-level replanning over a trace lives in
:func:`repro.middleware.recovery.run_campaign_with_faults`; the
degradation study in :mod:`repro.experiments.resilience`.  See
``docs/RESILIENCE.md``.
"""

from __future__ import annotations

from repro.faults.chaos import CHAOS_ACTIONS, ChaosConfig, ChaosMonkey
from repro.faults.hooks import FaultHook, FaultOutcome, simulate_with_faults
from repro.faults.trace import (
    FaultEvent,
    FaultKind,
    FaultProfile,
    FaultTrace,
    generate_trace,
)

__all__ = [
    # trace
    "FaultKind",
    "FaultEvent",
    "FaultTrace",
    "FaultProfile",
    "generate_trace",
    # hooks
    "FaultHook",
    "FaultOutcome",
    "simulate_with_faults",
    # chaos
    "CHAOS_ACTIONS",
    "ChaosConfig",
    "ChaosMonkey",
]
