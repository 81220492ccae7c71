"""The storage-backend contract behind :class:`repro.service.store.RunStore`.

A backend owns the durable representation of the ``runs`` table and
nothing else: record-level reads and writes, the schema migration
chain, and the atomicity of the claim/lease/transition primitives.
Policy — run-id minting, timestamping via the injected clock, typed
:class:`~repro.exceptions.ServiceError` raising, backoff arithmetic —
stays in :class:`~repro.service.store.RunStore`, so every backend
behaves identically through the store facade and the storage-contract
test suite can race them against each other.

Three implementations ship:

* :class:`~repro.service.backends.sqlite.SQLiteBackend` — the dev
  default, one WAL-mode file, safe across processes on one host;
* :class:`~repro.service.backends.postgres.PostgresBackend` — the
  server-grade backend for multi-host worker fleets, a thin DB-API
  adapter gated on an installed ``psycopg``/``psycopg2``;
* :class:`~repro.service.backends.memory.MemoryBackend` — a pure
  in-process fake for tests, same contract, no I/O.

Schema history (``schema_version``):

* **v1** — the original ``runs`` table;
* **v2** — adds the ``trace_id`` correlation column
  (:mod:`repro.obs.context`);
* **v3** — adds the lease columns ``owner_id``, ``lease_expires_at``
  and ``heartbeat_at`` for horizontal worker fleets (the ``attempts``
  counter has carried the per-run attempt count since v1).
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

__all__ = [
    "LEASE_EXPIRED_ERROR",
    "LeaseView",
    "RUN_STATES",
    "RunRecord",
    "SCHEMA_VERSION",
    "StorageBackend",
    "expired_lease_outcome",
]

#: Current on-disk layout (see the schema history in the module
#: docstring); stamped by every backend's migration chain.
SCHEMA_VERSION = 3

#: The recorded error of a run whose lease expired on its last attempt.
LEASE_EXPIRED_ERROR = "lease expired on final attempt"

#: Legal ``runs.state`` values, in lifecycle order.
RUN_STATES: tuple[str, ...] = (
    "queued",
    "running",
    "done",
    "failed",
    "cancelled",
)

#: States a run can never leave.
_TERMINAL = frozenset({"done", "failed", "cancelled"})


@dataclass(frozen=True)
class RunRecord:
    """One submitted job, as stored."""

    run_id: str
    kind: str
    params: dict[str, Any]
    state: str
    created_at: float
    updated_at: float
    attempts: int
    max_attempts: int
    not_before: float
    error: str | None
    result: str | None
    trace_id: str | None = None
    owner_id: str | None = None
    lease_expires_at: float | None = None
    heartbeat_at: float | None = None

    @property
    def finished(self) -> bool:
        """Whether the run reached a terminal state."""
        return self.state in _TERMINAL

    def summary(self) -> dict[str, Any]:
        """The wire-friendly projection (everything but the result body)."""
        return {
            "run_id": self.run_id,
            "kind": self.kind,
            "params": self.params,
            "state": self.state,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "error": self.error,
            "trace_id": self.trace_id,
            "owner_id": self.owner_id,
        }


@dataclass(frozen=True)
class LeaseView:
    """One live lease, as reported by :meth:`StorageBackend.live_leases`."""

    run_id: str
    owner_id: str
    lease_expires_at: float
    heartbeat_at: float

    def age(self, now: float) -> float:
        """Seconds since the owner last heartbeat, as of ``now``."""
        return max(0.0, now - self.heartbeat_at)


def expired_lease_outcome(record: RunRecord) -> tuple[str, str | None]:
    """The ``(state, error)`` an expired lease leaves ``record`` in.

    The reaper's one attempt-budget rule, shared by every backend: a
    run whose expired attempt was its last (``attempts >=
    max_attempts``) lands ``failed`` with :data:`LEASE_EXPIRED_ERROR`;
    every other one is requeued with its error untouched.
    """
    if record.attempts >= record.max_attempts:
        return "failed", LEASE_EXPIRED_ERROR
    return "queued", record.error


def params_to_json(params: dict[str, Any]) -> str:
    """Canonical serialization of a record's parameter dict."""
    return json.dumps(params)


class StorageBackend(ABC):
    """Record-level persistence for submitted runs (see module docstring).

    Implementations must make :meth:`claim_next`, :meth:`transition`,
    :meth:`heartbeat` and :meth:`expire_leases` atomic with respect to
    concurrent claimants — including claimants in *other processes*
    for backends that support them — because the worker fleet's
    exactly-once guarantee reduces to these four compare-and-set
    primitives.
    """

    #: Human-readable backend identifier (``sqlite``, ``postgres``,
    #: ``memory``), used in logs and the health report.
    name: str = "?"

    #: The location this backend persists to (path, DSN, or pseudo-URL).
    url: str = "?"

    # -- schema ------------------------------------------------------------

    @abstractmethod
    def migrate(self) -> None:
        """Create or upgrade the schema in place; refuse newer layouts.

        Must raise :class:`~repro.exceptions.ServiceError` with code
        ``schema-version`` when the stored version is newer than
        :data:`SCHEMA_VERSION`, and must preserve existing rows
        bit-for-bit when upgrading.
        """

    @abstractmethod
    def schema_version(self) -> int:
        """The stored schema version stamp."""

    # -- writes ------------------------------------------------------------

    @abstractmethod
    def insert(self, record: RunRecord) -> None:
        """Persist a brand-new queued run."""

    @abstractmethod
    def claim_next(
        self,
        now: float,
        *,
        owner_id: str | None = None,
        lease_expires_at: float | None = None,
    ) -> RunRecord | None:
        """Atomically move the oldest eligible queued run to ``running``.

        Bumps ``attempts`` and stamps ``owner_id`` /
        ``lease_expires_at`` / ``heartbeat_at`` when a leased owner
        claims; an ownerless (``owner_id=None``) claim leaves the lease
        columns NULL.  Returns the claimed record, or ``None`` when
        nothing is eligible at ``now``.
        """

    @abstractmethod
    def heartbeat(
        self,
        run_id: str,
        owner_id: str,
        *,
        now: float,
        lease_expires_at: float,
    ) -> bool:
        """Renew a live lease; ``False`` when the lease is no longer held.

        The renewal only applies while the row is ``running`` *and*
        still owned by ``owner_id`` — a reassigned or completed run
        refuses, which is how a partitioned worker learns it lost
        ownership.
        """

    @abstractmethod
    def transition(
        self,
        run_id: str,
        expect: str,
        state: str,
        *,
        now: float,
        result: str | None = None,
        error: str | None = None,
        not_before: float = 0.0,
        owner_id: str | None = None,
        clear_lease: bool = False,
    ) -> bool:
        """Compare-and-set one row from ``expect`` to ``state``.

        When ``owner_id`` is given the row must additionally still be
        owned by it (the leased-completion path); ``clear_lease``
        resets the lease columns as part of the same write.  Returns
        whether exactly one row moved.
        """

    @abstractmethod
    def expire_leases(self, now: float) -> list[RunRecord]:
        """Reclaim every running run whose lease deadline has passed.

        Only leased rows (``owner_id`` set) participate; ownerless
        claims have no lease and are covered by
        :meth:`recover_interrupted` instead.  Each run lands where
        :func:`expired_lease_outcome` says — ``failed`` on its last
        attempt, ``queued`` otherwise.  Returns the expired records
        with that new ``state`` and ``error`` but owner, lease and
        attempts as they were at expiry, so the reaper can log who
        lost which run and count the outcome without deciding it again.
        """

    @abstractmethod
    def recover_interrupted(self, now: float) -> int:
        """Requeue ownerless ``running`` rows on startup.

        Every claim the service makes is leased, so an ownerless
        ``running`` row can only have been written by an older server
        (or an ad-hoc unleased claim) that is gone now.  Leased rows
        are never touched here: the reaper is their only recovery
        path.  Returns the number of requeued rows.
        """

    # -- reads -------------------------------------------------------------

    @abstractmethod
    def fetch(self, run_id: str) -> RunRecord | None:
        """One record, or ``None`` when unknown."""

    @abstractmethod
    def next_eligible_at(self) -> float | None:
        """Earliest ``not_before`` among queued runs (backoff wake-up)."""

    @abstractmethod
    def list_runs(
        self, state: str | None = None, *, limit: int = 100
    ) -> list[RunRecord]:
        """Runs newest-first, optionally filtered by state."""

    @abstractmethod
    def counts_by_state(self) -> dict[str, int]:
        """``{state: count}`` over every known state (zeros included)."""

    @abstractmethod
    def unfinished(self) -> list[RunRecord]:
        """Every run not yet in a terminal state, oldest first."""

    @abstractmethod
    def live_leases(self, now: float) -> list[LeaseView]:
        """Leases still live at ``now``, oldest heartbeat first."""

    # -- plumbing ----------------------------------------------------------

    @abstractmethod
    def close(self) -> None:
        """Release the backend's resources (idempotent)."""
