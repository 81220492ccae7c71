"""The persistent run store — campaign bookkeeping over pluggable backends.

Every submitted job becomes a record in a single ``runs`` table: its
kind, parameters, state machine position (``queued -> running ->
done/failed``, with ``cancelled`` as a side exit), attempt count,
backoff deadline, lease ownership, and — once finished — either the
serialized result envelope
(:func:`repro.experiments.results_io.dump_result`) or the recorded
error.  The store is the *only* durable state of the campaign service:
every execution is a leased claim, so after a crash the reaper
(:meth:`RunStore.expire_leases`) resumes the dead workers' runs once
their leases lapse, and a worker-fleet deployment shares one store
between the server and every ``repro-oa worker`` process.

Storage is pluggable (:mod:`repro.service.backends`): SQLite remains
the dev default, ``postgres://`` DSNs select the server-grade DB-API
adapter, and ``memory://`` selects the in-process test fake.  This
class is the *policy* layer over the backend contract — run-id
minting, timestamps from the injected clock, typed
:class:`~repro.exceptions.ServiceError` raising — so every backend
behaves identically to callers.

Leases (schema v3): a worker claims with ``owner_id`` and a lease
deadline, renews via :meth:`heartbeat`, and completes with an
owner-checked write.  If the worker dies, the server's reaper
(:meth:`expire_leases`) requeues the run for another worker — exactly
once, because every completion is a compare-and-set on (state, owner)
— or fails it when the lost attempt was its last.
"""

from __future__ import annotations

import time
import uuid
from pathlib import Path
from typing import Any, Callable

from repro.exceptions import ServiceError
from repro.service.backends import (
    RUN_STATES,
    SCHEMA_VERSION,
    LeaseView,
    RunRecord,
    StorageBackend,
    backend_from_url,
)

__all__ = [
    "LeaseView",
    "RUN_STATES",
    "SCHEMA_VERSION",
    "RunRecord",
    "RunStore",
]


class RunStore:
    """Run persistence over a pluggable backend (see module docstring).

    ``url`` is anything :func:`repro.service.backends.backend_from_url`
    accepts — a SQLite path (the default interpretation), a
    ``sqlite:``/``postgres://`` URL, or ``memory://`` — or an
    already-constructed :class:`StorageBackend`.

    ``clock`` supplies every timestamp the store writes (``created_at``,
    ``updated_at``, claim eligibility ``now``, lease deadlines); it
    defaults to :func:`time.time` and is injectable so tests drive
    retry/backoff deadlines, lease expiry, and kill-restart recovery on
    a fake clock instead of sleeping through real time.
    """

    def __init__(
        self,
        url: str | Path | StorageBackend,
        *,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if isinstance(url, StorageBackend):
            self.backend = url
        else:
            self.backend = backend_from_url(url)
        #: The backend location (kept under the historical name; the
        #: SQLite default means this *is* a filesystem path there).
        self.path = self.backend.url
        self._clock = clock

    # -- schema ------------------------------------------------------------

    def schema_version(self) -> int:
        """The backend's stored schema version stamp."""
        return self.backend.schema_version()

    # -- lifecycle ---------------------------------------------------------

    def submit(
        self,
        kind: str,
        params: dict[str, Any],
        *,
        max_attempts: int = 3,
        trace_id: str | None = None,
    ) -> str:
        """Persist a new queued run; returns its id.

        ``trace_id`` is the submit-time correlation id
        (:mod:`repro.obs.context`); every execution attempt of this run
        tags its spans with it — including attempts reassigned to a
        different worker after a lease expiry.
        """
        if max_attempts < 1:
            raise ServiceError(
                f"max_attempts must be >= 1, got {max_attempts!r}",
                code="bad-request",
            )
        run_id = uuid.uuid4().hex[:12]
        now = self._clock()
        self.backend.insert(
            RunRecord(
                run_id=run_id,
                kind=kind,
                params=params,
                state="queued",
                created_at=now,
                updated_at=now,
                attempts=0,
                max_attempts=max_attempts,
                not_before=0.0,
                error=None,
                result=None,
                trace_id=trace_id,
            )
        )
        return run_id

    def get(self, run_id: str) -> RunRecord:
        """Fetch one run; raises ``unknown-run`` if absent."""
        record = self.backend.fetch(run_id)
        if record is None:
            raise ServiceError(
                f"no run with id {run_id!r}", code="unknown-run"
            )
        return record

    def claim_next(
        self,
        now: float | None = None,
        *,
        owner_id: str | None = None,
        lease_seconds: float | None = None,
    ) -> RunRecord | None:
        """Atomically move the oldest eligible queued run to ``running``.

        Eligible means its backoff deadline (``not_before``) has passed.
        The claim bumps ``attempts``, so a claimed run already counts
        the execution about to happen.  Returns ``None`` when nothing
        is runnable right now.

        With ``owner_id`` the claim takes a *lease*: the run is stamped
        with the owner and a ``lease_expires_at`` deadline
        ``lease_seconds`` from now, which the owner must renew via
        :meth:`heartbeat` before it passes or the reaper reassigns the
        run.  Every service worker claims this way; an ownerless claim
        (ad-hoc scripts) has no lease and is only recovered by
        :meth:`recover_interrupted` at the next server start.
        """
        now = self._clock() if now is None else now
        lease_expires_at: float | None = None
        if owner_id is not None:
            if lease_seconds is None or lease_seconds <= 0:
                raise ServiceError(
                    f"a leased claim needs lease_seconds > 0, got "
                    f"{lease_seconds!r}",
                    code="bad-request",
                )
            lease_expires_at = now + lease_seconds
        return self.backend.claim_next(
            now, owner_id=owner_id, lease_expires_at=lease_expires_at
        )

    def heartbeat(
        self,
        run_id: str,
        owner_id: str,
        *,
        lease_seconds: float,
        now: float | None = None,
    ) -> bool:
        """Renew a live lease; ``False`` when the lease was lost.

        Extends ``lease_expires_at`` to ``lease_seconds`` past ``now``
        and stamps ``heartbeat_at``.  A ``False`` return means the run
        is no longer running under ``owner_id`` — it finished, was
        reassigned after expiry, or never belonged to this owner — and
        the worker must abandon the execution (its result would be
        discarded anyway).
        """
        now = self._clock() if now is None else now
        return self.backend.heartbeat(
            run_id, owner_id, now=now, lease_expires_at=now + lease_seconds
        )

    def next_eligible_at(self) -> float | None:
        """Earliest ``not_before`` among queued runs (backoff wake-up)."""
        return self.backend.next_eligible_at()

    def mark_done(
        self, run_id: str, result: str, *, owner_id: str | None = None
    ) -> None:
        """Record success and the serialized result envelope.

        With ``owner_id`` the write is owner-checked: it only lands if
        the caller still holds the lease, raising ``lease-lost``
        otherwise.  This is the exactly-once edge — a worker that lost
        its lease mid-execution cannot overwrite the reassigned run.
        """
        self._transition(
            run_id,
            "running",
            "done",
            result=result,
            owner_id=owner_id,
            clear_lease=True,
        )

    def mark_failed(
        self, run_id: str, error: str, *, owner_id: str | None = None
    ) -> None:
        """Record terminal failure with its error message (owner-checked)."""
        self._transition(
            run_id,
            "running",
            "failed",
            error=error,
            owner_id=owner_id,
            clear_lease=True,
        )

    def requeue_for_retry(
        self,
        run_id: str,
        error: str,
        *,
        not_before: float,
        owner_id: str | None = None,
    ) -> None:
        """Put a failed execution back in the queue with a backoff deadline."""
        self._transition(
            run_id,
            "running",
            "queued",
            error=error,
            not_before=not_before,
            owner_id=owner_id,
            clear_lease=True,
        )

    def cancel(self, run_id: str) -> RunRecord:
        """Cancel a queued run; running/terminal runs refuse."""
        record = self.get(run_id)
        if record.state != "queued":
            raise ServiceError(
                f"run {run_id!r} is {record.state}, only queued runs "
                f"can be cancelled",
                code="not-cancellable",
            )
        self._transition(run_id, "queued", "cancelled")
        return self.get(run_id)

    def recover_interrupted(self) -> int:
        """Requeue ownerless ``running`` rows on startup.

        Called on server startup before its workers start.  Only
        unleased claims qualify — rows written by an older server or an
        ad-hoc ownerless claim, whose claimant is gone.  Leased rows
        are left to the reaper (:meth:`expire_leases`), live or not.
        The interrupted attempt stays counted.  Returns the number of
        recovered runs.
        """
        return self.backend.recover_interrupted(self._clock())

    def expire_leases(self, now: float | None = None) -> list[RunRecord]:
        """Reclaim runs whose lease deadline has passed (the reaper).

        A run whose expired attempt was its last (``attempts >=
        max_attempts``) lands ``failed`` with the error ``"lease expired
        on final attempt"``, so a job that kills every worker claiming
        it cannot be reassigned forever; every other one is requeued.
        Returns the expired records with their new ``state`` and
        ``error`` but owner, lease and attempts as they were at expiry,
        so the caller can log and count who lost which run and how it
        ended.  Requeued runs keep their ``trace_id`` and
        attempt count, which is how a reassigned execution stays
        correlated with the original submission.
        """
        now = self._clock() if now is None else now
        return self.backend.expire_leases(now)

    def live_leases(self, now: float | None = None) -> list[LeaseView]:
        """Leases still live at ``now``, oldest heartbeat first."""
        now = self._clock() if now is None else now
        return self.backend.live_leases(now)

    def _transition(
        self,
        run_id: str,
        expect: str,
        state: str,
        *,
        result: str | None = None,
        error: str | None = None,
        not_before: float = 0.0,
        owner_id: str | None = None,
        clear_lease: bool = False,
    ) -> None:
        moved = self.backend.transition(
            run_id,
            expect,
            state,
            now=self._clock(),
            result=result,
            error=error,
            not_before=not_before,
            owner_id=owner_id,
            clear_lease=clear_lease,
        )
        if moved:
            return
        record = self.get(run_id)  # raises unknown-run if absent
        if record.state == expect and owner_id is not None:
            raise ServiceError(
                f"run {run_id!r} is no longer leased to {owner_id!r} "
                f"(current owner: {record.owner_id!r}); the result of "
                f"this execution is discarded",
                code="lease-lost",
            )
        raise ServiceError(
            f"run {run_id!r} is {record.state}, expected {expect} "
            f"(cannot move to {state})",
            code="bad-transition",
        )

    # -- queries -----------------------------------------------------------

    def list_runs(
        self, state: str | None = None, *, limit: int = 100
    ) -> list[RunRecord]:
        """Runs newest-first, optionally filtered by state."""
        if state is not None and state not in RUN_STATES:
            raise ServiceError(
                f"unknown state {state!r}; expected one of {RUN_STATES}",
                code="bad-request",
            )
        return self.backend.list_runs(state, limit=limit)

    def counts_by_state(self) -> dict[str, int]:
        """``{state: count}`` over every known state (zeros included)."""
        return self.backend.counts_by_state()

    def queue_depth(self) -> int:
        """Number of queued runs (including backoff waits)."""
        return self.counts_by_state()["queued"]

    def unfinished(self) -> list[RunRecord]:
        """Every run not yet in a terminal state, oldest first."""
        return self.backend.unfinished()

    # -- plumbing ----------------------------------------------------------

    def close(self) -> None:
        """Close the underlying backend (idempotent)."""
        self.backend.close()

    def __enter__(self) -> "RunStore":
        """Context-manager entry: the store itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: close the backend."""
        self.close()
