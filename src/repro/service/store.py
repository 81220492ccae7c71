"""The persistent run store — campaign bookkeeping in one ``runs`` table.

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

:class:`RunStore` is the one class that reads and writes the rows:
each operation is one method holding both its rule (run-id minting,
timestamps from the injected clock, typed
:class:`~repro.exceptions.ServiceError` raising) and its SQL.  The
SQL is written once, in portable DB-API statements with ``?``
placeholders; the backend (:mod:`repro.service.backends`) supplies
only the dialect — the connection and its lock, the placeholder, the
exclusive ``BEGIN`` and the claim's row-locking clause — plus the
schema.  A SQLite file remains the dev default, ``postgres://`` DSNs
select the server-grade DB-API adapter, and ``memory://`` puts SQLite
on ``:memory:`` for tests and demos.

Leases (schema v3): a worker claims with ``owner_id`` and a lease
deadline, renews via :meth:`heartbeat`, and completes with an
owner-checked write.  If the worker dies, the server's reaper
(:meth:`expire_leases`) requeues the run for another worker — exactly
once, because every completion is a compare-and-set on (state, owner)
— or fails it when the lost attempt was its last.
"""

from __future__ import annotations

import json
import time
import uuid
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro.exceptions import ServiceError
from repro.service.backends import (
    RUN_STATES,
    SCHEMA_VERSION,
    LeaseView,
    RunRecord,
    StorageBackend,
    backend_from_url,
)
from repro.service.backends.base import expired_lease_outcome

__all__ = [
    "LeaseView",
    "RUN_STATES",
    "SCHEMA_VERSION",
    "RunRecord",
    "RunStore",
]

#: Column order used by every SELECT — positional row decoding keeps
#: the store independent of driver row factories.
_COLUMNS: tuple[str, ...] = (
    "run_id", "kind", "params", "state", "created_at", "updated_at",
    "attempts", "max_attempts", "not_before", "error", "result",
    "trace_id", "owner_id", "lease_expires_at", "heartbeat_at",
)

_SELECT = f"SELECT {', '.join(_COLUMNS)} FROM runs"


def _row_to_record(row: Sequence[Any]) -> RunRecord:
    data = dict(zip(_COLUMNS, row, strict=True))
    data["params"] = json.loads(data["params"])
    return RunRecord(**data)


class RunStore:
    """The ``runs`` table and every operation on it (module docstring).

    ``url`` is anything :func:`repro.service.backends.backend_from_url`
    accepts — a SQLite path (the default interpretation), a
    ``sqlite:``/``postgres://`` URL, or ``memory://`` — or an
    already-constructed :class:`StorageBackend`.

    ``clock`` supplies every timestamp the store writes (``created_at``,
    ``updated_at``, claim eligibility ``now``, lease deadlines); it
    defaults to :func:`time.time` and is injectable so tests drive
    retry/backoff deadlines, lease expiry, and kill-restart recovery on
    a fake clock instead of sleeping through real time.

    :meth:`claim_next`, the completions, :meth:`heartbeat`,
    :meth:`cancel` and :meth:`expire_leases` are atomic with respect to
    concurrent claimants, including claimants in *other processes*:
    the worker fleet's exactly-once guarantee reduces to these
    compare-and-set writes.
    """

    def __init__(
        self,
        url: str | Path | StorageBackend,
        *,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.backend: StorageBackend = (
            url if isinstance(url, StorageBackend) else backend_from_url(url)
        )
        #: The backend location (kept under the historical name; the
        #: SQLite default means this *is* a filesystem path there).
        self.path = self.backend.url
        self._clock = clock

    # -- plumbing ----------------------------------------------------------

    def _rows(self, statement: str, args: tuple[Any, ...] = ()) -> list[Any]:
        """Every row one query returns."""
        with self.backend.lock:
            return self.backend.execute(statement, args).fetchall()

    def _write(self, statement: str, args: tuple[Any, ...]) -> int:
        """Run one autocommitted write; the number of rows it changed."""
        with self.backend.lock:
            return self.backend.execute(statement, args).rowcount

    @contextmanager
    def _exclusive(self) -> Iterator[None]:
        """One transaction that excludes every concurrent claimant."""
        with self.backend.lock:
            self.backend.execute(self.backend.exclusive_begin)
            try:
                yield
            except BaseException:
                self.backend.rollback()
                raise
            self.backend.commit()

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
        self._write(
            "INSERT INTO runs (run_id, kind, params, state, created_at,"
            " updated_at, attempts, max_attempts, not_before, trace_id)"
            " VALUES (?, ?, ?, 'queued', ?, ?, 0, ?, 0, ?)",
            (
                run_id, kind, json.dumps(params), now, now, max_attempts,
                trace_id,
            ),
        )
        return run_id

    def get(self, run_id: str) -> RunRecord:
        """Fetch one run; raises ``unknown-run`` if absent."""
        rows = self._rows(f"{_SELECT} WHERE run_id = ?", (run_id,))
        if not rows:
            raise ServiceError(
                f"no run with id {run_id!r}", code="unknown-run"
            )
        return _row_to_record(rows[0])

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
        the execution about to happen.  Returns the claimed record,
        built from the row the claim selected (no second read), or
        ``None`` when nothing is runnable right now.

        With ``owner_id`` the claim takes a *lease*: the run is stamped
        with the owner, ``heartbeat_at = now`` and a
        ``lease_expires_at`` deadline ``lease_seconds`` from now, which
        the owner must renew via :meth:`heartbeat` before it passes or
        the reaper reassigns the run.  Every service worker claims this
        way; an ownerless claim (ad-hoc scripts) leaves the lease
        columns NULL and is only recovered by
        :meth:`recover_interrupted` at the next server start.
        """
        now = self._clock() if now is None else now
        lease_expires_at: float | None = None
        heartbeat_at: float | None = None
        if owner_id is not None:
            if lease_seconds is None or lease_seconds <= 0:
                raise ServiceError(
                    f"a leased claim needs lease_seconds > 0, got "
                    f"{lease_seconds!r}",
                    code="bad-request",
                )
            lease_expires_at = now + lease_seconds
            heartbeat_at = now
        with self._exclusive():
            rows = self.backend.execute(
                f"{_SELECT} WHERE state = 'queued' AND not_before <= ?"
                f" ORDER BY created_at, run_id LIMIT 1"
                f"{self.backend.claim_lock}",
                (now,),
            ).fetchall()
            if not rows:
                return None
            queued = _row_to_record(rows[0])
            updated = self.backend.execute(
                "UPDATE runs SET state = 'running',"
                " attempts = attempts + 1, updated_at = ?,"
                " owner_id = ?, lease_expires_at = ?, heartbeat_at = ?"
                " WHERE run_id = ? AND state = 'queued'",
                (now, owner_id, lease_expires_at, heartbeat_at,
                 queued.run_id),
            ).rowcount
            if updated != 1:  # pragma: no cover - excluded by the BEGIN
                return None
        return replace(
            queued,
            state="running",
            attempts=queued.attempts + 1,
            updated_at=now,
            owner_id=owner_id,
            lease_expires_at=lease_expires_at,
            heartbeat_at=heartbeat_at,
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
        and stamps ``heartbeat_at``, only while the row is ``running``
        *and* still owned by ``owner_id``.  A ``False`` return means
        the run finished, was reassigned after expiry, or never
        belonged to this owner — which is how a partitioned worker
        learns it lost ownership — and the worker must abandon the
        execution (its result would be discarded anyway).
        """
        now = self._clock() if now is None else now
        return self._write(
            "UPDATE runs SET heartbeat_at = ?, lease_expires_at = ?,"
            " updated_at = ?"
            " WHERE run_id = ? AND state = 'running' AND owner_id = ?",
            (now, now + lease_seconds, now, run_id, owner_id),
        ) == 1

    def next_eligible_at(self) -> float | None:
        """Earliest ``not_before`` among queued runs (backoff wake-up)."""
        (earliest,) = self._rows(
            "SELECT MIN(not_before) FROM runs WHERE state = 'queued'"
        )[0]
        return None if earliest is None else float(earliest)

    def mark_done(
        self, run_id: str, result: str, *, owner_id: str | None = None
    ) -> None:
        """Record success and the serialized result envelope.

        With ``owner_id`` the write is owner-checked: it only lands if
        the caller still holds the lease, raising ``lease-lost``
        otherwise.  This is the exactly-once edge — a worker that lost
        its lease mid-execution cannot overwrite the reassigned run.
        """
        self._transition(run_id, "done", result=result, owner_id=owner_id)

    def mark_failed(
        self, run_id: str, error: str, *, owner_id: str | None = None
    ) -> None:
        """Record terminal failure with its error message (owner-checked)."""
        self._transition(run_id, "failed", error=error, owner_id=owner_id)

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
            "queued",
            error=error,
            not_before=not_before,
            owner_id=owner_id,
        )

    def cancel(self, run_id: str) -> RunRecord:
        """Cancel a queued run; running/terminal runs refuse.

        One compare-and-set from ``queued``: a worker that claims the
        run first wins, and the cancel then refuses with
        ``not-cancellable`` (``unknown-run`` when there is no such run).
        """
        if not self._compare_and_set(run_id, "queued", "cancelled"):
            record = self.get(run_id)
            raise ServiceError(
                f"run {run_id!r} is {record.state}, only queued runs "
                f"can be cancelled",
                code="not-cancellable",
            )
        return self.get(run_id)

    def recover_interrupted(self) -> int:
        """Requeue ownerless ``running`` rows on startup.

        Called on server startup before its workers start.  Every claim
        the service makes is leased, so an ownerless ``running`` row
        can only have been written by an older server or an ad-hoc
        ownerless claim, whose claimant is gone.  Leased rows are left
        to the reaper (:meth:`expire_leases`), live or not.  The
        interrupted attempt stays counted.  Returns the number of
        recovered runs.
        """
        return self._write(
            "UPDATE runs SET state = 'queued', not_before = 0,"
            " updated_at = ? WHERE state = 'running'"
            " AND owner_id IS NULL",
            (self._clock(),),
        )

    def expire_leases(self, now: float | None = None) -> list[RunRecord]:
        """Reclaim runs whose lease deadline has passed (the reaper).

        Only leased rows (``owner_id`` set) participate; ownerless
        claims have no lease and are covered by
        :meth:`recover_interrupted` instead.  Each run lands where
        :func:`~repro.service.backends.base.expired_lease_outcome` says:
        a run whose expired attempt was its last (``attempts >=
        max_attempts``) lands ``failed`` with the error ``"lease expired
        on final attempt"``, so a job that kills every worker claiming
        it cannot be reassigned forever; every other one is requeued.
        Returns the expired records with their new ``state`` and
        ``error`` but owner, lease and attempts as they were at expiry,
        so the caller can log and count who lost which run and how it
        ended.  Requeued runs keep their ``trace_id`` and attempt
        count, which is how a reassigned execution stays correlated
        with the original submission.
        """
        now = self._clock() if now is None else now
        expired: list[RunRecord] = []
        with self._exclusive():
            rows = self.backend.execute(
                f"{_SELECT} WHERE state = 'running'"
                f" AND owner_id IS NOT NULL AND lease_expires_at <= ?"
                f" ORDER BY lease_expires_at, run_id"
                f"{self.backend.claim_lock}",
                (now,),
            ).fetchall()
            for row in rows:
                record = _row_to_record(row)
                state, error = expired_lease_outcome(record)
                self.backend.execute(
                    "UPDATE runs SET state = ?, error = ?,"
                    " not_before = 0, owner_id = NULL,"
                    " lease_expires_at = NULL, heartbeat_at = NULL,"
                    " updated_at = ? WHERE run_id = ?"
                    " AND state = 'running' AND owner_id = ?",
                    (state, error, now, record.run_id, record.owner_id),
                )
                expired.append(replace(record, state=state, error=error))
        return expired

    def live_leases(self, now: float | None = None) -> list[LeaseView]:
        """Leases still live at ``now``, oldest heartbeat first."""
        now = self._clock() if now is None else now
        rows = self._rows(
            "SELECT run_id, owner_id, lease_expires_at, heartbeat_at"
            " FROM runs WHERE state = 'running'"
            " AND owner_id IS NOT NULL AND lease_expires_at > ?"
            " ORDER BY heartbeat_at, run_id",
            (now,),
        )
        return [LeaseView(*row) for row in rows]

    def _compare_and_set(
        self,
        run_id: str,
        expect: str,
        state: str,
        *,
        result: str | None = None,
        error: str | None = None,
        not_before: float = 0.0,
        owner_id: str | None = None,
    ) -> bool:
        """Move one row from ``expect`` to ``state``; whether it moved.

        When ``owner_id`` is given the row must additionally still be
        owned by it (the leased-completion path).  The same write
        resets the lease columns, and a ``None`` ``result`` or
        ``error`` keeps the stored value (the retry path preserves the
        last error).
        """
        statement = (
            "UPDATE runs SET state = ?, updated_at = ?, not_before = ?,"
            " result = COALESCE(?, result), error = COALESCE(?, error),"
            " owner_id = NULL, lease_expires_at = NULL, heartbeat_at = NULL"
            " WHERE run_id = ? AND state = ?"
        )
        args: tuple[Any, ...] = (
            state, self._clock(), not_before, result, error, run_id, expect,
        )
        if owner_id is not None:
            statement += " AND owner_id = ?"
            args += (owner_id,)
        return self._write(statement, args) == 1

    def _transition(
        self,
        run_id: str,
        state: str,
        *,
        result: str | None = None,
        error: str | None = None,
        not_before: float = 0.0,
        owner_id: str | None = None,
    ) -> None:
        """Complete a ``running`` run as ``state``, or raise why not."""
        if self._compare_and_set(
            run_id,
            "running",
            state,
            result=result,
            error=error,
            not_before=not_before,
            owner_id=owner_id,
        ):
            return
        record = self.get(run_id)  # raises unknown-run if absent
        if record.state == "running" and owner_id is not None:
            raise ServiceError(
                f"run {run_id!r} is no longer leased to {owner_id!r} "
                f"(current owner: {record.owner_id!r}); the result of "
                f"this execution is discarded",
                code="lease-lost",
            )
        raise ServiceError(
            f"run {run_id!r} is {record.state}, expected running "
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
        query = _SELECT
        args: tuple[Any, ...] = ()
        if state is not None:
            query += " WHERE state = ?"
            args = (state,)
        rows = self._rows(
            f"{query} ORDER BY created_at DESC, run_id LIMIT ?", (*args, limit)
        )
        return [_row_to_record(row) for row in rows]

    def counts_by_state(self) -> dict[str, int]:
        """``{state: count}`` over every known state (zeros included)."""
        counts = {state: 0 for state in RUN_STATES}
        for state, n in self._rows(
            "SELECT state, COUNT(*) FROM runs GROUP BY state"
        ):
            counts[state] = n
        return counts

    def queue_depth(self) -> int:
        """Number of queued runs (including backoff waits)."""
        return self.counts_by_state()["queued"]

    def unfinished(self) -> list[RunRecord]:
        """Every run not yet in a terminal state, oldest first."""
        rows = self._rows(
            f"{_SELECT} WHERE state IN ('queued', 'running')"
            f" ORDER BY created_at, run_id"
        )
        return [_row_to_record(row) for row in rows]

    # -- lifecycle of the store itself -------------------------------------

    def close(self) -> None:
        """Close the underlying backend (idempotent)."""
        self.backend.close()

    def __enter__(self) -> "RunStore":
        """Context-manager entry: the store itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: close the backend."""
        self.close()
