"""In-memory storage backend — the test fake.

A pure-dict implementation of the same contract, no I/O, so the
storage-contract suite can assert that SQLite and memory behave
identically, and unit tests of lease logic run with zero filesystem
setup.  Lives only as long as the process; ``repro-oa serve --store
memory://`` is useful for demos, never for real campaigns.
"""

from __future__ import annotations

import threading
from dataclasses import replace

from repro.service.backends.base import (
    RUN_STATES,
    SCHEMA_VERSION,
    LeaseView,
    RunRecord,
    StorageBackend,
    expired_lease_outcome,
)

__all__ = ["MemoryBackend"]


class MemoryBackend(StorageBackend):
    """The run store as a process-local dict (see module docstring)."""

    name = "memory"

    def __init__(self) -> None:
        self.url = "memory://"
        self._lock = threading.RLock()
        self._rows: dict[str, RunRecord] = {}
        self._order: list[str] = []  # insertion order == created order

    # -- schema ------------------------------------------------------------

    def migrate(self) -> None:
        """Nothing to create; the dict is always at the current layout."""

    def schema_version(self) -> int:
        """Always the current version — there is no stored layout."""
        return SCHEMA_VERSION

    # -- writes ------------------------------------------------------------

    def insert(self, record: RunRecord) -> None:
        """Persist a brand-new queued run."""
        with self._lock:
            self._rows[record.run_id] = record
            self._order.append(record.run_id)

    def claim_next(
        self,
        now: float,
        *,
        owner_id: str | None = None,
        lease_expires_at: float | None = None,
    ) -> RunRecord | None:
        """Atomically claim the oldest eligible queued run."""
        with self._lock:
            eligible = [
                row
                for row in self._rows.values()
                if row.state == "queued" and row.not_before <= now
            ]
            eligible.sort(key=lambda r: (r.created_at, r.run_id))
            for row in eligible[:1]:
                claimed = replace(
                    row,
                    state="running",
                    attempts=row.attempts + 1,
                    updated_at=now,
                    owner_id=owner_id,
                    lease_expires_at=lease_expires_at,
                    heartbeat_at=now if owner_id is not None else None,
                )
                self._rows[row.run_id] = claimed
                return claimed
        return None

    def heartbeat(
        self,
        run_id: str,
        owner_id: str,
        *,
        now: float,
        lease_expires_at: float,
    ) -> bool:
        """Renew a live lease; ``False`` when no longer held."""
        with self._lock:
            row = self._rows.get(run_id)
            if row is None or row.state != "running":
                return False
            if row.owner_id != owner_id:
                return False
            self._rows[run_id] = replace(
                row,
                heartbeat_at=now,
                lease_expires_at=lease_expires_at,
                updated_at=now,
            )
            return True

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
        """Compare-and-set one row from ``expect`` to ``state``."""
        with self._lock:
            row = self._rows.get(run_id)
            if row is None or row.state != expect:
                return False
            if owner_id is not None and row.owner_id != owner_id:
                return False
            updates: dict = {
                "state": state,
                "updated_at": now,
                "not_before": not_before,
            }
            if result is not None:
                updates["result"] = result
            if error is not None:
                updates["error"] = error
            if clear_lease:
                updates["owner_id"] = None
                updates["lease_expires_at"] = None
                updates["heartbeat_at"] = None
            self._rows[run_id] = replace(row, **updates)
            return True

    def expire_leases(self, now: float) -> list[RunRecord]:
        """Requeue (or, on the last attempt, fail) expired leases."""
        with self._lock:
            expired = [
                row
                for run_id in self._order
                if (row := self._rows[run_id]).state == "running"
                and row.owner_id is not None
                and row.lease_expires_at is not None
                and row.lease_expires_at <= now
            ]
            expired.sort(key=lambda r: (r.lease_expires_at, r.run_id))
            reported = []
            for row in expired:
                state, error = expired_lease_outcome(row)
                self._rows[row.run_id] = replace(
                    row,
                    state=state,
                    error=error,
                    not_before=0.0,
                    owner_id=None,
                    lease_expires_at=None,
                    heartbeat_at=None,
                    updated_at=now,
                )
                reported.append(replace(row, state=state, error=error))
        return reported

    def recover_interrupted(self, now: float) -> int:
        """Requeue ownerless running rows (unleased claims)."""
        with self._lock:
            count = 0
            for run_id in self._order:
                row = self._rows[run_id]
                if row.state != "running" or row.owner_id is not None:
                    continue
                self._rows[run_id] = replace(
                    row, state="queued", not_before=0.0, updated_at=now
                )
                count += 1
            return count

    # -- reads -------------------------------------------------------------

    def fetch(self, run_id: str) -> RunRecord | None:
        """One record, or ``None`` when unknown."""
        with self._lock:
            return self._rows.get(run_id)

    def next_eligible_at(self) -> float | None:
        """Earliest ``not_before`` among queued runs."""
        with self._lock:
            queued = [
                row.not_before
                for row in self._rows.values()
                if row.state == "queued"
            ]
        return min(queued) if queued else None

    def list_runs(
        self, state: str | None = None, *, limit: int = 100
    ) -> list[RunRecord]:
        """Runs newest-first, optionally filtered by state."""
        with self._lock:
            rows = [
                self._rows[run_id]
                for run_id in self._order
                if state is None or self._rows[run_id].state == state
            ]
        rows.sort(key=lambda r: (-r.created_at, r.run_id))
        return rows[:limit]

    def counts_by_state(self) -> dict[str, int]:
        """``{state: count}`` over every known state (zeros included)."""
        counts = {state: 0 for state in RUN_STATES}
        with self._lock:
            for row in self._rows.values():
                counts[row.state] += 1
        return counts

    def unfinished(self) -> list[RunRecord]:
        """Every run not yet terminal, oldest first."""
        with self._lock:
            return [
                self._rows[run_id]
                for run_id in self._order
                if self._rows[run_id].state in ("queued", "running")
            ]

    def live_leases(self, now: float) -> list[LeaseView]:
        """Leases still live at ``now``, oldest heartbeat first."""
        with self._lock:
            leases = [
                LeaseView(
                    run_id=row.run_id,
                    owner_id=row.owner_id,
                    lease_expires_at=row.lease_expires_at,
                    heartbeat_at=row.heartbeat_at,
                )
                for row in self._rows.values()
                if row.state == "running"
                and row.owner_id is not None
                and row.lease_expires_at is not None
                and row.lease_expires_at > now
            ]
        leases.sort(key=lambda v: (v.heartbeat_at, v.run_id))
        return leases

    # -- plumbing ----------------------------------------------------------

    def close(self) -> None:
        """No resources to release."""
