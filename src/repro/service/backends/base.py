"""The database dialects under :class:`repro.service.store.RunStore`.

A backend holds what differs between databases, plus the schema: the
DB-API connection and the lock that serializes it, the parameter
placeholder and float column type, the schema-version stamp, the
statement that opens an exclusive transaction and the row-locking
clause of the claim.  Every statement on the ``runs`` rows — the
inserts, claims, leases, compare-and-set transitions and queries — is
issued by :class:`~repro.service.store.RunStore`, through
:meth:`StorageBackend.execute`, in canonical ``?`` placeholders that
the dialect translates.  Two dialects fill the hooks in:

* :class:`~repro.service.backends.sqlite.SQLiteBackend` — the dev
  default, one WAL-mode file, safe across processes on one host; its
  :class:`~repro.service.backends.memory.MemoryBackend` subclass puts
  the same store on SQLite's ``:memory:`` for tests and demos;
* :class:`~repro.service.backends.postgres.PostgresBackend` — the
  server-grade backend for multi-host worker fleets, a thin adapter
  gated on an installed ``psycopg``/``psycopg2``.

Concurrency model: the connection runs in **autocommit** — every
single-statement write is atomic on its own, and the two multi-step
operations (claim-with-lease, lease expiry) open an explicit
exclusive transaction first (``BEGIN IMMEDIATE`` on SQLite,
``BEGIN`` + ``FOR UPDATE SKIP LOCKED`` on Postgres), so two claimants
— threads *or processes* — can never take the same row.  The
process-local re-entrant :attr:`StorageBackend.lock` additionally
serializes statements from threads sharing one connection.

Schema history (``schema_version``):

* **v1** — the original ``runs`` table;
* **v2** — adds the ``trace_id`` correlation column
  (:mod:`repro.obs.context`);
* **v3** — adds the lease columns ``owner_id``, ``lease_expires_at``
  and ``heartbeat_at`` for horizontal worker fleets (the ``attempts``
  counter has carried the per-run attempt count since v1).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

from repro.exceptions import ServiceError

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
#: docstring); stamped by the migration chain.
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
    """One live lease, as reported by
    :meth:`repro.service.store.RunStore.live_leases`."""

    run_id: str
    owner_id: str
    lease_expires_at: float
    heartbeat_at: float

    def age(self, now: float) -> float:
        """Seconds since the owner last heartbeat, as of ``now``."""
        return max(0.0, now - self.heartbeat_at)


def expired_lease_outcome(record: RunRecord) -> tuple[str, str | None]:
    """The ``(state, error)`` an expired lease leaves ``record`` in.

    The reaper's one attempt-budget rule: a run whose expired attempt
    was its last (``attempts >= max_attempts``) lands ``failed`` with
    :data:`LEASE_EXPIRED_ERROR`; every other one is requeued with its
    error untouched.
    """
    if record.attempts >= record.max_attempts:
        return "failed", LEASE_EXPIRED_ERROR
    return "queued", record.error


class StorageBackend:
    """One database dialect under the run store (see module docstring).

    Holds the connection, the lock that serializes it between threads,
    the schema and its migration chain, and the few hooks whose SQL
    differs between databases.  Dialects supply the connection
    (:meth:`_connect`), the version stamp (:meth:`_read_version`,
    :meth:`_write_version`) and the class attributes below; every
    statement on the ``runs`` rows is issued by
    :class:`~repro.service.store.RunStore` through :meth:`execute`.
    """

    #: Human-readable backend identifier (``sqlite``, ``postgres``,
    #: ``memory``), used in logs and the health report.
    name: str = "?"

    #: The location this backend persists to (path, DSN, or pseudo-URL).
    url: str = "?"

    #: DB-API parameter placeholder (``?`` for sqlite3, ``%s`` for
    #: psycopg).
    placeholder = "?"

    #: SQL column type for float timestamps.
    float_type = "REAL"

    #: The statement that opens a transaction excluding concurrent
    #: claimants (the claim and the lease expiry run inside one).
    exclusive_begin = "BEGIN"

    #: Row-locking clause appended to the claim and expiry SELECTs.
    claim_lock = ""

    #: The driver's PEP 249 ``DatabaseError`` (what a damaged or
    #: unreachable store raises while opening); none until a dialect
    #: sets it.
    database_error: type[Exception] | tuple[type[Exception], ...] = ()

    def __init__(self) -> None:
        #: Serializes statements from threads sharing the connection;
        #: re-entrant so one transaction can span several statements.
        self.lock = threading.RLock()
        self._conn: Any = None
        try:
            self._conn = self._connect()
            self.migrate()
        except self.database_error as exc:
            if self._conn is not None:
                self._conn.close()
            raise ServiceError(
                f"run store {self.url!r} cannot be opened: {exc}",
                code="internal",
            ) from exc

    # -- dialect hooks -----------------------------------------------------

    def _connect(self) -> Any:
        """Open the DB-API connection in autocommit mode."""
        raise NotImplementedError

    def _read_version(self) -> int:
        """The stored schema version (0 when the store is fresh)."""
        raise NotImplementedError

    def _write_version(self, version: int) -> None:
        """Stamp the schema version."""
        raise NotImplementedError

    def execute(self, statement: str, args: tuple[Any, ...] = ()) -> Any:
        """Run one statement written with ``?`` placeholders; its cursor.

        The caller holds :attr:`lock` for as long as it reads the
        cursor.
        """
        return self._conn.execute(self._sql(statement), args)

    def _sql(self, statement: str) -> str:
        """Translate the canonical ``?`` placeholders to the dialect's."""
        if self.placeholder == "?":
            return statement
        return statement.replace("?", self.placeholder)

    def commit(self) -> None:
        """End the open transaction, keeping its writes."""
        self.execute("COMMIT")

    def rollback(self) -> None:
        """End the open transaction, dropping its writes."""
        self.execute("ROLLBACK")

    # -- schema ------------------------------------------------------------

    def migrate(self) -> None:
        """Create or upgrade the schema in place; refuse newer layouts.

        Raises :class:`~repro.exceptions.ServiceError` with code
        ``schema-version`` when the stored version is newer than
        :data:`SCHEMA_VERSION`, and preserves existing rows bit-for-bit
        when upgrading.
        """
        with self.lock:
            version = self._read_version()
            if version > SCHEMA_VERSION:
                raise ServiceError(
                    f"run store {self.url!r} has schema version {version}, "
                    f"newer than this library's {SCHEMA_VERSION}; "
                    f"upgrade the library instead of downgrading the data",
                    code="schema-version",
                )
            if version == SCHEMA_VERSION:
                return
            if version == 0:
                self._create_fresh()
                self._write_version(SCHEMA_VERSION)
                return
            # In-place upgrade chain: each step only appends columns,
            # so existing rows survive bit-for-bit and old rows read
            # back with NULL in the new columns.
            if version == 1:
                # v1 -> v2: the trace correlation column.
                self.execute("ALTER TABLE runs ADD COLUMN trace_id TEXT")
                version = 2
            if version == 2:
                # v2 -> v3: the worker-fleet lease columns.  The
                # ``attempts`` counter has existed since v1 and keeps
                # serving as the per-run attempt count.
                self.execute("ALTER TABLE runs ADD COLUMN owner_id TEXT")
                self.execute(
                    f"ALTER TABLE runs ADD COLUMN lease_expires_at "
                    f"{self.float_type}"
                )
                self.execute(
                    f"ALTER TABLE runs ADD COLUMN heartbeat_at "
                    f"{self.float_type}"
                )
                version = 3
            self._write_version(SCHEMA_VERSION)

    def _create_fresh(self) -> None:
        real = self.float_type
        self.execute(
            f"""
            CREATE TABLE IF NOT EXISTS runs (
                run_id           TEXT PRIMARY KEY,
                kind             TEXT NOT NULL,
                params           TEXT NOT NULL,
                state            TEXT NOT NULL,
                created_at       {real} NOT NULL,
                updated_at       {real} NOT NULL,
                attempts         INTEGER NOT NULL DEFAULT 0,
                max_attempts     INTEGER NOT NULL DEFAULT 3,
                not_before       {real} NOT NULL DEFAULT 0,
                error            TEXT,
                result           TEXT,
                trace_id         TEXT,
                owner_id         TEXT,
                lease_expires_at {real},
                heartbeat_at     {real}
            )
            """
        )
        self.execute(
            "CREATE INDEX IF NOT EXISTS runs_by_state "
            "ON runs (state, not_before, created_at)"
        )

    def schema_version(self) -> int:
        """The stored schema version stamp."""
        with self.lock:
            return self._read_version()

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        with self.lock:
            self._conn.close()
