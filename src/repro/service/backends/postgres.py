"""PostgreSQL storage backend — the server-grade option.

A thin DB-API adapter over :class:`~repro.service.backends.base.
StorageBackend`: the SQL is shared with SQLite, only the placeholder
style (``%s``), the float column type (``DOUBLE PRECISION``), version
stamping (a one-row ``runs_schema`` table instead of ``PRAGMA
user_version``) and row locking (``FOR UPDATE SKIP LOCKED``) differ.
``SKIP LOCKED`` lets many worker hosts claim concurrently without
serializing on one database lock, which is what makes Postgres the
backend for multi-host fleets.

The driver is imported lazily — ``psycopg`` (v3) preferred,
``psycopg2`` accepted — and a missing driver raises
:class:`~repro.exceptions.ServiceError` with code
``backend-unavailable`` at *construction*, so ``repro-oa serve
--store sqlite:...`` works on machines with no Postgres client
installed.
"""

from __future__ import annotations

from typing import Any

from repro.exceptions import ServiceError
from repro.service.backends.base import StorageBackend

__all__ = ["PostgresBackend", "load_driver"]


def load_driver() -> Any:
    """Import and return the installed psycopg module, else raise.

    Raises :class:`~repro.exceptions.ServiceError` with code
    ``backend-unavailable`` when neither ``psycopg`` nor ``psycopg2``
    is importable.
    """
    try:
        import psycopg  # type: ignore[import-not-found]

        return psycopg
    except ImportError:
        pass
    try:
        import psycopg2  # type: ignore[import-not-found]

        return psycopg2
    except ImportError:
        pass
    raise ServiceError(
        "the postgres storage backend needs the psycopg (or psycopg2) "
        "driver, which is not installed; install it or point --store at "
        "a sqlite path",
        code="backend-unavailable",
    )


class PostgresBackend(StorageBackend):
    """The run store on a PostgreSQL server (see module docstring)."""

    name = "postgres"
    placeholder = "%s"
    float_type = "DOUBLE PRECISION"
    # Concurrent claimants skip each other's locked rows instead of
    # queueing on them — the fleet's claim throughput scales with
    # worker count.
    claim_lock = " FOR UPDATE SKIP LOCKED"

    def __init__(self, dsn: str, *, driver: Any = None) -> None:
        self.url = dsn
        self._driver = driver if driver is not None else load_driver()
        self.database_error = self._driver.DatabaseError
        super().__init__()

    def _connect(self) -> Any:
        conn = self._driver.connect(self.url)
        conn.autocommit = True
        return conn

    def execute(self, statement: str, args: tuple[Any, ...] = ()) -> Any:
        # psycopg connections have no .execute shortcut in DB-API v2
        # (psycopg2); go through a cursor for both driver generations.
        cursor = self._conn.cursor()
        cursor.execute(self._sql(statement), args)
        return cursor

    def _read_version(self) -> int:
        self.execute(
            "CREATE TABLE IF NOT EXISTS runs_schema (version INTEGER)"
        )
        row = self.execute("SELECT version FROM runs_schema").fetchone()
        return 0 if row is None else int(row[0])

    def _write_version(self, version: int) -> None:
        self.execute("DELETE FROM runs_schema")
        self.execute(
            "INSERT INTO runs_schema (version) VALUES (?)", (version,)
        )
