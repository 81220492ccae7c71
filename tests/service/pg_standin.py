"""A stand-in DB-API driver that runs the Postgres dialect on sqlite3.

``PostgresBackend(dsn, driver=StandInDriver())`` sends every statement
through :class:`_Cursor` on a fresh in-memory database
(``StandInDriver(path)``: on one SQLite file instead).  ``%s``
placeholders become ``?``, a raw ``?`` (a statement that skipped the
dialect's placeholder translation) is refused, and the ``FOR UPDATE
SKIP LOCKED`` row lock, which SQLite cannot parse, is stripped and
logged in :attr:`StandInDriver.rewrites`.
What the log names is the one clause only a real server tests.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path
from typing import Any

SKIP_LOCKED = " FOR UPDATE SKIP LOCKED"


class _Cursor(sqlite3.Cursor):
    def execute(self, sql: str, parameters: Any = ()) -> _Cursor:
        if "?" in sql:
            raise sqlite3.ProgrammingError(f"raw ? placeholder in {sql!r}")
        if SKIP_LOCKED in sql:
            sql = sql.replace(SKIP_LOCKED, "")
            self.connection.rewrites.append(sql)
        return super().execute(sql.replace("%s", "?"), parameters)


class _Connection(sqlite3.Connection):
    rewrites: list[str]

    def cursor(self, factory: Any = _Cursor) -> _Cursor:
        return super().cursor(factory)


class StandInDriver:
    """The DB-API module surface :class:`PostgresBackend` uses."""

    DatabaseError = sqlite3.DatabaseError

    def __init__(self, database: str | Path = ":memory:") -> None:
        self.database = database
        #: Each statement whose row lock was stripped, as the dialect
        #: sent it minus that clause.
        self.rewrites: list[str] = []

    def connect(self, dsn: str) -> _Connection:
        conn = sqlite3.connect(
            self.database,
            factory=_Connection,
            isolation_level=None,
            check_same_thread=False,
        )
        conn.rewrites = self.rewrites
        return conn
