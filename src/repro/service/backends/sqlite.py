"""SQLite storage backend — the dev default.

One WAL-mode file, safe to share between the server's pool workers,
CLI threads, and independent ``repro-oa worker`` processes on the same
host.  The connection runs in autocommit (``isolation_level=None``)
so the multi-statement claim and lease-expiry primitives can open an
explicit ``BEGIN IMMEDIATE`` transaction, which takes the database
write lock up front and excludes every other claimant — thread or
process — until commit.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path

from repro.service.backends.dbapi import SQLRunBackend

__all__ = ["SQLiteBackend"]


class SQLiteBackend(SQLRunBackend):
    """The run store on a single SQLite file (see module docstring)."""

    name = "sqlite"
    placeholder = "?"
    float_type = "REAL"

    def __init__(self, path: str | Path) -> None:
        self.path = str(path)
        self.url = self.path
        super().__init__()

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            self.path,
            isolation_level=None,  # autocommit; txns are explicit
            check_same_thread=False,
            timeout=30.0,
        )
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA busy_timeout=30000")
        return conn

    def _read_version(self) -> int:
        return int(self._conn.execute("PRAGMA user_version").fetchone()[0])

    def _write_version(self, version: int) -> None:
        # PRAGMA does not accept bound parameters; version is an int
        # under our control.
        self._conn.execute(f"PRAGMA user_version = {int(version)}")

    def _begin_exclusive(self) -> None:
        # IMMEDIATE acquires the write lock at BEGIN, not first write,
        # so concurrent claimants from other processes serialize here.
        self._conn.execute("BEGIN IMMEDIATE")
