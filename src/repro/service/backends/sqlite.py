"""SQLite storage backend — the dev default.

One WAL-mode file, safe to share between the server's pool workers,
CLI threads, and independent ``repro-oa worker`` processes on the same
host.  The connection runs in autocommit (``isolation_level=None``)
so the multi-statement claim and lease-expiry primitives can open an
explicit ``BEGIN IMMEDIATE`` transaction, which takes the database
write lock up front and excludes every other claimant — thread or
process — until commit.

Opening runs ``PRAGMA integrity_check`` before anything else touches
the file: a store cut short inside a page can still open, yet answer
lookups wrongly through its damaged index, so a check that fails
refuses the store with the same typed error as an unreadable header.
The check goes through SQLite, under its locks, because ``repro-oa
worker`` processes on the host may be writing the same file.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path

from repro.service.backends.base import StorageBackend

__all__ = ["SQLiteBackend"]


class SQLiteBackend(StorageBackend):
    """The run store on a single SQLite file (see module docstring)."""

    name = "sqlite"
    placeholder = "?"
    float_type = "REAL"
    # IMMEDIATE acquires the write lock at BEGIN, not first write, so
    # concurrent claimants from other processes serialize here.
    exclusive_begin = "BEGIN IMMEDIATE"
    database_error = sqlite3.DatabaseError

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
        try:
            (verdict,) = conn.execute("PRAGMA integrity_check").fetchone()
            if verdict != "ok":
                raise sqlite3.DatabaseError(f"integrity check: {verdict}")
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA busy_timeout=30000")
        except sqlite3.DatabaseError:
            conn.close()
            raise
        return conn

    def _read_version(self) -> int:
        return int(self._conn.execute("PRAGMA user_version").fetchone()[0])

    def _write_version(self, version: int) -> None:
        # PRAGMA does not accept bound parameters; version is an int
        # under our control.
        self._conn.execute(f"PRAGMA user_version = {int(version)}")
