"""Pluggable storage backends for the campaign run store.

:func:`backend_from_url` maps a location string to a backend:

* ``memory://`` — :class:`~repro.service.backends.memory.MemoryBackend`,
  the SQLite backend on ``:memory:`` (tests, demos);
* ``postgres://...`` / ``postgresql://...`` —
  :class:`~repro.service.backends.postgres.PostgresBackend` (requires
  an installed psycopg driver);
* ``sqlite:///path/to/runs.db``, or any plain filesystem path —
  :class:`~repro.service.backends.sqlite.SQLiteBackend` (the default).

All three are dialects of
:class:`~repro.service.backends.base.StorageBackend`, under the one
SQL that :class:`repro.service.store.RunStore` issues.
"""

from __future__ import annotations

from pathlib import Path

from repro.service.backends.base import (
    RUN_STATES,
    SCHEMA_VERSION,
    LeaseView,
    RunRecord,
    StorageBackend,
)
from repro.service.backends.memory import MemoryBackend
from repro.service.backends.postgres import PostgresBackend
from repro.service.backends.sqlite import SQLiteBackend

__all__ = [
    "LeaseView",
    "MemoryBackend",
    "PostgresBackend",
    "RUN_STATES",
    "RunRecord",
    "SCHEMA_VERSION",
    "SQLiteBackend",
    "StorageBackend",
    "backend_from_url",
]


def backend_from_url(url: str | Path) -> StorageBackend:
    """Construct the backend a location string names (module docstring)."""
    text = str(url)
    if text.startswith("memory:"):
        return MemoryBackend()
    if text.startswith(("postgres://", "postgresql://")):
        return PostgresBackend(text)
    if text.startswith("sqlite:"):
        # sqlite:///relative/or/absolute/path — tolerate 0-3 slashes.
        path = text[len("sqlite:") :]
        if path.startswith("//"):
            path = path[2:]
        return SQLiteBackend(path)
    return SQLiteBackend(text)
