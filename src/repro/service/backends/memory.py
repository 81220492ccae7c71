"""In-memory run store: the SQLite backend on ``:memory:``.

Same SQL, same contract, zero filesystem setup; the store lives as
long as its one connection.  ``repro-oa serve --store memory://`` is
useful for tests and demos, never for real campaigns.
"""

from __future__ import annotations

from repro.service.backends.sqlite import SQLiteBackend

__all__ = ["MemoryBackend"]


class MemoryBackend(SQLiteBackend):
    """A process-local run store (see module docstring)."""

    name = "memory"

    def __init__(self) -> None:
        super().__init__(":memory:")
        self.url = "memory://"
