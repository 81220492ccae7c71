"""Shared helpers for the service tests."""

from __future__ import annotations

import threading
import time

from repro.faults.chaos import ChaosConfig
from repro.service.fleet import FleetWorker, WorkerConfig
from repro.service.store import RunStore


def fast_config(**overrides) -> WorkerConfig:
    """A worker config with millisecond-scale polls and retry backoff."""
    defaults = dict(
        backoff_base=0.02,
        backoff_factor=2.0,
        backoff_cap=0.1,
        poll_base=0.01,
        poll_cap=0.01,
    )
    defaults.update(overrides)
    return WorkerConfig(**defaults)


def drain(
    store: RunStore,
    config: WorkerConfig,
    *,
    workers: int = 1,
    chaos: ChaosConfig | None = None,
    timeout: float = 120.0,
) -> list[FleetWorker]:
    """Run ``workers`` leased workers on threads until nothing is unfinished.

    Returns the workers (their ``stats`` and ``chaos`` counters are the
    test's evidence).  Raises ``AssertionError`` when the store does not
    drain within ``timeout`` seconds.
    """
    stop = threading.Event()
    pool = [FleetWorker(store, config, chaos=chaos) for _ in range(workers)]
    threads = [
        threading.Thread(target=worker.run_forever, args=(stop,), daemon=True)
        for worker in pool
    ]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + timeout
    try:
        while store.unfinished():
            if time.monotonic() > deadline:
                raise AssertionError(f"queue not drained within {timeout}s")
            time.sleep(0.01)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
    return pool
