"""Benchmarks of the worker-fleet store path — claims and heartbeats.

The fleet's hot loop is not job execution (that's simulation work) but
the store round-trips every worker performs per job: the atomic
claim-with-lease, the periodic heartbeat renewal, and the reaper's
expiry sweep.  These set the ceiling on fleet size per store: a
SQLite store serving N workers absorbs roughly N/heartbeat_interval
renewals per second on top of the claim traffic.

Run with::

    pytest benchmarks/bench_fleet.py --benchmark-only -s
"""

from __future__ import annotations

import pytest

from repro.service.backends import MemoryBackend
from repro.service.store import RunStore

BATCH = 20  # claims per timed round


def _fill(store: RunStore, count: int) -> list[str]:
    return [store.submit("sleep", {"seconds": 0}) for _ in range(count)]


@pytest.fixture(params=["sqlite", "memory"])
def store(request, tmp_path):
    """SQLite on a file and on ``:memory:``: the gap is the file's cost."""
    if request.param == "sqlite":
        made = RunStore(tmp_path / "fleet.db")
    else:
        made = RunStore(MemoryBackend())
    yield made
    made.close()


def test_leased_claim_throughput(benchmark, store) -> None:
    """Time the claim-with-lease — one per job per worker."""

    def setup():
        for run_id in list_ids:
            store.requeue_for_retry(run_id, "rewind", not_before=0.0)
        return (), {}

    list_ids = _fill(store, BATCH)
    # First pass moves them to running so the rewind in setup() works.
    for _ in range(BATCH):
        store.claim_next(owner_id="w0", lease_seconds=30.0)

    def claim_batch() -> int:
        claimed = 0
        while store.claim_next(owner_id="w0", lease_seconds=30.0):
            claimed += 1
        return claimed

    claimed = benchmark.pedantic(
        claim_batch, setup=setup, rounds=20, warmup_rounds=2
    )
    assert claimed == BATCH
    per_second = BATCH / benchmark.stats.stats.mean
    benchmark.extra_info["claims_per_second"] = round(per_second, 1)
    print(f"\n{per_second:,.0f} leased claims/sec ({store.backend.name})")


def test_heartbeat_throughput(benchmark, store) -> None:
    """Time the lease renewal — the fleet's background heartbeat load."""
    run_id = _fill(store, 1)[0]
    store.claim_next(owner_id="w0", lease_seconds=30.0)

    def beat() -> bool:
        return store.heartbeat(run_id, "w0", lease_seconds=30.0)

    assert benchmark(beat)
    per_second = 1.0 / benchmark.stats.stats.mean
    benchmark.extra_info["heartbeats_per_second"] = round(per_second, 1)
    print(f"\n{per_second:,.0f} heartbeats/sec ({store.backend.name})")


def test_reaper_sweep_latency(benchmark, store) -> None:
    """Time one reaper pass over a store with live leases and no expiry.

    The common case — nothing to reap — must stay cheap because the
    server runs it every ``reap_interval`` seconds forever.
    """
    _fill(store, BATCH)
    for _ in range(BATCH):
        store.claim_next(owner_id="w0", lease_seconds=3_600.0)

    expired = benchmark(store.expire_leases)
    assert expired == []
    micros = benchmark.stats.stats.mean * 1e6
    benchmark.extra_info["sweep_microseconds"] = round(micros, 1)
    print(f"\n{micros:,.0f}µs idle reaper sweep ({store.backend.name})")
