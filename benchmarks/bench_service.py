"""Benchmark of the campaign service wire path — submissions/sec.

Times the full client→TCP→validate→SQLite submit round-trip against an
in-process server (``serve_in_thread``), using zero-length ``sleep``
jobs so the measurement is the service overhead, not simulation work.

Run with::

    pytest benchmarks/bench_service.py --benchmark-only -s
"""

from __future__ import annotations

import pytest

from repro.service import ServiceClient, serve_in_thread

BATCH = 20  # submissions per timed round


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """One in-process server shared by the whole module."""
    db_path = tmp_path_factory.mktemp("service") / "runs.db"
    handle = serve_in_thread(db_path, workers=2)
    yield handle
    # Graceful stop waits only for in-flight jobs; the (large) backlog
    # of queued sleep jobs simply stays in the throwaway store.
    handle.stop()


def test_submission_throughput(benchmark, server) -> None:
    """Time a batch of submit round-trips on one persistent connection."""
    with ServiceClient(port=server.port) as client:

        def submit_batch() -> list[str]:
            return [
                client.submit("sleep", {"seconds": 0})
                for _ in range(BATCH)
            ]

        ids = benchmark(submit_batch)

    assert len(set(ids)) == BATCH
    per_second = BATCH / benchmark.stats.stats.mean
    benchmark.extra_info["submissions_per_second"] = round(per_second, 1)
    print(f"\n{per_second:,.0f} submissions/sec (batch={BATCH})")


def test_status_poll_latency(benchmark, server) -> None:
    """Time the status poll — the op clients hammer while waiting."""
    with ServiceClient(port=server.port) as client:
        run_id = client.submit("sleep", {"seconds": 0})
        status = benchmark(lambda: client.status(run_id))
    assert status["run_id"] == run_id
