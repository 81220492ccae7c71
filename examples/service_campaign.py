#!/usr/bin/env python3
"""Campaign service tour: serve, submit concurrently, read back results.

Starts a campaign server on an ephemeral port (backed by a throwaway
SQLite store), submits three ensemble campaigns of different sizes from
three client threads at once, polls each to completion over the wire,
then reads the stored makespans straight out of the database — the
same file a restarted server would resume from.

Run::

    python examples/service_campaign.py
"""

from __future__ import annotations

import concurrent.futures
import json
import tempfile
from pathlib import Path

from repro.service import RunStore, ServiceClient, serve_in_thread

SCENARIOS = (6, 10, 14)  # three ensemble sizes, one campaign each


def submit_campaign(port: int, scenarios: int) -> str:
    """Submit one campaign job from its own client connection."""
    with ServiceClient(port=port) as client:
        return client.submit(
            "campaign",
            {
                "clusters": 3,
                "resources": 40,
                "scenarios": scenarios,
                "months": 12,
            },
        )


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        db_path = Path(tmp) / "runs.db"
        handle = serve_in_thread(db_path, workers=2)
        print(f"campaign service on 127.0.0.1:{handle.port} (db={db_path})\n")

        try:
            # Three clients submit concurrently; the wire protocol and
            # the store serialize them safely.
            with concurrent.futures.ThreadPoolExecutor(3) as pool:
                run_ids = list(
                    pool.map(
                        lambda s: submit_campaign(handle.port, s), SCENARIOS
                    )
                )
            for scenarios, run_id in zip(SCENARIOS, run_ids):
                print(f"submitted {scenarios:>2}-scenario campaign: {run_id}")

            with ServiceClient(port=handle.port) as client:
                for run_id in run_ids:
                    status = client.wait(run_id, timeout=300.0)
                    print(f"run {run_id}: {status['state']}")
                health = client.health()
                print(f"\nserver saw {health['jobs']['done']} jobs to done")
        finally:
            handle.stop()

        # The server is gone; the results are not.
        print(f"\nstored makespans (read from {db_path.name} post-shutdown):")
        with RunStore(db_path) as store:
            for scenarios, run_id in zip(SCENARIOS, run_ids):
                envelope = json.loads(store.get(run_id).result)
                makespan = envelope["data"]["data"]["makespan"]
                print(
                    f"  {scenarios:>2} scenarios -> "
                    f"makespan {makespan / 3600:.2f} h"
                )


if __name__ == "__main__":
    main()
