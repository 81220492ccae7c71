"""The replanner's schedule cut as a record scan: the oracle for ``_progress_at``.

Before the replanner read the memoized schedule log, it ran a fresh
traced reference simulation on every event and scanned its records.
That scan is kept here, unchanged but for returning tuples, so
``test_progress_cut.py`` can check the log cut against it.
"""

from __future__ import annotations

from repro.simulation.engine import simulate


def progress_at_by_records(cluster, grouping, spec, chains, offset, at_time):
    """``(months done, posts done, lost work, in-flight mains)`` by record scan."""
    result = simulate(
        grouping, spec, cluster.timing, cluster_name=cluster.name,
        record_trace=True, chains=chains,
    )
    done = [0] * spec.scenarios
    posts_done = [0] * spec.scenarios
    lost = 0.0
    in_flight = 0
    for record in result.records:
        start = offset + record.start
        end = offset + record.end
        if end <= at_time:
            if record.kind == "main":
                done[record.scenario] += 1
            else:
                posts_done[record.scenario] += 1
        elif start < at_time:
            lost += (at_time - start) * record.n_procs
            if record.kind == "main":
                in_flight += 1
    return tuple(done), tuple(posts_done), lost, in_flight
