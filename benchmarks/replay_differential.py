"""Differential check of fault replay over seeded arena points.

For every faulted point of an arena preset — each cluster, resource
count and scheduler, under fault seeds ``1..N`` — the schedule-log
replay (:meth:`repro.faults.hooks.FaultHook.replay`) must equal the
record warp of a traced run
(``tests/simulation/fault_warp_oracle.py``), result and outcome, field
for field.  Both read the engine's logging loop; they differ in
everything after it: the replay cuts the memoized schedule log (posts
placed by the two-pointer merge) by binary search, the warp shifts
every record (posts placed by the heap) one by one.  Traces are drawn
exactly as the arena draws them.

Run from the root of a checkout::

    PYTHONPATH=src:. python benchmarks/replay_differential.py --seeds 80

The last line is a JSON summary; the exit status is 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json

from repro.exceptions import SchedulingError
from repro.faults.hooks import FaultHook
from repro.platform.benchmarks import benchmark_cluster
from repro.schedulers.arena import (
    ArenaGrid,
    _ChaosConfig,
    _fault_seed,
    _trace_for_point,
)
from repro.schedulers.base import get_scheduler
from repro.simulation.engine import simulate
from repro.workflow.ocean_atmosphere import EnsembleSpec
from tests.simulation.fault_warp_oracle import warp_records


def run(preset: str, step: int, seeds: int) -> dict[str, int]:
    """Compare replay with the record warp on every faulted point; return the counts."""
    grid = ArenaGrid.from_preset(
        preset, fault_seeds=range(1, seeds + 1), include_fault_free=False,
        step=step,
    )
    config = _ChaosConfig(grid.seed, grid.mtbf_hours, grid.mttr_hours)
    groupings: dict[tuple, object] = {}
    hooks: dict[tuple, FaultHook] = {}
    counts = {"points": 0, "infeasible": 0, "crashed": 0, "mismatches": 0}
    for point in grid.points():
        cluster = benchmark_cluster(point.cluster, point.resources)
        spec = EnsembleSpec(point.scenarios, point.months)
        decision = point.key()[:4] + (point.scheduler,)
        if decision not in groupings:
            try:
                groupings[decision] = get_scheduler(
                    point.scheduler, seed=grid.seed
                ).decide(cluster, spec)
            except SchedulingError:
                groupings[decision] = None
        grouping = groupings[decision]
        if grouping is None:
            counts["infeasible"] += 1
            continue
        if point.cell() not in hooks:
            trace = _trace_for_point(
                point, cluster, spec, config, _fault_seed(point.fault)
            )
            hooks[point.cell()] = FaultHook.from_trace(trace, point.cluster)
        hook = hooks[point.cell()]
        replayed = hook.replay(
            grouping, spec, cluster.timing, cluster_name=point.cluster
        )
        base = simulate(
            grouping, spec, cluster.timing, cluster_name=point.cluster,
            record_trace=True,
        )
        expected = warp_records(hook, base, keep_records=False)
        counts["points"] += 1
        counts["crashed"] += expected[1].crashed
        counts["mismatches"] += replayed != expected
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="fig8")
    parser.add_argument("--step", type=int, default=4)
    parser.add_argument("--seeds", type=int, default=80)
    args = parser.parse_args(argv)
    counts = run(args.preset, args.step, args.seeds)
    print(json.dumps({"preset": args.preset, "step": args.step,
                      "seeds": args.seeds, **counts}))
    return 1 if counts["mismatches"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
