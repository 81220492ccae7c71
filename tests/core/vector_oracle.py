"""The scalar performance vector: the oracle for the shipping routine.

:func:`repro.core.performance_vector.performance_vector` plans every
``k`` from one batch DP layer stack and reads each entry from the
memoized simulator.  :func:`scalar_performance_vector` is the paper's
step (2) taken literally and shares neither shortcut: for each
``k = 1..NS`` it plans with the scalar
:func:`~repro.core.heuristics.plan_grouping` and runs a fresh
:func:`~repro.simulation.engine.simulate`.  The two must agree bit for
bit at every length.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.heuristics import HeuristicName, plan_grouping
from repro.exceptions import ConfigurationError
from repro.platform.cluster import ClusterSpec
from repro.simulation.engine import simulate
from repro.workflow.ocean_atmosphere import EnsembleSpec


def scalar_performance_vector(
    cluster: ClusterSpec,
    spec: EnsembleSpec,
    heuristic: HeuristicName | str = HeuristicName.KNAPSACK,
) -> list[float]:
    """Makespans for 1..NS scenarios, one scalar plan and engine run each."""
    if spec.scenarios < 1:
        raise ConfigurationError(
            f"need at least one scenario, got {spec.scenarios!r}"
        )
    vector: list[float] = []
    for k in range(1, spec.scenarios + 1):
        sub = replace(spec, scenarios=k)
        grouping = plan_grouping(cluster, sub, heuristic)
        result = simulate(grouping, sub, cluster.timing, cluster_name=cluster.name)
        vector.append(result.makespan)
    return vector
