"""Campaigns read their performance vectors from the kernel caches.

Every vector entry and every SeD execution is a memoized simulation
keyed on the grouping, the ensemble shape and the timings, never on the
cluster's name, and the whole vector is memoized (the ``vector`` kind)
on the timing table, the post time and ``(R, NS, NM, heuristic)``.  So
a ``benchmark_grid`` with more than five clusters, whose extra clusters
repeat the five reference timings under new names, adds no engine runs
for the repeats: each repeat's vector is one ``vector`` hit.  A SeD's
execution reads the entry its vector already holds, and a second
identical campaign runs no engine at all.  The vectors' knapsack DP
stacks are memoized per item table (the ``dp`` kind), so the repeats
and a second campaign build no DP either, and the SeD's execution
traces its plan back from the stack its vector built: one ``dp`` hit,
no build.  The fault replanner reads the same caches, keyed on its
remaining chains, so a second identical faulted campaign runs no engine
either.  The memoized results must equal uncached ones field for field.
"""

from __future__ import annotations

from dataclasses import fields

from repro import obs
from repro.core.grouping import Grouping
from repro.core.makespan import (
    cached_schedule_log,
    cached_simulated_makespan,
    clear_makespan_cache,
    makespan_cache_disabled,
    makespan_cache_stats,
)
from repro.core.performance_vector import performance_vector
from repro.faults.trace import FaultEvent, FaultKind, FaultTrace
from repro.middleware.deployment import run_campaign
from repro.middleware.messages import ExecutionOrder, ServiceRequest
from repro.middleware.recovery import run_campaign_with_faults
from repro.middleware.sed import SeD
from repro.platform.benchmarks import (
    REFERENCE_CLUSTER_SPEEDS,
    benchmark_cluster,
    benchmark_grid,
)
from repro.workflow.ocean_atmosphere import EnsembleSpec

NS, NM = 12, 8
HOUR = 3600.0
TRACE = FaultTrace.of([
    FaultEvent(FaultKind.OUTAGE, "chti", 3 * HOUR, duration=HOUR),
    FaultEvent(FaultKind.CRASH, "sagittaire-1", 5 * HOUR),
])


def _simulated() -> dict[str, int]:
    return makespan_cache_stats()["simulated"]


def _dp_misses() -> int:
    return makespan_cache_stats()["dp"]["misses"]


def _engine_runs(run) -> tuple[object, int]:
    """``run()`` observed: its result and its ``simulation.runs`` total."""
    with obs.session() as (registry, _tracer):
        result = run()
        counters = registry.as_dict()["counters"]
    series = counters.get("simulation.runs", [])
    return result, sum(entry["value"] for entry in series)


def test_repeated_timing_clusters_add_no_simulated_misses() -> None:
    grid = benchmark_grid(7, 36)
    distinct = len(REFERENCE_CLUSTER_SPEEDS)
    assert [c.name for c in grid][distinct:] == ["sagittaire-1", "grelon-1"]

    # The five distinct clusters' vectors: one miss per entry.
    clear_makespan_cache()
    for cluster in list(grid)[:distinct]:
        performance_vector(cluster, EnsembleSpec(NS, NM))
    assert _simulated()["misses"] == distinct * NS

    # The whole campaign: the two repeats are one vector hit each, and
    # every execution is a simulated hit.
    clear_makespan_cache()
    result = run_campaign(grid, NS, NM)
    stats = _simulated()
    assert stats["misses"] == distinct * NS
    assert stats["hits"] == len(result.reports)
    assert makespan_cache_stats()["vector"] == {
        "hits": len(grid) - distinct, "misses": distinct, "size": distinct,
    }
    twins = {reply.cluster_name: reply.vector for reply in result.replies}
    assert twins["sagittaire-1"] == twins["sagittaire"]
    assert twins["grelon-1"] == twins["grelon"]


def test_observed_campaign_counts_one_engine_run_per_miss() -> None:
    grid = benchmark_grid(7, 36)
    clear_makespan_cache()
    _result, runs = _engine_runs(lambda: run_campaign(grid, NS, NM))
    assert runs == _simulated()["misses"] > 0


def test_second_identical_campaign_runs_no_engine() -> None:
    grid = benchmark_grid(4, 40)
    clear_makespan_cache()
    first, cold_runs = _engine_runs(lambda: run_campaign(grid, NS, NM))
    second, warm_runs = _engine_runs(lambda: run_campaign(grid, NS, NM))
    assert cold_runs > 0
    assert warm_runs == 0
    assert second == first


def test_second_identical_campaign_builds_no_dp() -> None:
    grid = benchmark_grid(4, 40)
    clear_makespan_cache()
    first = run_campaign(grid, NS, NM)
    cold = _dp_misses()
    assert cold > 0
    assert run_campaign(grid, NS, NM) == first
    assert _dp_misses() == cold


def test_repeated_timing_clusters_share_one_dp_per_item_table() -> None:
    grid = benchmark_grid(7, 36)
    distinct = len(REFERENCE_CLUSTER_SPEEDS)
    clear_makespan_cache()
    result = run_campaign(grid, NS, NM)
    # Every distinct vector asks for (R, NS) = (36, 12): one build per
    # item table; the repeats' vectors are vector hits and read no stack.
    # Every execution traces back from its cluster's stack: one hit each.
    assert makespan_cache_stats()["dp"] == {
        "hits": len(result.reports),
        "misses": distinct,
        "size": distinct,
    }
    # A larger NS grows each table's stack once; a smaller one builds none.
    run_campaign(grid, NS + 4, NM)
    assert _dp_misses() == 2 * distinct
    run_campaign(grid, NS - 4, NM)
    assert _dp_misses() == 2 * distinct
    assert makespan_cache_stats()["dp"]["size"] == distinct


def test_sed_execution_reads_the_vectors_dp_stack() -> None:
    sed = SeD(benchmark_cluster("grelon", 40))
    clear_makespan_cache()
    sed.handle_request(ServiceRequest(NS, NM))
    built = makespan_cache_stats()["dp"]
    assert built["misses"] == built["size"] == 1
    for _ in range(2):
        sed.execute(ExecutionOrder("grelon", tuple(range(NS)), NM))
    assert makespan_cache_stats()["dp"] == {**built, "hits": built["hits"] + 2}


def test_full_chains_are_their_own_key() -> None:
    cluster = benchmark_cluster("grelon", 12)
    grouping, spec = Grouping((4, 6), 2, 12), EnsembleSpec(3, NM)
    full = (NM,) * spec.scenarios
    clear_makespan_cache()
    for chains in (None, full, None, full):
        cached_simulated_makespan(grouping, spec, cluster.timing, chains)
        cached_schedule_log(grouping, spec, cluster.timing, chains)
    stats = makespan_cache_stats()
    for kind in ("simulated", "schedule"):
        assert stats[kind] == {"hits": 2, "misses": 2, "size": 2}, kind
    assert cached_simulated_makespan(
        grouping, spec, cluster.timing, full
    ) == cached_simulated_makespan(grouping, spec, cluster.timing)


def test_second_identical_faulted_campaign_runs_no_engine() -> None:
    grid = benchmark_grid(6, 33)
    clear_makespan_cache()
    first, cold_runs = _engine_runs(
        lambda: run_campaign_with_faults(grid, NS, NM, TRACE)
    )
    second, warm_runs = _engine_runs(
        lambda: run_campaign_with_faults(grid, NS, NM, TRACE)
    )
    assert first.replans > 0
    assert cold_runs > 0
    assert warm_runs == 0
    assert second == first


def _assert_fields_equal(cached: object, uncached: object) -> None:
    assert type(cached) is type(uncached)
    for field in fields(cached):
        assert getattr(cached, field.name) == getattr(uncached, field.name), field.name


def test_uncached_campaigns_equal_cached_field_for_field() -> None:
    grid = benchmark_grid(6, 33)
    clear_makespan_cache()
    cold = run_campaign(grid, NS, NM)
    warm = run_campaign(grid, NS, NM)
    faulted = run_campaign_with_faults(grid, NS, NM, TRACE)
    warm_faulted = run_campaign_with_faults(grid, NS, NM, TRACE)
    stats = makespan_cache_stats()
    with makespan_cache_disabled():
        uncached = run_campaign(grid, NS, NM)
        uncached_faulted = run_campaign_with_faults(grid, NS, NM, TRACE)
    assert makespan_cache_stats() == stats
    assert stats["dp"]["hits"] > 0
    assert stats["schedule"]["hits"] > 0
    assert faulted.replans > 0
    for cached in (cold, warm):
        _assert_fields_equal(cached, uncached)
    for cached in (faulted, warm_faulted):
        _assert_fields_equal(cached, uncached_faulted)
