"""Observing a sweep must not change which code runs.

An observed sweep takes the shipping path — batch planning and the
engine's fast path — and yields the rows and journal bytes of an
unobserved one.  The scalar planner and the engine's traced path are
patched to raise, so a run that strays onto either fails here: the
planner both at its public name and at ``get_heuristic``, which every
``plan_grouping`` call reaches however its caller bound the name.
"""

from __future__ import annotations

from repro import obs
from repro.core.makespan import clear_makespan_cache, makespan_cache_stats
from repro.core import heuristics
from repro.experiments.sweep import SweepGrid, run_sweep
from repro.simulation import engine

GRID = SweepGrid.from_ranges(
    clusters=("sagittaire", "chti"),
    r_min=11, r_max=31, step=4, scenarios=(5,), months=(6, 12),
)


def _refuse(*_args, **_kwargs):
    raise AssertionError("an observed sweep left the shipping path")


def test_observed_sweep_takes_the_shipping_path(tmp_path, monkeypatch) -> None:
    plain_journal = tmp_path / "plain.ndjson"
    clear_makespan_cache()
    plain = run_sweep(GRID, journal_path=plain_journal)

    monkeypatch.setattr(engine, "_run_traced", _refuse)
    monkeypatch.setattr(heuristics, "plan_grouping", _refuse)
    monkeypatch.setattr(heuristics, "get_heuristic", _refuse)
    observed_journal = tmp_path / "observed.ndjson"
    clear_makespan_cache()
    with obs.session() as (registry, _tracer):
        observed = run_sweep(GRID, journal_path=observed_journal)
        dump = registry.as_dict()
    misses = makespan_cache_stats()["simulated"]["misses"]

    assert observed.complete
    assert observed.rows == plain.rows
    assert observed_journal.read_bytes() == plain_journal.read_bytes()
    counters = dump["counters"]
    runs = sum(series["value"] for series in counters["simulation.runs"])
    assert runs == misses > 0
    assert sum(series["value"] for series in counters["batch.plans"]) > 0
