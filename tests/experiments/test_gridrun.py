"""Torn-write resilience of the grid runner's journal.

A journal must survive truncation at any byte: a run killed at any
point and then resumed — once, and again — equals one uninterrupted
run, and leaves the same journal bytes behind; and the run report of a
journal cut anywhere past its grid line renders every complete line.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.runreport import report_for_journal
from repro.experiments.gridrun import load_journal
from repro.experiments.sweep import SweepGrid, run_sweep
from repro.schedulers.arena import ArenaGrid, run_arena

CHUNK_SIZE = 2

DRIVERS = {
    "sweep": (
        run_sweep,
        SweepGrid.from_ranges(
            r_min=11, r_max=11, scenarios=(5,), months=(6,),
            heuristics=("basic", "redistribute", "knapsack"),
        ),
    ),
    "arena": (
        run_arena,
        ArenaGrid(
            clusters=("sagittaire",), resources=(11,), scenarios=(5,),
            months=(6,), faults=("none",),
            schedulers=("basic", "redistribute", "knapsack"),
        ),
    ),
}


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_resume_from_every_byte_offset(driver, tmp_path) -> None:
    run, grid = DRIVERS[driver]
    journal = tmp_path / "journal.ndjson"
    uninterrupted = run(grid, journal_path=journal, chunk_size=CHUNK_SIZE)
    assert uninterrupted.complete
    complete = journal.read_bytes()
    assert complete.count(b"\n") >= 3  # grid line + at least two chunks

    for cut in range(len(complete) + 1):
        journal.write_bytes(complete[:cut])
        first = run(grid, journal_path=journal, chunk_size=CHUNK_SIZE)
        second = run(grid, journal_path=journal, chunk_size=CHUNK_SIZE)
        assert first == uninterrupted, f"cut at byte {cut}"
        assert second == uninterrupted, f"cut at byte {cut}"
        assert journal.read_bytes() == complete, f"cut at byte {cut}"


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_report_renders_at_every_byte_offset(driver, tmp_path) -> None:
    """A torn journal still renders: its complete lines, all of them."""
    run, grid = DRIVERS[driver]
    journal = tmp_path / "journal.ndjson"
    run(grid, journal_path=journal, chunk_size=CHUNK_SIZE)
    complete = journal.read_bytes()
    grid_end = complete.index(b"\n") + 1

    for cut in range(grid_end, len(complete) + 1):
        journal.write_bytes(complete[:cut])
        whole_lines = complete[:cut].split(b"\n")[1:-1]
        points = sum(
            len(json.loads(line)["data"]["data"]["rows"]) for line in whole_lines
        )
        html = report_for_journal(journal)
        assert f"{points} evaluated point(s)" in html, f"cut at byte {cut}"


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_load_journal_returns_what_a_resume_would(driver, tmp_path) -> None:
    """The report's reader and the resume share one rule: same rows."""
    run, grid = DRIVERS[driver]
    journal = tmp_path / "journal.ndjson"
    partial = run(grid, journal_path=journal, chunk_size=CHUNK_SIZE, max_chunks=1)
    assert not partial.complete
    assert load_journal(journal) == partial
    assert load_journal(journal) == run(grid, journal_path=journal, max_chunks=0)
