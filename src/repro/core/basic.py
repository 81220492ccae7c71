"""The uniform heuristics: Section 4.1's basic ``G`` and Improvements 1–2.

"All the 8 possibilities for the parameter G (4 → 11) are tested and the
one yielding the smallest makespan is chosen."  Selection uses the
*analytic* formulas (the paper computes, it does not simulate, at this
stage); ties go to the smaller ``G`` — with equal estimated makespans a
smaller group wastes fewer processors per group, and a fixed rule keeps
Figure 7 reproducible.

Improvements 1 and 2 (Section 4.2) start from the same ``G*``; the
one rule building all three groupings from it,
:func:`uniform_family_grouping`, is shared with the batch planner.
Its oracle is the paper's round-robin loops, in
``tests/core/uniform_family_oracle.py``.
"""

from __future__ import annotations

import logging
import math

from repro import obs
from repro.core.grouping import Grouping
from repro.core.makespan import _floor_ratio, cached_analytic_makespan
from repro.exceptions import SchedulingError
from repro.platform.cluster import ClusterSpec
from repro.platform.timing import TimingModel
from repro.workflow.ocean_atmosphere import EnsembleSpec

__all__ = [
    "allpost_end_grouping",
    "basic_grouping",
    "best_uniform_group",
    "no_group_fits",
    "redistribute_grouping",
    "uniform_family_grouping",
]

_log = obs.get_logger(__name__)


def no_group_fits(cluster: ClusterSpec) -> SchedulingError:
    """The error every planner raises when ``cluster`` hosts no group."""
    return SchedulingError(
        f"cluster {cluster.name!r} ({cluster.resources} processors) "
        f"cannot host any main-task group (min size "
        f"{cluster.timing.min_group})"
    )


def best_uniform_group(cluster: ClusterSpec, spec: EnsembleSpec) -> int:
    """The ``G`` minimizing the analytic makespan on this cluster.

    Raises :class:`~repro.exceptions.SchedulingError` when not even the
    smallest admissible group fits on the cluster.
    """
    tp = cluster.post_time()
    best_g: int | None = None
    best_ms = float("inf")
    collect = obs.enabled()  # hoisted: the candidate loop stays branch-cheap
    for g in cluster.group_sizes:
        if g > cluster.resources:
            if collect:
                obs.inc(
                    "heuristic.rejections",
                    heuristic="basic",
                    cluster=cluster.name,
                    reason="group_exceeds_resources",
                )
                obs.log_event(
                    _log, "heuristic.candidate_rejected",
                    heuristic="basic", cluster=cluster.name, group=g,
                    reason="group_exceeds_resources",
                )
            continue
        ms = cached_analytic_makespan(
            cluster.resources, g, spec.scenarios, spec.months,
            cluster.main_time(g), tp,
        )
        if collect:
            obs.inc(
                "heuristic.candidate_evaluations",
                heuristic="basic",
                cluster=cluster.name,
            )
            obs.log_event(
                _log, "heuristic.candidate_evaluated", level=logging.DEBUG,
                heuristic="basic", cluster=cluster.name, group=g,
                analytic_makespan_s=ms,
            )
        if ms < best_ms:
            best_ms = ms
            best_g = g
    if collect and best_g is not None:
        obs.set_gauge(
            "heuristic.chosen_group",
            best_g,
            heuristic="basic",
            cluster=cluster.name,
        )
        obs.log_event(
            _log, "heuristic.group_selected",
            heuristic="basic", cluster=cluster.name, group=best_g,
            analytic_makespan_s=best_ms,
        )
    if best_g is None:
        raise no_group_fits(cluster)
    return best_g


def uniform_family_grouping(
    timing: TimingModel, heuristic: str, resources: int, group_size: int, scenarios: int
) -> Grouping:
    """The basic, redistribute or allpost_end grouping built on ``G* = group_size``.

    ``nbmax = min(NS, ⌊R/G*⌋)`` groups of ``G*`` leave ``R2``
    processors.  Basic keeps them all for posts, Improvement 1 keeps
    ``⌈nbmax / ⌊TG/TP⌋⌉`` (``nbmax`` when posts outlast mains) and
    Improvement 2 none.  The rest is spread as a round robin would:
    ``⌊surplus/nbmax⌋`` each, one more for the first
    ``surplus mod nbmax``, never past ``max_group``; what no group can
    absorb returns to the posts.
    """
    nbmax = min(scenarios, resources // group_size)
    r2 = resources - nbmax * group_size
    post = r2
    if heuristic == "redistribute":
        per_proc = _floor_ratio(timing.main_time(group_size), timing.post_time())
        post = min(r2, nbmax if per_proc <= 0 else math.ceil(nbmax / per_proc))
    elif heuristic == "allpost_end":
        post = 0
    surplus = r2 - post
    cap = timing.max_group - group_size
    if surplus >= nbmax * cap:
        sizes = [timing.max_group] * nbmax
        post += surplus - nbmax * cap
    else:
        q, rem = divmod(surplus, nbmax)
        sizes = [group_size + q + 1] * rem + [group_size + q] * (nbmax - rem)
    return Grouping.from_sizes(sizes, resources, post_pool=post)


def _plan(cluster: ClusterSpec, spec: EnsembleSpec, heuristic: str) -> Grouping:
    """One uniform heuristic's grouping of ``cluster`` for ``spec``."""
    g = best_uniform_group(cluster, spec)
    return uniform_family_grouping(cluster.timing, heuristic, cluster.resources, g, spec.scenarios)


def basic_grouping(cluster: ClusterSpec, spec: EnsembleSpec) -> Grouping:
    """The basic heuristic's partition: ``nbmax`` groups of ``G*``.

    ``nbmax = min(NS, ⌊R/G*⌋)`` groups run main tasks; the remaining
    ``R2`` processors form the dedicated post pool.
    """
    return _plan(cluster, spec, "basic")


def redistribute_grouping(cluster: ClusterSpec, spec: EnsembleSpec) -> Grouping:
    """Improvement 1 — redistribute processors left idle by the basic grouping.

    Section 4.2: with the basic grouping, "for a set of concurrent
    multiprocessor tasks and the associated post-processing tasks, all
    the available resources are not used".  The post pool only needs
    ``⌈nbmax / ⌊TG/TP⌋⌉`` processors to keep up with the main waves;
    the paper's example (R=53, NS=10 → G=7, 7 groups, post needs 1, 3
    idle) redistributes the idle processors one per group: 3 groups of
    8 and 4 groups of 7.  The surplus never takes a group past the
    moldability maximum (11); anything still left returns to the post
    pool.
    """
    return _plan(cluster, spec, "redistribute")


def allpost_end_grouping(cluster: ClusterSpec, spec: EnsembleSpec) -> Grouping:
    """Improvement 2 — no dedicated post pool; every post runs at the end.

    Section 4.2: "another possibility for reducing the makespan is to
    use the resources normally reserved for post-processing tasks for
    multiprocessor tasks and to leave all the post-processing at the
    end.  It permits to avoid that the resource used to compute the
    post-processing become idle waiting for new tasks."  The conclusion
    gives the rule: it "does not leave any resource for the post
    processing tasks and distributes all left resources evenly to the
    groups of processors".  Posts wait until groups retire, which is
    how the simulator models a zero post pool.  Processors no group can
    absorb (every group at the maximum) keep serving posts.
    """
    return _plan(cluster, spec, "allpost_end")
