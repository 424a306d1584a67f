"""Candidate scoring: TREESCHEDULE as the plan-search objective function.

A candidate's score is the tuple of objectives extracted from its full
TREESCHEDULE run — response time (the single-objective ranking key),
total work (sum of all placed clone work components), and max per-site
load (the hottest site's accumulated load length across all phases).
The many-objective mode (:mod:`repro.search.pareto`) trades these three
against each other.

:class:`CandidatePoint` is the frozen, canonical-JSON-able coordinate
that flows through :class:`~repro.experiments.parallel.ParallelRunner`:
the plan travels as its canonical payload *text* (already the dedupe
key's bytes), and the scheduling context as plain dataclasses, so the
runner's :func:`~repro.store.point_key_payload` keying memoizes scores
in the content-addressed artifact store — a warm re-search schedules
zero cold candidates.  :func:`evaluate_candidate` is module-level,
hence picklable into pool workers.

:func:`schedule_candidate` produces the winner's *full*
:class:`~repro.engine.result.ScheduleResult`, cached under
:data:`~repro.store.KIND_PLAN` through the serialization round-trip.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.core.cluster import ClusterSpec
from repro.core.granularity import CommunicationModel
from repro.core.resource_model import OverlapModel
from repro.core.tree_schedule import tree_schedule
from repro.cost.annotate import annotate_plan
from repro.cost.params import SystemParameters
from repro.engine.result import ScheduleResult
from repro.exceptions import ConfigurationError
from repro.obs.names import SPAN_PLAN_SCORE
from repro.obs.tracer import current_tracer
from repro.plans.join_tree import PlanNode
from repro.plans.operator_tree import expand_plan
from repro.plans.task_tree import build_task_tree
from repro.search.canonical import plan_from_payload, plan_payload
from repro.store import KIND_PLAN, ArtifactStore, canonical_json

__all__ = [
    "CandidatePoint",
    "evaluate_candidate",
    "schedule_candidate",
    "max_site_load",
]


@dataclass(frozen=True)
class CandidatePoint:
    """One candidate plan × scheduling context, runner/store-ready.

    ``plan_json`` is the canonical JSON text of the plan payload
    (:func:`~repro.search.canonical.plan_payload` through
    :func:`~repro.store.canonical_json`), so the point is a frozen
    dataclass of plain JSON-able fields — exactly what
    :func:`~repro.store.point_key_payload` needs to key it.
    """

    plan_json: str
    p: int
    f: float
    shelf: str
    params: SystemParameters
    comm: CommunicationModel
    overlap: OverlapModel
    #: ``None`` for homogeneous searches (uniform specs are normalized
    #: away upstream so their scores share cache entries).
    cluster: ClusterSpec | None = None


def candidate_point(
    plan: PlanNode,
    *,
    p: int,
    f: float,
    shelf: str,
    params: SystemParameters,
    comm: CommunicationModel,
    overlap: OverlapModel,
    cluster: ClusterSpec | None = None,
) -> CandidatePoint:
    """Build the sweep point for one candidate plan."""
    return CandidatePoint(
        plan_json=canonical_json(plan_payload(plan)),
        p=p,
        f=f,
        shelf=shelf,
        params=params,
        comm=comm,
        overlap=overlap,
        cluster=cluster,
    )


def max_site_load(result: ScheduleResult) -> float:
    """The hottest site's accumulated load length across all phases.

    Sums each site's per-shelf load vectors componentwise over the whole
    phased schedule and returns the maximum component of the largest
    accumulated vector — the resource-footprint objective of the
    many-objective mode.  ``0.0`` for bound-only results.
    """
    accumulated: dict[int, list[float]] = {}
    for shelf in result.timelines:
        for site in shelf.sites:
            acc = accumulated.get(site.site_index)
            if acc is None:
                accumulated[site.site_index] = list(site.load)
            else:
                for axis, value in enumerate(site.load):
                    acc[axis] += value
    if not accumulated:
        return 0.0
    return max(max(load) for load in accumulated.values())


def _schedule_point(point: CandidatePoint) -> ScheduleResult:
    plan = plan_from_payload(json.loads(point.plan_json))
    op_tree = expand_plan(plan)
    annotate_plan(op_tree, point.params)
    task_tree = build_task_tree(op_tree)
    return tree_schedule(
        op_tree,
        task_tree,
        p=point.p,
        comm=point.comm,
        overlap=point.overlap,
        f=point.f,
        shelf=point.shelf,
        capacities=(
            point.cluster.capacities_or_none()
            if point.cluster is not None
            else None
        ),
    )


def evaluate_candidate(point: CandidatePoint) -> dict[str, float]:
    """Score one candidate: schedule it and extract the objectives.

    Deterministic, side-effect free, module-level: safe for process
    pools and for content-addressed memoization.  The returned dict is
    plain JSON data (the store persists it verbatim).
    """
    with current_tracer().span(SPAN_PLAN_SCORE, p=point.p, shelf=point.shelf):
        result = _schedule_point(point)
        total = result.total_work()
        return {
            "response_time": result.response_time,
            "num_phases": float(result.num_phases),
            "total_work": total.total() if total is not None else 0.0,
            "max_site_load": max_site_load(result),
        }


def schedule_candidate(
    point: CandidatePoint,
    *,
    store: ArtifactStore | None = None,
) -> tuple[ScheduleResult, bool]:
    """The full schedule of one candidate, store-cached under ``KIND_PLAN``.

    Returns ``(result, from_store)``.  The cache round-trips the result
    through :mod:`repro.serialization`, so a hit reconstructs the same
    phased schedule, timelines and instrumentation a fresh run would
    produce — this is what lets a warm re-search hand back the winner's
    schedule without scheduling a single candidate.
    """
    from repro.serialization import (
        schedule_result_from_dict,
        schedule_result_to_dict,
    )

    key = None
    if store is not None:
        try:
            key = store.key(KIND_PLAN, _plan_store_payload(point))
        except ConfigurationError:
            key = None
        if key is not None:
            cached = store.get(KIND_PLAN, key)
            if isinstance(cached, dict):
                try:
                    return schedule_result_from_dict(cached), True
                except ConfigurationError:
                    pass  # foreign/stale payload: recompute
    result = _schedule_point(point)
    if store is not None and key is not None:
        try:
            store.put(KIND_PLAN, key, schedule_result_to_dict(result))
        except (ConfigurationError, TypeError):
            pass  # unserializable result: skip caching
    return result, False


def _plan_store_payload(point: CandidatePoint) -> dict[str, Any]:
    """Content-key payload of a winner-schedule artifact."""
    payload = {
        "plan": json.loads(point.plan_json),
        "p": point.p,
        "f": point.f,
        "shelf": point.shelf,
        "params": point.params,
        "comm": point.comm,
        "overlap": point.overlap,
    }
    # Emitted only when heterogeneous, so homogeneous keys are unchanged.
    if point.cluster is not None:
        payload["cluster"] = point.cluster
    return payload
