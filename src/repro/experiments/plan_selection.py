"""Scheduling-aware plan selection: the scheduler as an optimizer cost model.

The paper positions parallelization as a phase after conventional plan
selection ("the plan is usually the result of an earlier phase of
conventional centralized query optimization", §1).  But once a fast,
provably near-optimal scheduler exists, it can *itself* serve as the cost
model for choosing among candidate plans — a bushy shape that looks good
under a scalar cost model may parallelize poorly (deep task chains, hot
intermediate results), and vice versa.

:func:`select_best_plan` samples ``k`` random bushy plans for one query
graph and keeps the plan with the smallest scheduled response time,
together with the full ranking.  Since PR 7 it is built on the
:mod:`repro.search` machinery: structurally identical samples are
collapsed by canonical plan hash *before* anything is scheduled (the
historical implementation happily scheduled duplicates), scoring fans
out over :class:`~repro.experiments.parallel.ParallelRunner` workers
with bit-identical rankings at any worker count, and candidate scores
are memoized through the content-addressed artifact store.  For the
search proper — deterministic enumeration, lower-bound pruning, the
ε-Pareto mode — use :func:`repro.search.search_plans`; this entry point
keeps the paper-era sampling semantics for the ``abl-plansel``
benchmark, which quantifies the gap between the best and the median
random plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.core.granularity import CommunicationModel
from repro.core.resource_model import OverlapModel
from repro.core.tree_schedule import TreeScheduleResult
from repro.cost.params import SystemParameters
from repro.engine.metrics import MetricsRecorder
from repro.experiments.parallel import ParallelRunner
from repro.obs.names import (
    COUNTER_PLAN_STORE_HITS,
    COUNTER_PLAN_STORE_MISSES,
    COUNTER_PLANS_DEDUPED,
    COUNTER_PLANS_ENUMERATED,
    COUNTER_PLANS_SCORED,
    COUNTER_POINT_STORE_HITS,
    COUNTER_POINT_STORE_MISSES,
    SPAN_PLAN_SEARCH,
)
from repro.obs.tracer import current_tracer
from repro.plans.join_tree import PlanNode, random_bushy_plan
from repro.plans.query_graph import QueryGraph
from repro.plans.relations import Catalog
from repro.search.canonical import plan_key
from repro.search.score import (
    candidate_point,
    evaluate_candidate,
    schedule_candidate,
)
from repro.store import ArtifactStore, resolve_store

__all__ = ["PlanCandidate", "PlanSelectionResult", "select_best_plan"]


@dataclass(frozen=True)
class PlanCandidate:
    """One sampled plan together with its scheduled response time.

    ``key`` is the canonical structural hash
    (:func:`repro.search.plan_key`) that deduplicated the sample.
    """

    plan: PlanNode
    response_time: float
    num_phases: int
    key: str = ""


@dataclass(frozen=True)
class PlanSelectionResult:
    """Ranking of the distinct sampled candidates (best first).

    Attributes
    ----------
    candidates:
        The structurally distinct sampled plans, sorted by scheduled
        response time.
    sampled:
        How many plans were drawn (``k``); ``len(candidates)`` can be
        smaller because duplicates are collapsed before scheduling.
    """

    candidates: tuple[PlanCandidate, ...]
    sampled: int = 0

    @property
    def best(self) -> PlanCandidate:
        """The winning candidate."""
        return self.candidates[0]

    @property
    def median_response_time(self) -> float:
        """True median of the candidate response times.

        For an odd candidate count this is the middle-ranked time; for
        an even count the mean of the two middle times (the historical
        ``len // 2`` indexing was upper-biased for even ``k``).
        """
        times = [c.response_time for c in self.candidates]
        mid = len(times) // 2
        if len(times) % 2 == 1:
            return times[mid]
        return (times[mid - 1] + times[mid]) / 2.0

    @property
    def selection_gain(self) -> float:
        """Relative improvement of the best over the median candidate."""
        median = self.median_response_time
        if median <= 0:
            return 0.0
        return (median - self.best.response_time) / median


def select_best_plan(
    graph: QueryGraph,
    catalog: Catalog,
    *,
    k: int,
    seed: int,
    p: int,
    params: SystemParameters,
    comm: CommunicationModel,
    overlap: OverlapModel,
    f: float = 0.7,
    workers: int = 1,
    store: ArtifactStore | None = None,
    metrics: MetricsRecorder | None = None,
) -> tuple[PlanSelectionResult, TreeScheduleResult]:
    """Sample ``k`` random bushy plans and keep the best-scheduling one.

    Returns the full ranking (duplicates collapsed) plus the winning
    plan's schedule.  The sampling sequence is unchanged from the
    historical implementation (same seed → same plans); only scheduling
    of structural repeats is skipped, so the winner and every distinct
    response time are identical to the pre-dedupe behaviour.

    Parameters
    ----------
    graph, catalog:
        The query.
    k:
        Number of random bushy plans to sample (``>= 1``).
    seed:
        RNG seed for plan sampling.
    p, params, comm, overlap, f:
        Scheduling context (as for
        :func:`repro.core.tree_schedule.tree_schedule`).
    workers:
        Fan candidate scoring over a process pool (bit-identical
        rankings at any count).
    store:
        Optional artifact store memoizing candidate scores and the
        winner's schedule (``None`` falls back to ``REPRO_CACHE_DIR``;
        :data:`repro.store.NO_STORE` disables caching).
    metrics:
        Optional recorder accumulating the ``plans_enumerated`` /
        ``plans_deduped`` / ``plans_scored`` / ``plan_store_hits``
        counters (also merged into the winner's instrumentation).
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    try:  # numpy is an optional extra; plan sampling needs it
        import numpy as np
    except ImportError:
        raise ConfigurationError(
            "plan sampling needs numpy; install the 'repro[numpy]' extra"
        ) from None
    rng = np.random.default_rng(seed)
    rec = MetricsRecorder()
    runner_rec = MetricsRecorder()
    runner = ParallelRunner(workers, metrics=runner_rec, store=store)
    resolved_store = resolve_store(store)

    with current_tracer().span(SPAN_PLAN_SEARCH, p=p, f=f, k=k, workers=workers):
        unique: list[tuple[str, PlanNode]] = []
        seen: set[str] = set()
        for _ in range(k):
            plan = random_bushy_plan(graph, catalog, rng)
            key = plan_key(plan)
            if key in seen:
                continue
            seen.add(key)
            unique.append((key, plan))

        points = [
            candidate_point(
                plan, p=p, f=f, shelf="min", params=params, comm=comm, overlap=overlap
            )
            for _, plan in unique
        ]
        values = runner.run(points, evaluate=evaluate_candidate)
        scored = [
            (
                PlanCandidate(
                    plan=plan,
                    response_time=float(value["response_time"]),
                    num_phases=int(value["num_phases"]),
                    key=key,
                ),
                point,
            )
            for (key, plan), point, value in zip(unique, points, values)
        ]
        scored.sort(key=lambda item: item[0].response_time)
        result, winner_cached = schedule_candidate(
            scored[0][1], store=resolved_store
        )

    rec.count(COUNTER_PLANS_ENUMERATED, k)
    rec.count(COUNTER_PLANS_DEDUPED, k - len(unique))
    rec.count(COUNTER_PLANS_SCORED, len(unique))
    if resolved_store is not None:
        hits = runner_rec.counters.get(COUNTER_POINT_STORE_HITS, 0.0)
        misses = runner_rec.counters.get(COUNTER_POINT_STORE_MISSES, 0.0)
        rec.count(COUNTER_PLAN_STORE_HITS, hits + (1.0 if winner_cached else 0.0))
        rec.count(COUNTER_PLAN_STORE_MISSES, misses + (0.0 if winner_cached else 1.0))
    for name, value in rec.counters.items():
        result.instrumentation.counters[name] = (
            result.instrumentation.counters.get(name, 0.0) + value
        )
    if metrics is not None:
        metrics.merge(rec)

    ranking = PlanSelectionResult(
        candidates=tuple(candidate for candidate, _ in scored), sampled=k
    )
    return ranking, result
