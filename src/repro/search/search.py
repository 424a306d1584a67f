"""Schedule-aware plan search: TREESCHEDULE as the optimizer cost model.

:func:`search_plans` replaces blind plan sampling with a deterministic
search whose scoring function is the scheduled response time:

1. **Enumerate** (``plan_enumerate`` span).  Small plan spaces are
   enumerated exhaustively by the connected-subset DP
   (:mod:`repro.search.enumerator`); larger ones run a seeded
   beam-style local search (greedy + random starts, subtree-reshape
   mutations) driven by :class:`random.Random` — no numpy required.
2. **Dedupe.**  Candidates are collapsed by canonical plan hash
   (:func:`~repro.search.canonical.plan_key`) before anything is
   scheduled.
3. **Screen** (``plan_screen`` span).  Every pending candidate gets a
   valid response-time lower bound from the batched screen
   (:mod:`repro.search.screen` / ``lower_bounds_batch``); candidates
   whose bound exceeds the incumbent's exact score are pruned without
   ever being scheduled.
4. **Score** (``plan_score`` spans).  Survivors are scheduled in
   fixed-size chunks through a
   :class:`~repro.experiments.parallel.ParallelRunner` — bit-identical
   winners at any worker count — with per-candidate objective payloads
   memoized in the content-addressed artifact store, so a repeated
   search schedules zero cold candidates.

Determinism contract: the returned winner, ranking and frontier are
byte-identical for any ``workers`` count and with the store disabled,
cold, or warm.  Chunk boundaries and the incumbent-update sequence are
fixed by candidate order (never by completion order), bounds are exact
functions of plan structure, and a pruned candidate's true score
provably exceeds the incumbent, so pruning can never change the winner.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.core.cloning import DEFAULT_COORDINATOR_POLICY, CoordinatorPolicy
from repro.core.cluster import ClusterSpec
from repro.core.granularity import CommunicationModel
from repro.core.resource_model import ConvexCombinationOverlap, OverlapModel
from repro.cost.params import PAPER_PARAMETERS, SystemParameters
from repro.engine.metrics import MetricsRecorder
from repro.engine.result import ScheduleResult
from repro.exceptions import ConfigurationError
from repro.experiments.parallel import ParallelRunner
from repro.obs.names import (
    COUNTER_PLAN_STORE_HITS,
    COUNTER_PLAN_STORE_MISSES,
    COUNTER_PLANS_DEDUPED,
    COUNTER_PLANS_ENUMERATED,
    COUNTER_PLANS_PRUNED,
    COUNTER_PLANS_SCORED,
    COUNTER_POINT_STORE_HITS,
    COUNTER_POINT_STORE_MISSES,
    SPAN_PLAN_ENUMERATE,
    SPAN_PLAN_SCREEN,
    SPAN_PLAN_SEARCH,
    TIMER_PLAN_SEARCH,
)
from repro.obs.tracer import current_tracer
from repro.plans.join_tree import PlanNode
from repro.plans.query_graph import QueryGraph
from repro.plans.relations import Catalog
from repro.search.canonical import plan_key
from repro.search.enumerator import (
    count_exhaustive_plans,
    enumerate_exhaustive_plans,
    greedy_plan,
    mutate_plan,
    random_plan,
)
from repro.search.pareto import epsilon_pareto_front
from repro.search.score import (
    CandidatePoint,
    candidate_point,
    evaluate_candidate,
    schedule_candidate,
)
from repro.search.screen import ScreenContext, candidate_lower_bounds
from repro.store import ArtifactStore, resolve_store

__all__ = [
    "ScoredPlan",
    "PlanSearchStats",
    "PlanSearchResult",
    "search_plans",
]

#: Candidates scheduled per runner round.  A fixed chunk (independent of
#: the worker count) is what pins the incumbent-update sequence — and
#: therefore the prune set — for any ``workers`` value.
DEFAULT_CHUNK_SIZE = 16


@dataclass(frozen=True)
class ScoredPlan:
    """One scored candidate: canonical key, plan, and its objectives."""

    key: str
    plan: PlanNode = field(repr=False)
    response_time: float
    num_phases: int
    total_work: float
    max_site_load: float

    @property
    def objectives(self) -> tuple[float, float, float]:
        """(response time, total work, max per-site load) — all minimized."""
        return (self.response_time, self.total_work, self.max_site_load)


@dataclass(frozen=True)
class PlanSearchStats:
    """Where the candidates went: the search's accounting.

    ``enumerated`` counts every generated candidate (duplicates
    included); ``unique`` the distinct structures after canonical-hash
    dedupe; ``pruned`` the candidates eliminated by the lower-bound
    screen; ``scored`` the exact schedules obtained, of which
    ``store_hits`` came from the artifact store (``store_misses`` were
    scheduled cold — a warm re-search reports zero here).
    """

    enumerated: int
    unique: int
    pruned: int
    scored: int
    store_hits: int
    store_misses: int
    exhaustive: bool

    @property
    def prune_rate(self) -> float:
        """Fraction of unique candidates eliminated without scheduling."""
        return self.pruned / self.unique if self.unique else 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of exact scores served from the store."""
        lookups = self.store_hits + self.store_misses
        return self.store_hits / lookups if lookups else 0.0


@dataclass(frozen=True)
class PlanSearchResult:
    """Outcome of one :func:`search_plans` call.

    ``candidates`` ranks every *scored* plan (best first); pruned
    candidates carry no exact score and do not appear.  ``frontier`` is
    the ε-approximate Pareto frontier in objective-lexicographic order
    (empty unless the many-objective mode ran).
    """

    winner: ScoredPlan
    schedule: ScheduleResult
    candidates: tuple[ScoredPlan, ...]
    frontier: tuple[ScoredPlan, ...]
    stats: PlanSearchStats

    @property
    def best(self) -> ScoredPlan:
        """Alias of :attr:`winner`."""
        return self.winner


def search_plans(
    graph: QueryGraph,
    catalog: Catalog,
    *,
    p: int,
    params: SystemParameters | None = None,
    f: float = 0.7,
    epsilon: float = 0.5,
    shelf: str = "min",
    comm: CommunicationModel | None = None,
    overlap: OverlapModel | None = None,
    policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
    seed: int = 0,
    workers: int = 1,
    store: ArtifactStore | None = None,
    metrics: MetricsRecorder | None = None,
    max_exhaustive: int = 512,
    init_samples: int = 16,
    beam_width: int = 6,
    generations: int = 3,
    mutations_per_parent: int = 4,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    prune: bool = True,
    pareto: bool = False,
    pareto_eps: float = 0.05,
    cluster: ClusterSpec | None = None,
) -> PlanSearchResult:
    """Search the bushy-plan space of one tree query, scheduler-scored.

    Parameters
    ----------
    graph, catalog:
        The query.
    p, params, f, epsilon, shelf:
        Scheduling context; ``comm`` / ``overlap`` default to the models
        derived from ``params`` / ``epsilon`` (pass explicit models to
        override, as :func:`~repro.experiments.plan_selection.select_best_plan`
        does).
    seed:
        Drives the local-search regime's random starts and mutations
        (:class:`random.Random`; ignored by the exhaustive regime).
    workers, store, metrics:
        Parallel-runner fan-out, artifact-store memoization, and
        instrumentation.  None of these changes the returned plans.
    max_exhaustive:
        Largest plan-space size enumerated exhaustively; bigger spaces
        use the seeded local search.
    init_samples, beam_width, generations, mutations_per_parent:
        Local-search shape: random starts beside the greedy seed, then
        ``generations`` rounds keeping the best ``beam_width`` scored
        plans and re-shaping each with ``mutations_per_parent`` moves.
    chunk_size:
        Candidates scheduled per runner round (fixed, so the incumbent /
        prune sequence is worker-count-independent).
    prune:
        Enable the lower-bound screen (single-objective mode only).
    pareto, pareto_eps:
        Many-objective mode: score every unique candidate (pruning off —
        an incumbent screen on response time would discard low-work
        plans) and return the ε-approximate Pareto frontier over
        (response time, total work, max per-site load).
    cluster:
        Optional heterogeneous cluster (``cluster.p`` must equal ``p``).
        Candidates are scored on the capacity-aware TREESCHEDULE and the
        prune screen relaxes its bounds by the total / fastest capacity
        so pruning stays winner-invariant.  Uniform specs normalize to
        ``None`` — homogeneous searches are byte- and cache-identical
        however the site count was spelled.
    """
    if p < 1:
        raise ConfigurationError(f"number of sites must be >= 1, got {p}")
    if chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    if cluster is not None:
        if cluster.p != p:
            raise ConfigurationError(
                f"cluster spec describes {cluster.p} sites but p={p}"
            )
        if cluster.is_uniform():
            cluster = None
    if params is None:
        params = PAPER_PARAMETERS
    if comm is None:
        comm = params.communication_model()
    if overlap is None:
        overlap = ConvexCombinationOverlap(epsilon)
    prune = prune and not pareto

    started = time.perf_counter()
    rec = MetricsRecorder()
    runner_rec = MetricsRecorder()
    runner = ParallelRunner(workers, metrics=runner_rec, store=store)
    resolved_store = resolve_store(store)
    ctx = ScreenContext(
        p=p,
        params=params,
        comm=comm,
        overlap=overlap,
        policy=policy,
        capacities=None if cluster is None else cluster.capacities(),
    )
    rng = random.Random(seed)

    scored: dict[str, ScoredPlan] = {}
    seen: set[str] = set()
    state = {"incumbent": None, "pruned": 0, "enumerated": 0}

    def point_of(plan: PlanNode) -> CandidatePoint:
        return candidate_point(
            plan, p=p, f=f, shelf=shelf, params=params, comm=comm,
            overlap=overlap, cluster=cluster,
        )

    def dedupe(plans: list[PlanNode]) -> list[tuple[str, PlanNode]]:
        """First occurrence per canonical key, input order preserved."""
        state["enumerated"] += len(plans)
        fresh: list[tuple[str, PlanNode]] = []
        for plan in plans:
            key = plan_key(plan)
            if key in seen:
                continue
            seen.add(key)
            fresh.append((key, plan))
        return fresh

    def score_round(fresh: list[tuple[str, PlanNode]]) -> None:
        """Screen, order, chunk-schedule; updates ``scored``/incumbent."""
        if not fresh:
            return
        if prune:
            with current_tracer().span(SPAN_PLAN_SCREEN, candidates=len(fresh)):
                bounds = candidate_lower_bounds([plan for _, plan in fresh], ctx)
            order = sorted(
                ((lb, key, plan) for (key, plan), lb in zip(fresh, bounds)),
                key=lambda item: (item[0], item[1]),
            )
        else:
            order = [(0.0, key, plan) for key, plan in sorted(fresh)]
        while order:
            if prune and state["incumbent"] is not None:
                survivors = [
                    item for item in order if item[0] <= state["incumbent"]
                ]
                state["pruned"] += len(order) - len(survivors)
                order = survivors
            chunk = order[:chunk_size]
            order = order[chunk_size:]
            if not chunk:
                break
            values = runner.run(
                [point_of(plan) for _, _, plan in chunk],
                evaluate=evaluate_candidate,
            )
            for (_, key, plan), value in zip(chunk, values):
                entry = ScoredPlan(
                    key=key,
                    plan=plan,
                    response_time=float(value["response_time"]),
                    num_phases=int(value["num_phases"]),
                    total_work=float(value["total_work"]),
                    max_site_load=float(value["max_site_load"]),
                )
                scored[key] = entry
                if (
                    state["incumbent"] is None
                    or entry.response_time < state["incumbent"]
                ):
                    state["incumbent"] = entry.response_time

    with current_tracer().span(
        SPAN_PLAN_SEARCH, p=p, f=f, workers=workers, pareto=pareto
    ):
        space = count_exhaustive_plans(graph, limit=max_exhaustive)
        exhaustive = space <= max_exhaustive
        with current_tracer().span(
            SPAN_PLAN_ENUMERATE, exhaustive=exhaustive, space=space
        ):
            if exhaustive:
                initial = enumerate_exhaustive_plans(
                    graph, catalog, limit=max_exhaustive
                )
            else:
                initial = [greedy_plan(graph, catalog)]
                initial += [
                    random_plan(graph, catalog, rng) for _ in range(init_samples)
                ]
        score_round(dedupe(initial))

        if not exhaustive:
            for _ in range(generations):
                parents = sorted(
                    scored.values(),
                    key=lambda sp: (sp.response_time, sp.key),
                )[:beam_width]
                children = [
                    mutate_plan(parent.plan, graph, catalog, rng)
                    for parent in parents
                    for _ in range(mutations_per_parent)
                ]
                fresh = dedupe(children)
                if not fresh:
                    break
                score_round(fresh)

        if not scored:
            raise ConfigurationError(
                "plan search scored no candidates (empty plan space?)"
            )
        winner = min(scored.values(), key=lambda sp: (sp.response_time, sp.key))
        schedule, winner_cached = schedule_candidate(
            point_of(winner.plan), store=resolved_store
        )

        frontier: tuple[ScoredPlan, ...] = ()
        if pareto:
            front_keys = epsilon_pareto_front(
                [(sp.key, sp.objectives) for sp in scored.values()],
                pareto_eps,
            )
            frontier = tuple(scored[key] for key in front_keys)

    ranking = tuple(
        sorted(scored.values(), key=lambda sp: (sp.response_time, sp.key))
    )
    store_hits = int(runner_rec.counters.get(COUNTER_POINT_STORE_HITS, 0.0))
    store_misses = int(runner_rec.counters.get(COUNTER_POINT_STORE_MISSES, 0.0))
    if resolved_store is not None:
        if winner_cached:
            store_hits += 1
        else:
            store_misses += 1
    stats = PlanSearchStats(
        enumerated=state["enumerated"],
        unique=len(seen),
        pruned=state["pruned"],
        scored=len(scored),
        store_hits=store_hits,
        store_misses=store_misses,
        exhaustive=exhaustive,
    )

    rec.count(COUNTER_PLANS_ENUMERATED, stats.enumerated)
    rec.count(COUNTER_PLANS_DEDUPED, stats.enumerated - stats.unique)
    rec.count(COUNTER_PLANS_PRUNED, stats.pruned)
    rec.count(COUNTER_PLANS_SCORED, stats.scored)
    if resolved_store is not None:
        rec.count(COUNTER_PLAN_STORE_HITS, stats.store_hits)
        rec.count(COUNTER_PLAN_STORE_MISSES, stats.store_misses)
    rec.timers[TIMER_PLAN_SEARCH] = time.perf_counter() - started
    for name, value in rec.counters.items():
        schedule.instrumentation.counters[name] = (
            schedule.instrumentation.counters.get(name, 0.0) + value
        )
    schedule.instrumentation.timers.update(rec.timers)
    if metrics is not None:
        metrics.merge(rec)

    return PlanSearchResult(
        winner=winner,
        schedule=schedule,
        candidates=ranking,
        frontier=frontier,
        stats=stats,
    )
