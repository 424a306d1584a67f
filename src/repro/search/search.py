"""Schedule-aware plan search: TREESCHEDULE as the optimizer cost model.

:func:`search_plans` replaces blind plan sampling with a deterministic
search whose scoring function is the scheduled response time:

1. **Enumerate** (``plan_enumerate`` span).  Small plan spaces are
   enumerated exhaustively by the connected-subset DP
   (:func:`~repro.search.enumerator.exhaustive_candidates`), which
   interns every shared subplan in the screen's memo and yields each
   plan as its root's structure key, without building a tree.  Larger
   spaces run a seeded beam-style local search (greedy + random
   starts, subtree-reshape mutations) driven by :class:`random.Random`
   — no numpy required — whose plans are collapsed by canonical plan
   hash (:func:`~repro.search.canonical.plan_key`) before anything is
   scheduled.
2. **Screen** (``plan_screen`` span).  Every pending candidate gets a
   valid response-time lower bound from the memoized screen
   (:mod:`repro.search.screen`): an exhaustive candidate from its two
   children's subplan summaries, a local-search plan by
   :func:`~repro.search.screen.candidate_lower_bounds`.
3. **Rank.**  Candidates are taken best-first in ``(bound, key)``
   order.  Sorting by bound needs no plan; an exhaustive candidate's
   canonical tree is built, and its ``plan_key`` computed, only when
   the scan reaches its bound (a run of equal bounds is keyed whole, so
   ties break by key).  Once the next bound exceeds the incumbent's
   exact score, every remaining candidate is pruned unbuilt.  Without
   pruning (``prune=False`` or the Pareto mode) every bound is taken as
   0, so all candidates form one run: each is built, keyed and scored,
   in key order.
4. **Score** (``plan_score`` spans).  Ranked candidates are scheduled in
   fixed-size chunks through a
   :class:`~repro.experiments.parallel.ParallelRunner` — bit-identical
   winners at any worker count — with per-candidate objective payloads
   memoized in the content-addressed artifact store, so a repeated
   search schedules zero cold candidates.  Candidates share most of
   their operators, so for the duration of the search operator costs
   (:func:`~repro.cost.annotate.use_operator_cost_memo`) and degrees
   (:func:`~repro.core.cloning.use_degree_memo`) are memoized by
   content: a scored plan costs little more than its packing.  The
   schedule of the best candidate scored inline is kept
   (:func:`~repro.search.score.use_schedule_sink`) and becomes the
   winner's, so the winner is not scheduled twice; a winner scored in a
   pool worker or served by the point store is scheduled (or read from
   the plan store) once more by
   :func:`~repro.search.score.schedule_candidate`.

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
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from operator import itemgetter

from repro.core.cloning import (
    DEFAULT_COORDINATOR_POLICY,
    CoordinatorPolicy,
    use_degree_memo,
)
from repro.core.cluster import ClusterSpec
from repro.core.granularity import CommunicationModel
from repro.core.resource_model import ConvexCombinationOverlap, OverlapModel
from repro.cost.annotate import use_operator_cost_memo
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
    exhaustive_candidates,
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
    use_schedule_sink,
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
    dedupe (the exhaustive DP yields no duplicates, so both are its plan
    count); ``pruned`` the candidates eliminated by the lower-bound
    screen (exhaustive ones are never built); ``scored`` the exact
    schedules obtained, of which ``store_hits`` came from the artifact
    store (``store_misses`` were scheduled cold — a warm re-search
    reports zero here).
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


class _Ranking:
    """Candidates in ``(lower bound, plan key)`` order, built on demand.

    Sorting by bound needs no plan.  Only when :meth:`pop` reaches a run
    of equal bounds does ``build`` turn each of its candidates into
    ``(key, plan)``, and the run is sorted by key.  The pop order is
    therefore exactly a sort by ``(bound, key)``, while candidates that
    are never popped are never built.
    """

    def __init__(
        self,
        bounds: Sequence[float],
        candidates: Sequence,
        build: Callable[..., tuple[str, PlanNode]],
    ) -> None:
        self._pending = sorted(zip(bounds, candidates), key=itemgetter(0))
        self._next = 0
        self._ready: deque[tuple[float, str, PlanNode]] = deque()
        self._build = build

    def __len__(self) -> int:
        return len(self._ready) + len(self._pending) - self._next

    def peek(self) -> float:
        """The bound of the next candidate."""
        if self._ready:
            return self._ready[0][0]
        return self._pending[self._next][0]

    def pop(self) -> tuple[float, str, PlanNode]:
        """The next ``(bound, key, plan)``."""
        if not self._ready:
            start = end = self._next
            bound = self._pending[start][0]
            while end < len(self._pending) and self._pending[end][0] == bound:
                end += 1
            run = [
                (bound, *self._build(candidate))
                for _, candidate in self._pending[start:end]
            ]
            run.sort(key=itemgetter(1))
            self._ready.extend(run)
            self._next = end
        return self._ready.popleft()

    def drop(self) -> int:
        """Discard every remaining candidate; returns how many there were."""
        remaining = len(self)
        self._ready.clear()
        self._next = len(self._pending)
        return remaining


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
    for name, value, least in (
        ("chunk_size", chunk_size, 1),
        ("beam_width", beam_width, 1),
        ("max_exhaustive", max_exhaustive, 0),
        ("init_samples", init_samples, 0),
        ("generations", generations, 0),
        ("mutations_per_parent", mutations_per_parent, 0),
    ):
        if value < least:
            raise ConfigurationError(f"{name} must be >= {least}, got {value}")
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
    # "kept" is the ((response time, key), schedule) of the best candidate
    # scored inline: the winner's, unless a store-served candidate won.
    state = {
        "incumbent": None, "pruned": 0, "enumerated": 0,
        "kept": None, "chunk_keys": {},
    }

    def point_of(plan: PlanNode) -> CandidatePoint:
        return candidate_point(
            plan, p=p, f=f, shelf=shelf, params=params, comm=comm,
            overlap=overlap, cluster=cluster, policy=policy,
        )

    def keep(point: CandidatePoint, result: ScheduleResult) -> None:
        """Hold the schedule of the best candidate scored inline so far."""
        key = state["chunk_keys"].get(point.plan_json)
        if key is None:
            return
        rank = (result.response_time, key)
        if state["kept"] is None or rank < state["kept"][0]:
            state["kept"] = (rank, result)

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

    def root_bounds(roots: list[tuple]) -> list[float]:
        return [ctx.bound(root) for root in roots]

    def build_root(root: tuple) -> tuple[str, PlanNode]:
        plan = ctx.plan(root)
        return plan_key(plan), plan

    def keyed_bounds(fresh: list[tuple[str, PlanNode]]) -> list[float]:
        return candidate_lower_bounds([plan for _, plan in fresh], ctx)

    def keyed(item: tuple[str, PlanNode]) -> tuple[str, PlanNode]:
        return item

    def score_round(candidates: list, bounds_of, build) -> None:
        """Screen, rank, chunk-schedule; updates ``scored``/incumbent.

        ``bounds_of(candidates)`` bounds them (pruning only) and
        ``build(candidate)`` gives ``(key, plan)`` (see :class:`_Ranking`).
        The incumbent moves only between chunks.  Once the next bound
        exceeds it, so does every later one: the rest is pruned unbuilt.
        """
        if not candidates:
            return
        if prune:
            with current_tracer().span(SPAN_PLAN_SCREEN, candidates=len(candidates)):
                bounds = bounds_of(candidates)
        else:
            bounds = [0.0] * len(candidates)
        ranking = _Ranking(bounds, candidates, build)
        while ranking:
            incumbent = state["incumbent"]
            chunk: list[tuple[float, str, PlanNode]] = []
            while ranking and len(chunk) < chunk_size:
                if prune and incumbent is not None and ranking.peek() > incumbent:
                    state["pruned"] += ranking.drop()
                    break
                chunk.append(ranking.pop())
            if not chunk:
                break
            points = [point_of(plan) for _, _, plan in chunk]
            state["chunk_keys"] = {
                point.plan_json: key for point, (_, key, _) in zip(points, chunk)
            }
            values = runner.run(points, evaluate=evaluate_candidate)
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

    with (
        current_tracer().span(SPAN_PLAN_SEARCH, p=p, f=f, workers=workers, pareto=pareto),
        use_degree_memo(),
        use_operator_cost_memo(params),
        use_schedule_sink(keep),
        runner.shared_pool(),
    ):
        space = count_exhaustive_plans(graph, limit=max_exhaustive)
        exhaustive = space <= max_exhaustive
        with current_tracer().span(
            SPAN_PLAN_ENUMERATE, exhaustive=exhaustive, space=space
        ):
            if exhaustive:
                roots = exhaustive_candidates(
                    graph, catalog, ctx, limit=max_exhaustive
                )
            else:
                initial = [greedy_plan(graph, catalog)]
                initial += [
                    random_plan(graph, catalog, rng) for _ in range(init_samples)
                ]
        if exhaustive:
            state["enumerated"] = len(roots)
            score_round(roots, root_bounds, build_root)
        else:
            score_round(dedupe(initial), keyed_bounds, keyed)
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
                score_round(fresh, keyed_bounds, keyed)

        if not scored:
            raise ConfigurationError(
                "plan search scored no candidates (empty plan space?)"
            )
        winner = min(scored.values(), key=lambda sp: (sp.response_time, sp.key))
        # The winner's schedule is the one kept while scoring; a winner
        # scored in a pool worker or answered by the point store is
        # scheduled (or read from the plan store) here.
        kept = state["kept"]
        schedule, winner_cached = schedule_candidate(
            point_of(winner.plan),
            store=resolved_store,
            scheduled=kept[1] if kept is not None and kept[0][1] == winner.key else None,
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
        unique=state["enumerated"] if exhaustive else len(seen),
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
