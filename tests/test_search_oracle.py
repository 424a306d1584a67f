"""Differential oracle for the best-first exhaustive plan search.

:func:`repro.search.search_plans` bounds every plan of the exhaustive DP
from subplan summaries and builds, keys and scores plans only in
``(bound, key)`` order until the next bound exceeds the incumbent.  The
reference below takes the eager path instead: build every canonical
plan, key and dedupe all of them, bound all of them with
:func:`candidate_lower_bounds`, sort by ``(bound, key)``, then score in
fixed chunks, re-filtering the whole list against the incumbent before
each chunk.  Both must return the same winner, the same full ranking
(every objective compared by ``float.hex``), the same plan trees, the
same :class:`PlanSearchStats` and the same Pareto frontier.  No numpy
required.
"""

from __future__ import annotations

from typing import NamedTuple

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro import Catalog, QueryGraph, Relation
from repro.core.cluster import ClusterSpec, SiteClass
from repro.core.resource_model import ConvexCombinationOverlap
from repro.cost.params import PAPER_PARAMETERS
from repro.plans.query_graph import prufer_tree_edges
from repro.search import (
    PlanSearchStats,
    ScoredPlan,
    candidate_lower_bounds,
    candidate_point,
    count_exhaustive_plans,
    enumerate_exhaustive_plans,
    epsilon_pareto_front,
    evaluate_candidate,
    plan_key,
    search_plans,
)
from repro.search.enumerator import exhaustive_candidates
from repro.search.screen import ScreenContext
from repro.store import NO_STORE

PARAMS = PAPER_PARAMETERS
COMM = PARAMS.communication_model()
OVERLAP = ConvexCombinationOverlap(0.5)
MAX_EXHAUSTIVE = 512


def screen_context(p: int, cluster: ClusterSpec | None) -> ScreenContext:
    return ScreenContext(
        p=p,
        params=PARAMS,
        comm=COMM,
        overlap=OVERLAP,
        capacities=None if cluster is None else cluster.capacities(),
    )


# ----------------------------------------------------------------------
# The reference: enumerate -> dedupe -> screen -> sort -> chunked score.
# ----------------------------------------------------------------------
class Reference(NamedTuple):
    winner: ScoredPlan
    candidates: tuple[ScoredPlan, ...]
    frontier: tuple[ScoredPlan, ...]
    stats: PlanSearchStats


def reference_search(
    graph, catalog, *, p, cluster=None, chunk_size=16, prune=True,
    pareto=False, pareto_eps=0.05,
) -> Reference:
    """The eager exhaustive search, as ``search_plans`` ran it before."""
    prune = prune and not pareto
    ctx = screen_context(p, cluster)
    plans = enumerate_exhaustive_plans(graph, catalog, limit=MAX_EXHAUSTIVE)
    seen: set[str] = set()
    fresh = []
    for plan in plans:
        key = plan_key(plan)
        if key not in seen:
            seen.add(key)
            fresh.append((key, plan))
    if prune:
        bounds = candidate_lower_bounds([plan for _, plan in fresh], ctx)
        order = sorted(
            ((lb, key, plan) for (key, plan), lb in zip(fresh, bounds)),
            key=lambda item: (item[0], item[1]),
        )
    else:
        order = [(0.0, key, plan) for key, plan in sorted(fresh)]
    incumbent = None
    pruned = 0
    scored: dict[str, ScoredPlan] = {}
    while order:
        if prune and incumbent is not None:
            survivors = [item for item in order if item[0] <= incumbent]
            pruned += len(order) - len(survivors)
            order = survivors
        chunk, order = order[:chunk_size], order[chunk_size:]
        if not chunk:
            break
        for _, key, plan in chunk:
            value = evaluate_candidate(
                candidate_point(
                    plan, p=p, f=0.7, shelf="min", params=PARAMS, comm=COMM,
                    overlap=OVERLAP, cluster=cluster,
                )
            )
            scored[key] = ScoredPlan(
                key=key,
                plan=plan,
                response_time=float(value["response_time"]),
                num_phases=int(value["num_phases"]),
                total_work=float(value["total_work"]),
                max_site_load=float(value["max_site_load"]),
            )
        best = min(sp.response_time for sp in scored.values())
        incumbent = best if incumbent is None else min(incumbent, best)
    ranking = tuple(sorted(scored.values(), key=lambda sp: (sp.response_time, sp.key)))
    frontier: tuple[ScoredPlan, ...] = ()
    if pareto:
        front = epsilon_pareto_front(
            [(sp.key, sp.objectives) for sp in scored.values()], pareto_eps
        )
        frontier = tuple(scored[key] for key in front)
    stats = PlanSearchStats(
        enumerated=len(plans),
        unique=len(fresh),
        pruned=pruned,
        scored=len(scored),
        store_hits=0,
        store_misses=0,
        exhaustive=True,
    )
    return Reference(ranking[0], ranking, frontier, stats)


def fingerprint(result):
    """Everything both searches must agree on, floats as ``float.hex``."""

    def row(sp: ScoredPlan):
        return (
            sp.key,
            sp.plan.pretty(),
            sp.response_time.hex(),
            sp.num_phases,
            sp.total_work.hex(),
            sp.max_site_load.hex(),
        )

    return (
        row(result.winner),
        [row(sp) for sp in result.candidates],
        [sp.key for sp in result.frontier],
        result.stats,
    )


# ----------------------------------------------------------------------
# Random inputs
# ----------------------------------------------------------------------
@st.composite
def tree_queries(draw, max_relations: int = 8, max_equal: int = 6):
    """A Prüfer-random tree, chain or star; skewed or equal cardinalities.

    Equal cardinalities weaken the bounds enough that a search can score
    half of a large space, so those queries stop at ``max_equal``
    relations.
    """
    equal = draw(st.booleans())
    most = min(max_relations, max_equal) if equal else max_relations
    n = draw(st.integers(min_value=1, max_value=most))
    names = [f"R{i}" for i in range(n)]
    shape = draw(st.sampled_from(["prufer", "chain", "star"]))
    if shape == "chain" or n <= 2:
        joins = [(names[i], names[i + 1]) for i in range(n - 1)]
    elif shape == "star":
        joins = [(names[0], names[i]) for i in range(1, n)]
    else:
        prufer = draw(
            st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n - 2, max_size=n - 2)
        )
        joins = [(names[a], names[b]) for a, b in prufer_tree_edges(prufer)]
    if equal:
        # Equal cardinalities: mirror-image plans get bit-equal bounds, so
        # the ranking must break ties by plan key.
        cards = [draw(st.sampled_from([1_000, 20_000]))] * n
    else:
        card = st.one_of(
            st.integers(min_value=1, max_value=250_000), st.sampled_from([1_000, 20_000])
        )
        cards = draw(st.lists(card, min_size=n, max_size=n))
    catalog = Catalog([Relation(name, tuples) for name, tuples in zip(names, cards)])
    return QueryGraph(names, joins), catalog


@st.composite
def sites(draw):
    """``(p, None)`` for p in {1, 2, 16, 64}, or a heterogeneous cluster."""
    if draw(st.booleans()):
        return draw(st.sampled_from([1, 2, 16, 64])), None
    spec = ClusterSpec(
        (
            SiteClass("fast", draw(st.integers(min_value=1, max_value=4)),
                      draw(st.sampled_from([1.5, 2.0, 3.0]))),
            SiteClass("slow", draw(st.integers(min_value=1, max_value=12)),
                      draw(st.sampled_from([0.25, 0.5]))),
        )
    )
    return spec.p, spec


chunks = st.sampled_from([1, 3, 8, 16])


def tree_query(cards: list[int], edges: list[tuple[int, int]]):
    names = [f"R{i}" for i in range(len(cards))]
    catalog = Catalog([Relation(name, tuples) for name, tuples in zip(names, cards)])
    return QueryGraph(names, [(names[a], names[b]) for a, b in edges]), catalog


def chain_query(cards: list[int]):
    return tree_query(cards, [(i, i + 1) for i in range(len(cards) - 1)])


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(query=tree_queries(max_equal=8))
@example(query=chain_query([1_000] * 8))
def test_exhaustive_dp_never_yields_a_structure_twice(query):
    """The invariant the search's ``unique`` count and lazy keying rely on."""
    graph, catalog = query
    limit = 10_000  # above every tree of <= 8 relations (a star: 7! plans)
    plans = enumerate_exhaustive_plans(graph, catalog, limit=limit)
    keys = {plan_key(plan) for plan in plans}
    assert len(plans) == len(keys) == count_exhaustive_plans(graph, limit=limit)
    ctx = screen_context(4, None)
    roots = exhaustive_candidates(graph, catalog, ctx, limit=limit)
    assert len(set(roots)) == len(roots) == len(plans)
    # The same DP, unbuilt: each structure key builds the canonical plan
    # enumerated in its place.
    assert [ctx.plan(root).pretty() for root in roots] == [
        plan.pretty() for plan in plans
    ]


@settings(max_examples=20, deadline=None)
@given(query=tree_queries(), sites=sites(), chunk_size=chunks)
@example(query=chain_query([5_000]), sites=(4, None), chunk_size=16)
@example(query=chain_query([5_000, 200]), sites=(2, None), chunk_size=1)
@example(query=chain_query([1_000] * 8), sites=(16, None), chunk_size=3)
# A chunk scores part of a run of tied bounds and the incumbent then
# prunes the rest: which part depends on the order within the run.
@example(query=chain_query([20_000, 20_000, 5_000, 1_000]), sites=(1, None), chunk_size=3)
@example(
    query=tree_query([1_000, 20_000, 20_000, 1_000], [(0, 1), (0, 2), (0, 3)]),
    sites=(1, None),
    chunk_size=3,
)
# A later bound equals the incumbent exactly; it is scored, not pruned.
@example(
    query=tree_query([20_000, 20_000, 5_000, 20_000], [(0, 1), (0, 2), (2, 3)]),
    sites=(1, None),
    chunk_size=1,
)
def test_pruned_search_matches_the_eager_reference(query, sites, chunk_size):
    graph, catalog = query
    assume(count_exhaustive_plans(graph, limit=MAX_EXHAUSTIVE) <= MAX_EXHAUSTIVE)
    p, cluster = sites
    result = search_plans(
        graph, catalog, p=p, cluster=cluster, chunk_size=chunk_size, store=NO_STORE
    )
    expected = reference_search(
        graph, catalog, p=p, cluster=cluster, chunk_size=chunk_size
    )
    assert fingerprint(result) == fingerprint(expected)


@settings(max_examples=15, deadline=None)
@given(
    query=tree_queries(max_relations=5),
    sites=sites(),
    chunk_size=chunks,
    pareto=st.booleans(),
    pareto_eps=st.sampled_from([0.0, 0.05]),
)
@example(
    query=chain_query([1_000] * 5), sites=(2, None), chunk_size=3, pareto=True,
    pareto_eps=0.0,
)
def test_unpruned_and_pareto_search_match_the_eager_reference(
    query, sites, chunk_size, pareto, pareto_eps
):
    graph, catalog = query
    p, cluster = sites
    kw = {"pareto": True, "pareto_eps": pareto_eps} if pareto else {"prune": False}
    result = search_plans(
        graph, catalog, p=p, cluster=cluster, chunk_size=chunk_size,
        store=NO_STORE, **kw,
    )
    expected = reference_search(
        graph, catalog, p=p, cluster=cluster, chunk_size=chunk_size, **kw
    )
    assert fingerprint(result) == fingerprint(expected)


def test_two_workers_match_the_eager_reference():
    graph, catalog = chain_query([1_000, 1_000, 40_000, 1_000, 1_000, 7_000])
    result = search_plans(
        graph, catalog, p=8, chunk_size=3, workers=2, store=NO_STORE
    )
    expected = reference_search(graph, catalog, p=8, chunk_size=3)
    assert fingerprint(result) == fingerprint(expected)
    assert result.stats.pruned > 0
