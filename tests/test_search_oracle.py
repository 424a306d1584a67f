"""Differential oracle for the best-first plan search, in both regimes.

:func:`repro.search.search_plans` bounds every plan from subplan
summaries and builds, keys and scores plans only in ``(bound, key)``
order until the next bound exceeds the incumbent.  The references below
take the eager path on plan trees instead: build every canonical plan,
key and dedupe all of them by :func:`plan_key`, bound all of them with
:func:`candidate_lower_bounds`, sort by ``(bound, key)``, then score in
fixed chunks, re-filtering the whole list against the incumbent before
each chunk.  The exhaustive reference takes its plans from
:func:`enumerate_exhaustive_plans`; the local-search reference makes
them with the tree moves below (a greedy start, random contractions and
subtree-reshaping mutations, each a plan tree built join by join), the
search's moves before they ran on structure keys.  Both must return the
same winner, the same full ranking (every objective compared by
``float.hex``), the same plan trees, the same :class:`PlanSearchStats`
and the same Pareto frontier; the moves must make the same plans from
the same generator state and leave it in the same state.  No numpy
required.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro import Catalog, QueryGraph, Relation
from repro.core.cluster import ClusterSpec, SiteClass
from repro.core.resource_model import ConvexCombinationOverlap
from repro.cost.params import PAPER_PARAMETERS
from repro.plans.join_tree import (
    BaseRelationNode,
    JoinMethod,
    JoinNode,
    PlanNode,
    contract_join_edge,
    join_adjacency,
    sorted_join_edges,
)
from repro.plans.query_graph import prufer_tree_edges
from repro.search import (
    PlanSearchStats,
    ScoredPlan,
    canonical_plan,
    candidate_lower_bounds,
    candidate_point,
    count_exhaustive_plans,
    enumerate_exhaustive_plans,
    epsilon_pareto_front,
    evaluate_candidate,
    greedy_plan,
    mutate_plan,
    plan_key,
    random_plan,
    search_plans,
)
from repro.search.enumerator import KeyMoves, exhaustive_candidates
from repro.search.screen import ScreenContext, StructureKeys
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


class EagerScorer:
    """The eager score rounds both references share, incumbent included."""

    def __init__(self, *, p, cluster, chunk_size, prune):
        self.p = p
        self.cluster = cluster
        self.chunk_size = chunk_size
        self.prune = prune
        self.ctx = screen_context(p, cluster)
        self.incumbent = None
        self.pruned = 0
        self.scored: dict[str, ScoredPlan] = {}

    def round(self, fresh: list[tuple[str, PlanNode]]) -> None:
        """Bound, sort by ``(bound, key)`` and score ``(key, plan)`` pairs."""
        if self.prune:
            bounds = candidate_lower_bounds([plan for _, plan in fresh], self.ctx)
            order = sorted(
                ((lb, key, plan) for (key, plan), lb in zip(fresh, bounds)),
                key=lambda item: (item[0], item[1]),
            )
        else:
            order = [(0.0, key, plan) for key, plan in sorted(fresh)]
        while order:
            if self.prune and self.incumbent is not None:
                survivors = [item for item in order if item[0] <= self.incumbent]
                self.pruned += len(order) - len(survivors)
                order = survivors
            chunk, order = order[: self.chunk_size], order[self.chunk_size :]
            if not chunk:
                break
            for _, key, plan in chunk:
                value = evaluate_candidate(
                    candidate_point(
                        plan, p=self.p, f=0.7, shelf="min", params=PARAMS,
                        comm=COMM, overlap=OVERLAP, cluster=self.cluster,
                    )
                )
                self.scored[key] = ScoredPlan(
                    key=key,
                    plan=plan,
                    response_time=float(value["response_time"]),
                    num_phases=int(value["num_phases"]),
                    total_work=float(value["total_work"]),
                    max_site_load=float(value["max_site_load"]),
                )
            best = min(sp.response_time for sp in self.scored.values())
            self.incumbent = best if self.incumbent is None else min(self.incumbent, best)

    def ranking(self) -> tuple[ScoredPlan, ...]:
        return tuple(
            sorted(self.scored.values(), key=lambda sp: (sp.response_time, sp.key))
        )

    def result(self, *, pareto, pareto_eps, enumerated, unique, exhaustive) -> Reference:
        ranking = self.ranking()
        frontier: tuple[ScoredPlan, ...] = ()
        if pareto:
            front = epsilon_pareto_front(
                [(sp.key, sp.objectives) for sp in self.scored.values()], pareto_eps
            )
            frontier = tuple(self.scored[key] for key in front)
        stats = PlanSearchStats(
            enumerated=enumerated,
            unique=unique,
            pruned=self.pruned,
            scored=len(self.scored),
            store_hits=0,
            store_misses=0,
            exhaustive=exhaustive,
        )
        return Reference(ranking[0], ranking, frontier, stats)


def dedupe(plans: list[PlanNode], seen: set[str]) -> list[tuple[str, PlanNode]]:
    """First occurrence per :func:`plan_key`, input order preserved."""
    fresh = []
    for plan in plans:
        key = plan_key(plan)
        if key not in seen:
            seen.add(key)
            fresh.append((key, plan))
    return fresh


def reference_search(
    graph, catalog, *, p, cluster=None, chunk_size=16, prune=True,
    pareto=False, pareto_eps=0.05,
) -> Reference:
    """The eager exhaustive search, as ``search_plans`` ran it before."""
    prune = prune and not pareto
    scorer = EagerScorer(p=p, cluster=cluster, chunk_size=chunk_size, prune=prune)
    plans = enumerate_exhaustive_plans(graph, catalog, limit=MAX_EXHAUSTIVE)
    seen: set[str] = set()
    fresh = dedupe(plans, seen)
    scorer.round(fresh)
    return scorer.result(
        pareto=pareto, pareto_eps=pareto_eps, enumerated=len(plans),
        unique=len(fresh), exhaustive=True,
    )


# ----------------------------------------------------------------------
# The local-search reference: the moves on plan trees.
# ----------------------------------------------------------------------
def tree_join(left: PlanNode, right: PlanNode, join_id: str) -> JoinNode:
    """Smaller side builds; on a tie ``left`` (the first endpoint's) builds."""
    if left.output_tuples <= right.output_tuples:
        build, probe = left, right
    else:
        build, probe = right, left
    return JoinNode(join_id, build, probe)


def tree_contract(names, edges, catalog, pick) -> PlanNode:
    """Contract sorted canonical edges, ``pick`` choosing each, into a tree."""
    fragments = {name: BaseRelationNode(catalog.get(name)) for name in names}
    contracted = join_adjacency(names, edges)
    counter = 0
    while candidates := sorted_join_edges(contracted):
        u, v = pick(candidates, fragments)
        join = tree_join(fragments[u], fragments[v], f"X{counter}")
        counter += 1
        contract_join_edge(contracted, u, v)
        fragments[u] = join
        del fragments[v]
    roots = [fragments[name] for name in sorted(fragments)]
    assert len(roots) == 1
    return roots[0]


def random_pick(rng):
    return lambda candidates, fragments: candidates[rng.randrange(len(candidates))]


def tree_greedy(graph, catalog) -> PlanNode:
    def pick(candidates, fragments):
        return min(
            candidates,
            key=lambda e: (
                max(fragments[e[0]].output_tuples, fragments[e[1]].output_tuples), e,
            ),
        )

    plan = tree_contract(sorted(graph.relations), sorted(graph.joins), catalog, pick)
    return canonical_plan(plan)


def tree_random(graph, catalog, rng) -> PlanNode:
    plan = tree_contract(
        sorted(graph.relations), sorted(graph.joins), catalog, random_pick(rng)
    )
    return canonical_plan(plan)


def tree_mutate(plan, graph, catalog, rng) -> PlanNode:
    """Re-shape the subtree of a random post-order join; ancestors kept."""
    joins = plan.joins()
    if not joins:
        return canonical_plan(plan)
    target = joins[rng.randrange(len(joins))]
    names = sorted(leaf.relation.name for leaf in target.leaves())
    member = set(names)
    induced = [(a, b) for a, b in sorted(graph.joins) if a in member and b in member]
    replacement = tree_contract(names, induced, catalog, random_pick(rng))

    def rebuild(node):
        if node is target:
            return replacement
        if isinstance(node, BaseRelationNode):
            return node
        return JoinNode(
            node.join_id + "_",
            rebuild(node.build_side),
            rebuild(node.probe_side),
            method=node.method,
            materialize_output=node.materialize_output,
        )

    return canonical_plan(rebuild(plan))


def reference_local_search(
    graph, catalog, *, p, seed, cluster=None, chunk_size=16, prune=True,
    pareto=False, pareto_eps=0.05, init_samples=16, beam_width=6,
    generations=3, mutations_per_parent=4,
) -> Reference:
    """The local search on plan trees, eagerly bounded and keyed."""
    prune = prune and not pareto
    scorer = EagerScorer(p=p, cluster=cluster, chunk_size=chunk_size, prune=prune)
    rng = random.Random(seed)
    seen: set[str] = set()
    initial = [tree_greedy(graph, catalog)]
    initial += [tree_random(graph, catalog, rng) for _ in range(init_samples)]
    enumerated = len(initial)
    scorer.round(dedupe(initial, seen))
    for _ in range(generations):
        parents = scorer.ranking()[:beam_width]
        children = [
            tree_mutate(parent.plan, graph, catalog, rng)
            for parent in parents
            for _ in range(mutations_per_parent)
        ]
        enumerated += len(children)
        fresh = dedupe(children, seen)
        if not fresh:
            break
        scorer.round(fresh)
    return scorer.result(
        pareto=pareto, pareto_eps=pareto_eps, enumerated=enumerated,
        unique=len(seen), exhaustive=False,
    )


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


# ----------------------------------------------------------------------
# The local-search regime
# ----------------------------------------------------------------------
@st.composite
def local_queries(draw):
    """A Prüfer-random tree of 9-12 relations: every one is beyond the cap."""
    n = draw(st.integers(min_value=9, max_value=12))
    prufer = draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n - 2, max_size=n - 2)
    )
    if draw(st.booleans()):
        cards = [draw(st.sampled_from([1_000, 20_000]))] * n
    else:
        card = st.one_of(
            st.integers(min_value=1, max_value=250_000), st.sampled_from([1_000, 20_000])
        )
        cards = draw(st.lists(card, min_size=n, max_size=n))
    return tree_query(cards, prufer_tree_edges(prufer))


#: perfbench's unjittered 10-relation chain.
LONG_CHAIN = chain_query(
    [180_000, 3_500, 64_000, 900, 41_000, 7_200, 150_000, 2_100, 26_000, 5_400]
)
seeds = st.one_of(st.sampled_from([0, 5, 42]), st.integers(min_value=0, max_value=2**31))
local_chunks = st.sampled_from([1, 3, 8])


def decorate(plan: PlanNode, rng: random.Random) -> PlanNode:
    """``plan`` with random join methods and materialization flags."""
    if isinstance(plan, BaseRelationNode):
        return plan
    return JoinNode(
        plan.join_id,
        decorate(plan.build_side, rng),
        decorate(plan.probe_side, rng),
        method=rng.choice([JoinMethod.HASH, JoinMethod.SORT_MERGE]),
        materialize_output=rng.random() < 0.3,
    )


@settings(max_examples=25, deadline=None)
@given(query=local_queries(), seed=seeds, screen=st.booleans())
@example(query=LONG_CHAIN, seed=0, screen=True)
@example(query=chain_query([1_000] * 10), seed=3, screen=False)
def test_key_moves_make_the_tree_moves_plans(query, seed, screen):
    """Same generator state in, same plans out and the same state left."""
    graph, catalog = query
    keys = screen_context(16, None) if screen else StructureKeys()
    moves = KeyMoves(graph, catalog, keys)
    assert plan_key(keys.plan(moves.greedy())) == plan_key(tree_greedy(graph, catalog))
    key_rng, tree_rng = random.Random(seed), random.Random(seed)
    for _ in range(3):
        root = moves.random(key_rng)
        tree = tree_random(graph, catalog, tree_rng)
        assert plan_key(keys.plan(root)) == plan_key(tree)
        assert key_rng.getstate() == tree_rng.getstate()
        for _ in range(4):
            root = moves.mutate(root, key_rng)
            tree = tree_mutate(tree, graph, catalog, tree_rng)
            assert plan_key(keys.plan(root)) == plan_key(tree)
            assert key_rng.getstate() == tree_rng.getstate()


@settings(max_examples=15, deadline=None)
@given(query=local_queries(), seed=seeds)
@example(query=chain_query([1_000] * 10), seed=11)
def test_tree_functions_are_views_of_the_key_moves(query, seed):
    """``greedy_plan``/``random_plan``/``mutate_plan`` build the same trees.

    Mutation keeps every ancestor's join method and materialization
    flag, so it is checked on decorated plans as well.
    """
    graph, catalog = query
    assert greedy_plan(graph, catalog).pretty() == tree_greedy(graph, catalog).pretty()
    view_rng, tree_rng = random.Random(seed), random.Random(seed)
    plan = random_plan(graph, catalog, view_rng)
    assert plan.pretty() == tree_random(graph, catalog, tree_rng).pretty()
    plan = decorate(plan, random.Random(seed + 1))
    for _ in range(4):
        mutated = mutate_plan(plan, graph, catalog, view_rng)
        expected = tree_mutate(plan, graph, catalog, tree_rng)
        assert (mutated.pretty(), plan_key(mutated)) == (
            expected.pretty(), plan_key(expected),
        )
        assert view_rng.getstate() == tree_rng.getstate()
        plan = mutated


@settings(max_examples=12, deadline=None)
@given(query=local_queries(), sites=sites(), seed=seeds, chunk_size=local_chunks)
@example(query=LONG_CHAIN, sites=(16, None), seed=0, chunk_size=8)
@example(query=chain_query([1_000] * 10), sites=(16, None), seed=5, chunk_size=3)
def test_local_search_matches_the_tree_reference(query, sites, seed, chunk_size):
    graph, catalog = query
    p, cluster = sites
    result = search_plans(
        graph, catalog, p=p, cluster=cluster, seed=seed, chunk_size=chunk_size,
        store=NO_STORE,
    )
    assert not result.stats.exhaustive
    expected = reference_local_search(
        graph, catalog, p=p, cluster=cluster, seed=seed, chunk_size=chunk_size
    )
    assert fingerprint(result) == fingerprint(expected)


two_class = ClusterSpec((SiteClass("fast", 2, 2.0), SiteClass("slow", 6, 0.5)))


@settings(max_examples=6, deadline=None)
@given(
    query=local_queries(),
    seed=seeds,
    chunk_size=local_chunks,
    mode=st.sampled_from(["unpruned", "pareto-0", "pareto-0.05"]),
    cluster=st.sampled_from([None, two_class]),
)
@example(
    query=chain_query([1_000] * 9), seed=1, chunk_size=3, mode="pareto-0",
    cluster=None,
)
def test_unpruned_and_pareto_local_search_match_the_tree_reference(
    query, seed, chunk_size, mode, cluster
):
    graph, catalog = query
    p = 16 if cluster is None else cluster.p
    kw = (
        {"prune": False}
        if mode == "unpruned"
        else {"pareto": True, "pareto_eps": float(mode.split("-")[1])}
    )
    result = search_plans(
        graph, catalog, p=p, cluster=cluster, seed=seed, chunk_size=chunk_size,
        store=NO_STORE, **kw,
    )
    expected = reference_local_search(
        graph, catalog, p=p, cluster=cluster, seed=seed, chunk_size=chunk_size, **kw
    )
    assert fingerprint(result) == fingerprint(expected)


def test_two_workers_local_search_matches_the_tree_reference():
    graph, catalog = LONG_CHAIN
    result = search_plans(
        graph, catalog, p=16, seed=42, chunk_size=3, workers=2, store=NO_STORE
    )
    expected = reference_local_search(graph, catalog, p=16, seed=42, chunk_size=3)
    assert fingerprint(result) == fingerprint(expected)
    assert result.stats.pruned > 0
