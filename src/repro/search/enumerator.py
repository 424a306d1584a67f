"""Deterministic bushy-plan enumeration over tree query graphs.

Two regimes, selected by the candidate count:

* **Exhaustive DP** (small graphs).  A bushy plan for a connected vertex
  set ``S`` of a tree query graph is a join of the two components
  obtained by cutting one edge of the subtree induced by ``S`` — cutting
  is the inverse of the edge contraction
  :func:`~repro.plans.join_tree.random_bushy_plan` performs.  The DP
  over connected subsets therefore enumerates *every* bushy shape the
  sampler can reach (under the same smaller-side-builds orientation
  rule), sharing subplans between candidates.  A counting pass
  (:func:`count_exhaustive_plans`) runs first so enumeration is only
  materialized when the space fits under the cap — a chain of ``n``
  relations has Catalan(``n-1``) shapes, so the count grows fast.

* **Seeded local search** (large graphs).  A deterministic greedy start
  (:func:`greedy_plan`: always contract the edge with the smallest
  joined cardinality) plus :func:`random_plan` /
  :func:`mutate_plan` moves driven by a :class:`random.Random` — the
  stdlib generator, so the search runs identically with or without
  numpy and under any ``PYTHONHASHSEED`` (all tie-breaks go through
  sorted edge lists, never set/dict iteration order).

Every public function returns plans in a deterministic order; callers
dedupe by :func:`~repro.search.canonical.plan_key`.
"""

from __future__ import annotations

import random
from collections import deque

from repro.exceptions import PlanStructureError
from repro.plans.join_tree import (
    BaseRelationNode,
    JoinNode,
    PlanNode,
    contract_join_edge,
    join_adjacency,
    sorted_join_edges,
)
from repro.plans.query_graph import QueryGraph
from repro.plans.relations import Catalog
from repro.search.canonical import canonical_plan

__all__ = [
    "count_exhaustive_plans",
    "enumerate_exhaustive_plans",
    "greedy_plan",
    "random_plan",
    "mutate_plan",
]


def _adjacency(graph: QueryGraph) -> dict[str, list[str]]:
    """Sorted adjacency lists of the query tree (deterministic walks)."""
    adj: dict[str, list[str]] = {name: [] for name in sorted(graph.relations)}
    for a, b in sorted(graph.joins):
        adj[a].append(b)
        adj[b].append(a)
    return {name: sorted(neighbors) for name, neighbors in adj.items()}


def _component(
    adj: dict[str, list[str]],
    subset: frozenset[str],
    start: str,
    blocked: tuple[str, str],
) -> frozenset[str]:
    """Vertices of ``subset`` reachable from ``start`` avoiding one edge."""
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for neighbor in adj[node]:
            if neighbor not in subset or neighbor in seen:
                continue
            if {node, neighbor} == set(blocked):
                continue
            seen.add(neighbor)
            queue.append(neighbor)
    return frozenset(seen)


def _splits(
    adj: dict[str, list[str]], subset: frozenset[str]
) -> list[tuple[frozenset[str], frozenset[str]]]:
    """All edge-cut splits of a connected subset, in sorted edge order.

    For each induced edge ``(u, v)`` (``u < v``) the cut yields the
    component containing ``u`` first — the orientation convention the
    plan construction's tie-break relies on.
    """
    edges = sorted(
        (u, v)
        for u in subset
        for v in adj[u]
        if v in subset and u < v
    )
    out = []
    for u, v in edges:
        left = _component(adj, subset, u, (u, v))
        out.append((left, subset - left))
    return out


def count_exhaustive_plans(graph: QueryGraph, *, limit: int) -> int:
    """Number of distinct bushy plans, saturating at ``limit + 1``.

    Counts the DP's plan space without materializing it; a return value
    of ``limit + 1`` means "more than ``limit``" (the recursion aborts
    early), so callers can gate exhaustive enumeration cheaply.
    """
    adj = _adjacency(graph)
    memo: dict[frozenset[str], int] = {}
    cap = limit + 1

    def count(subset: frozenset[str]) -> int:
        if len(subset) == 1:
            return 1
        if subset in memo:
            return memo[subset]
        total = 0
        for left, right in _splits(adj, subset):
            total += count(left) * count(right)
            if total >= cap:
                total = cap
                break
        memo[subset] = total
        return total

    return count(frozenset(graph.relations))


def enumerate_exhaustive_plans(
    graph: QueryGraph, catalog: Catalog, *, limit: int
) -> list[PlanNode]:
    """Every distinct bushy plan of ``graph``, canonically labelled.

    Uses the smaller-side-builds orientation (ties: the component of the
    cut edge's smaller-named endpoint builds).  Subplans are shared
    inside the DP; each *candidate* is materialized as an independent
    canonical copy, so downstream annotation never aliases trees.

    Raises
    ------
    PlanStructureError
        If the plan space exceeds ``limit`` (check
        :func:`count_exhaustive_plans` first).
    """
    total = count_exhaustive_plans(graph, limit=limit)
    if total > limit:
        raise PlanStructureError(
            f"plan space exceeds the exhaustive cap ({limit}); "
            "use the local-search regime"
        )
    adj = _adjacency(graph)
    memo: dict[frozenset[str], list[PlanNode]] = {}

    def plans(subset: frozenset[str]) -> list[PlanNode]:
        if len(subset) == 1:
            (name,) = subset
            return [BaseRelationNode(catalog.get(name))]
        if subset in memo:
            return memo[subset]
        out: list[PlanNode] = []
        for left_set, right_set in _splits(adj, subset):
            for left in plans(left_set):
                for right in plans(right_set):
                    out.append(_join(left, right, "X"))
        memo[subset] = out
        return out

    roots = plans(frozenset(graph.relations))
    return [canonical_plan(plan) for plan in roots]


def _join(left: PlanNode, right: PlanNode, join_id: str) -> JoinNode:
    """Join two fragments under the smaller-side-builds convention.

    ``left`` must be the fragment of the canonical edge's smaller-named
    endpoint — on a cardinality tie it builds, matching
    :func:`~repro.plans.join_tree.random_bushy_plan`'s tie-break.
    """
    if left.output_tuples <= right.output_tuples:
        build, probe = left, right
    else:
        build, probe = right, left
    return JoinNode(join_id, build, probe)


def _contract(
    names: list[str],
    edges: list[tuple[str, str]],
    catalog: Catalog,
    pick: "callable",
) -> PlanNode:
    """Shared contraction loop: ``pick(edges)`` chooses each next edge.

    Mirrors :func:`~repro.plans.join_tree.random_bushy_plan` exactly
    (sorted canonical edge list, smaller-side-builds, contraction keeps
    the first endpoint) but takes any edge-choice rule, which is how the
    greedy start and the stdlib-seeded sampler share one body.
    """
    fragments: dict[str, PlanNode] = {
        name: BaseRelationNode(catalog.get(name)) for name in names
    }
    contracted = join_adjacency(names, edges)
    counter = 0
    while candidates := sorted_join_edges(contracted):
        u, v = pick(candidates, fragments)
        join = _join(fragments[u], fragments[v], f"X{counter}")
        counter += 1
        contract_join_edge(contracted, u, v)
        fragments[u] = join
        del fragments[v]
    roots = [fragments[name] for name in sorted(fragments)]
    if len(roots) != 1:
        raise PlanStructureError(
            f"contraction left {len(roots)} fragments; graph not connected?"
        )
    return roots[0]


def greedy_plan(graph: QueryGraph, catalog: Catalog) -> PlanNode:
    """Deterministic greedy seed: contract the cheapest edge first.

    "Cheapest" is the smallest joined output cardinality, ties broken by
    the canonical edge order — a classic minimum-intermediate-result
    heuristic that gives the local search a strong, reproducible start.
    """

    def pick(candidates, fragments):
        return min(
            candidates,
            key=lambda e: (
                max(fragments[e[0]].output_tuples, fragments[e[1]].output_tuples),
                e,
            ),
        )

    plan = _contract(sorted(graph.relations), sorted(graph.joins), catalog, pick)
    return canonical_plan(plan)


def random_plan(
    graph: QueryGraph, catalog: Catalog, rng: random.Random
) -> PlanNode:
    """One uniformly random bushy plan, driven by the stdlib generator.

    The same contraction process as
    :func:`~repro.plans.join_tree.random_bushy_plan`, but seeded with
    :class:`random.Random` so the search regime has no numpy dependency.
    """

    def pick(candidates, fragments):
        return candidates[rng.randrange(len(candidates))]

    plan = _contract(sorted(graph.relations), sorted(graph.joins), catalog, pick)
    return canonical_plan(plan)


def mutate_plan(
    plan: PlanNode,
    graph: QueryGraph,
    catalog: Catalog,
    rng: random.Random,
) -> PlanNode:
    """Re-shape one random join subtree of ``plan`` (a local-search move).

    Picks a join node uniformly at random, collects the base relations
    of its subtree (always a connected subset of the query tree — joins
    only ever merge adjacent fragments), rebuilds that subtree by random
    contraction of the induced subgraph, and splices it back.  Because a
    key-join subtree's output cardinality is the max over its leaves —
    shape-invariant — the ancestors' build/probe orientations stay
    valid.  Returns a canonical copy; the input plan is not modified.
    """
    joins = plan.joins()
    if not joins:
        return canonical_plan(plan)
    target = joins[rng.randrange(len(joins))]
    names = sorted(leaf.relation.name for leaf in target.leaves())
    member = set(names)
    induced = [
        (a, b) for a, b in sorted(graph.joins) if a in member and b in member
    ]
    replacement = _contract(names, induced, catalog, _random_pick(rng))

    def rebuild(node: PlanNode) -> PlanNode:
        if node is target:
            return replacement
        if isinstance(node, BaseRelationNode):
            return node
        assert isinstance(node, JoinNode)
        return JoinNode(
            node.join_id + "_",
            rebuild(node.build_side),
            rebuild(node.probe_side),
            method=node.method,
            materialize_output=node.materialize_output,
        )

    return canonical_plan(rebuild(plan))


def _random_pick(rng: random.Random):
    def pick(candidates, fragments):
        return candidates[rng.randrange(len(candidates))]

    return pick
