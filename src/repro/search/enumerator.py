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
  relations has Catalan(``n-1``) shapes, so the count grows fast.  The
  DP never yields two plans with the same structure.

* **Seeded local search** (large graphs).  A deterministic greedy start
  (always contract the edge with the smallest joined cardinality) plus
  random contractions and subtree-reshaping mutations driven by a
  :class:`random.Random` — the stdlib generator, so the search runs
  identically with or without numpy and under any ``PYTHONHASHSEED``
  (all tie-breaks go through sorted edge lists, never set/dict
  iteration order).

Every move has one implementation, in :class:`KeyMoves`, on interned
structure keys (:class:`~repro.search.screen.StructureKeys`): a plan is
its root's key, so :func:`~repro.search.search.search_plans` dedupes,
bounds and ranks plans without building a tree.
:func:`enumerate_exhaustive_plans`, :func:`greedy_plan`,
:func:`random_plan` and :func:`mutate_plan` are tree views of the same
moves: they build the canonical tree of the move's key.  Every public
function returns plans in a deterministic order.
"""

from __future__ import annotations

import random
from collections import deque

from repro.exceptions import PlanStructureError
from repro.plans.join_tree import (
    PlanNode,
    contract_join_edge,
    join_adjacency,
    sorted_join_edges,
)
from repro.plans.query_graph import QueryGraph
from repro.plans.relations import Catalog
from repro.search.screen import ScreenContext, StructureKeys

__all__ = [
    "count_exhaustive_plans",
    "enumerate_exhaustive_plans",
    "exhaustive_candidates",
    "KeyMoves",
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


def _check_space(graph: QueryGraph, limit: int) -> None:
    """Raise when the plan space of ``graph`` exceeds ``limit``."""
    if count_exhaustive_plans(graph, limit=limit) > limit:
        raise PlanStructureError(
            f"plan space exceeds the exhaustive cap ({limit}); "
            "use the local-search regime"
        )


class KeyMoves:
    """Every plan move of one query, on interned structure keys.

    A plan is its root's structure key in ``keys``
    (:class:`~repro.search.screen.StructureKeys`, or the search's
    :class:`~repro.search.screen.ScreenContext`, which also summarizes
    each interned subplan for its bound).  Joins are oriented by
    :meth:`~repro.search.screen.StructureKeys.join_key`: the smaller
    output builds, and on a tie the cut edge's smaller-named endpoint
    builds.  No move builds a plan tree; the tree functions of this
    module are views that build the canonical tree of a move's key.
    """

    def __init__(self, graph: QueryGraph, catalog: Catalog, keys: StructureKeys) -> None:
        self._graph = graph
        self._names = sorted(graph.relations)
        self._edges = sorted(graph.joins)
        self._catalog = catalog
        self._keys = keys

    def exhaustive(self) -> list[tuple]:
        """Every distinct bushy plan, in DP order (the space is not counted).

        Each connected subset's fragments are built once and shared; a
        subset is joined from the two components of each cut edge of its
        induced subtree, ``left`` being the component of the edge's
        smaller-named endpoint.  No two plans have the same structure: a
        plan's root split fixes the cut edge, and the two sides recurse.
        """
        adj = _adjacency(self._graph)
        memo: dict[frozenset[str], list[tuple]] = {}
        join = self._keys.join_key

        def plans(subset: frozenset[str]) -> list[tuple]:
            if len(subset) == 1:
                (name,) = subset
                return [self._leaf(name)]
            if subset in memo:
                return memo[subset]
            out = [
                join(left, right)
                for left_set, right_set in _splits(adj, subset)
                for left in plans(left_set)
                for right in plans(right_set)
            ]
            memo[subset] = out
            return out

        return plans(frozenset(self._names))

    def greedy(self) -> tuple:
        """The greedy start: contract the cheapest edge first.

        "Cheapest" is the smallest joined output cardinality, ties broken
        by the canonical edge order.
        """
        tuples = self._keys.tuples

        def pick(candidates, fragments):
            return min(
                candidates,
                key=lambda e: (
                    max(tuples(fragments[e[0]]), tuples(fragments[e[1]])), e
                ),
            )

        return self._contract(self._names, self._edges, pick)

    def random(self, rng: random.Random) -> tuple:
        """One random contraction of the whole query tree."""
        return self._contract(self._names, self._edges, _random_pick(rng))

    def mutate(self, root: tuple, rng: random.Random) -> tuple:
        """Re-shape one random join subtree of the plan with root ``root``.

        Picks a join uniformly at random in post-order and rebuilds its
        subtree by random contraction of the relations under it (always
        a connected subset of the query tree).  Only the path from the
        root to that subtree is re-interned, and every ancestor keeps its
        build and probe sides: a key-join subtree's output cardinality is
        the max over its leaves whatever its shape, so each ancestor's
        orientation stays valid.  A plan without joins is returned as is,
        drawing nothing.
        """
        joins = self._joins(root, ())
        if not joins:
            return root
        path, target = joins[rng.randrange(len(joins))]
        names = sorted(self._leaves(target))
        member = set(names)
        induced = [(a, b) for a, b in self._edges if a in member and b in member]
        replacement = self._contract(names, induced, _random_pick(rng))
        return self._splice(root, path, replacement)

    def _leaf(self, name: str) -> tuple:
        return StructureKeys.leaf_key(self._catalog.get(name))

    def _contract(self, names: list[str], edges: list[tuple[str, str]], pick) -> tuple:
        """Contract edges until one fragment is left: ``pick`` chooses each.

        Mirrors :func:`~repro.plans.join_tree.random_bushy_plan` (sorted
        canonical edge list, smaller-side-builds, contraction keeps the
        first endpoint) under any edge-choice rule.
        """
        fragments = {name: self._leaf(name) for name in names}
        contracted = join_adjacency(names, edges)
        while candidates := sorted_join_edges(contracted):
            u, v = pick(candidates, fragments)
            fragments[u] = self._keys.join_key(fragments[u], fragments.pop(v))
            contract_join_edge(contracted, u, v)
        if len(fragments) != 1:
            raise PlanStructureError(
                f"contraction left {len(fragments)} fragments; graph not connected?"
            )
        (root,) = fragments.values()
        return root

    def _joins(self, key: tuple, path: tuple) -> list[tuple[tuple, tuple]]:
        """``(path, key)`` of every join under ``key``, in post-order.

        A path lists the child positions (2 build, 3 probe) from the
        root down.
        """
        if len(key) == 2:
            return []
        child = self._keys.key
        return (
            self._joins(child(key[2]), path + (2,))
            + self._joins(child(key[3]), path + (3,))
            + [(path, key)]
        )

    def _leaves(self, key: tuple) -> list[str]:
        if len(key) == 2:
            return [key[0]]
        child = self._keys.key
        return self._leaves(child(key[2])) + self._leaves(child(key[3]))

    def _splice(self, key: tuple, path: tuple, replacement: tuple) -> tuple:
        """``key`` with the subtree at ``path`` replaced, sides kept."""
        if not path:
            return replacement
        side = path[0]
        child = self._splice(self._keys.key(key[side]), path[1:], replacement)
        spliced = list(key)
        spliced[side] = self._keys.intern(child)
        return tuple(spliced)


def _random_pick(rng: random.Random):
    def pick(candidates, fragments):
        return candidates[rng.randrange(len(candidates))]

    return pick


def enumerate_exhaustive_plans(
    graph: QueryGraph, catalog: Catalog, *, limit: int
) -> list[PlanNode]:
    """Every distinct bushy plan of ``graph``, canonically labelled.

    The tree view of :meth:`KeyMoves.exhaustive`: smaller-side-builds
    orientation (ties: the component of the cut edge's smaller-named
    endpoint builds), each plan an independent canonical tree, so
    downstream annotation never aliases trees.

    Raises
    ------
    PlanStructureError
        If the plan space exceeds ``limit`` (check
        :func:`count_exhaustive_plans` first).
    """
    _check_space(graph, limit)
    keys = StructureKeys()
    return [keys.plan(root) for root in KeyMoves(graph, catalog, keys).exhaustive()]


def exhaustive_candidates(
    graph: QueryGraph, catalog: Catalog, ctx: ScreenContext, *, limit: int
) -> list[tuple]:
    """The plans of :func:`enumerate_exhaustive_plans`, unbuilt.

    Each plan is its root's structure key in ``ctx``, in the same
    order: :meth:`ScreenContext.bound` bounds it and
    :meth:`~repro.search.screen.StructureKeys.plan` builds its canonical
    tree.  Every shared non-root subplan is interned (and summarized)
    once, so no plan tree is built or walked.

    Raises
    ------
    PlanStructureError
        If the plan space exceeds ``limit``.
    """
    _check_space(graph, limit)
    return KeyMoves(graph, catalog, ctx).exhaustive()


def greedy_plan(graph: QueryGraph, catalog: Catalog) -> PlanNode:
    """Deterministic greedy seed: contract the cheapest edge first.

    "Cheapest" is the smallest joined output cardinality, ties broken by
    the canonical edge order — a classic minimum-intermediate-result
    heuristic that gives the local search a strong, reproducible start.
    The canonical tree of :meth:`KeyMoves.greedy`.
    """
    keys = StructureKeys()
    return keys.plan(KeyMoves(graph, catalog, keys).greedy())


def random_plan(
    graph: QueryGraph, catalog: Catalog, rng: random.Random
) -> PlanNode:
    """One uniformly random bushy plan, driven by the stdlib generator.

    The same contraction process as
    :func:`~repro.plans.join_tree.random_bushy_plan`, but seeded with
    :class:`random.Random` so the search regime has no numpy dependency.
    The canonical tree of :meth:`KeyMoves.random`.
    """
    keys = StructureKeys()
    return keys.plan(KeyMoves(graph, catalog, keys).random(rng))


def mutate_plan(
    plan: PlanNode,
    graph: QueryGraph,
    catalog: Catalog,
    rng: random.Random,
) -> PlanNode:
    """Re-shape one random join subtree of ``plan`` (a local-search move).

    Picks a join node uniformly at random (in post-order), rebuilds its
    subtree by random contraction of the relations under it, and splices
    it back; the ancestors keep their build/probe orientations.  Returns
    the canonical tree of :meth:`KeyMoves.mutate` on ``plan``'s key; the
    input plan is not modified.
    """
    keys = StructureKeys()
    return keys.plan(KeyMoves(graph, catalog, keys).mutate(keys.root_key(plan), rng))
