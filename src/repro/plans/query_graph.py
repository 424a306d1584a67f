"""Tree query graphs (the Section 6.1 workload's query class).

The experiments use *tree queries*: the query graph — one vertex per base
relation, one edge per join predicate — is a tree.  This module keeps
such a graph as a plain adjacency map with tree validation and provides
a uniform random tree generator (via random Prüfer sequences, so every
labelled tree on the relation set is equally likely).
"""

from __future__ import annotations

from collections.abc import Iterable

try:  # pragma: no cover - exercised by the no-numpy CI job
    import numpy as np  # noqa: F401 - annotations only
except ImportError:  # numpy is optional; rng parameters are duck-typed
    np = None  # type: ignore[assignment]

from repro.exceptions import PlanStructureError
from repro.plans.relations import Catalog

__all__ = ["QueryGraph", "random_tree_query", "prufer_tree_edges"]


class QueryGraph:
    """An acyclic (tree) query graph over named base relations.

    Parameters
    ----------
    relations:
        The vertex set (relation names).
    joins:
        The edge set: pairs of relation names with a join predicate
        between them.  Must form a tree over ``relations`` when the query
        has more than one relation.
    """

    def __init__(self, relations: Iterable[str], joins: Iterable[tuple[str, str]]):
        # relation -> neighbors, both in insertion order (dicts as
        # ordered sets): the vertex and neighbor order callers observe.
        adj: dict[str, dict[str, None]] = {name: {} for name in relations}
        if not adj:
            raise PlanStructureError("query graph needs at least one relation")
        num_edges = 0
        for a, b in joins:
            if a not in adj or b not in adj:
                raise PlanStructureError(f"join ({a!r}, {b!r}) references unknown relation")
            if a == b:
                raise PlanStructureError(f"self-join edge on {a!r} is not allowed")
            if b in adj[a]:
                raise PlanStructureError(f"duplicate join edge ({a!r}, {b!r})")
            adj[a][b] = None
            adj[b][a] = None
            num_edges += 1
        if len(_reachable(adj, next(iter(adj)))) != len(adj):
            raise PlanStructureError("query graph must be connected")
        if num_edges != len(adj) - 1:
            raise PlanStructureError(
                "query graph must be a tree "
                f"({len(adj)} vertices, {num_edges} edges)"
            )
        self._adj = adj
        self._num_edges = num_edges

    @property
    def relations(self) -> list[str]:
        """The relation names (vertex set)."""
        return list(self._adj)

    @property
    def joins(self) -> list[tuple[str, str]]:
        """The join edges, each as a sorted pair.

        Ordered vertex by vertex, each vertex's edges to not-yet-listed
        vertices in insertion order.
        """
        joins: list[tuple[str, str]] = []
        listed: set[str] = set()
        for a, neighbors in self._adj.items():
            for b in neighbors:
                if b not in listed:
                    joins.append((a, b) if a <= b else (b, a))
            listed.add(a)
        return joins

    @property
    def num_joins(self) -> int:
        """Number of join predicates (edges)."""
        return self._num_edges

    def neighbors(self, relation: str) -> list[str]:
        """Relations directly joined with ``relation``."""
        if relation not in self._adj:
            raise PlanStructureError(f"unknown relation {relation!r}")
        return list(self._adj[relation])

    def has_join(self, a: str, b: str) -> bool:
        """Is there a join predicate between ``a`` and ``b``?"""
        return a in self._adj and b in self._adj[a]

    def to_networkx(self):
        """Return the graph as a new ``networkx.Graph``.

        Needs the optional ``networkx`` package; nothing else in the
        library does.
        """
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self._adj)
        for a, neighbors in self._adj.items():
            graph.add_edges_from((a, b) for b in neighbors)
        return graph

    def __repr__(self) -> str:
        return f"QueryGraph({len(self.relations)} relations, {self.num_joins} joins)"


def random_tree_query(catalog: Catalog, rng: np.random.Generator) -> QueryGraph:
    """Draw a uniformly random tree query over all relations of ``catalog``.

    Uses a random Prüfer sequence, which is in bijection with labelled
    trees, so each of the ``n^(n-2)`` trees on ``n`` relations is equally
    likely.  A catalog of one relation yields the trivial single-vertex
    graph; two relations yield the single possible edge.
    """
    names = catalog.names
    n = len(names)
    if n == 0:
        raise PlanStructureError("catalog is empty")
    if n == 1:
        return QueryGraph(names, [])
    if n == 2:
        return QueryGraph(names, [(names[0], names[1])])
    prufer = [int(rng.integers(0, n)) for _ in range(n - 2)]
    edges = [(names[a], names[b]) for a, b in prufer_tree_edges(prufer)]
    return QueryGraph(names, edges)


def _reachable(adj: dict[str, dict[str, None]], start: str) -> set[str]:
    """The vertices reachable from ``start`` (iterative DFS)."""
    seen = {start}
    stack = [start]
    while stack:
        for other in adj[stack.pop()]:
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return seen


def prufer_tree_edges(sequence: list[int]) -> list[tuple[int, int]]:
    """Decode a Prüfer sequence into the edges of its labelled tree.

    The tree has vertices ``0..len(sequence)+1``.  Edges come as
    ``(a, b)`` with ``a < b``, ordered by ``a`` and then by when the
    decoder attached ``b`` to ``a`` — the order in which
    ``networkx.from_prufer_sequence(sequence).edges`` lists them.
    """
    n = len(sequence) + 2
    degree = [1] * n
    for v in sequence:
        if not 0 <= v < n:
            raise PlanStructureError(
                f"invalid Prüfer sequence: values must lie in [0, {n - 1}], got {v}"
            )
        degree[v] += 1
    adj: list[list[int]] = [[] for _ in range(n)]

    def attach(u: int, v: int) -> None:
        adj[u].append(v)
        adj[v].append(u)

    # Linear-time decode: ``u`` is the smallest current leaf; ``index``
    # the frontier of the scan for the next one.
    orphaned = [True] * n
    index = u = degree.index(1)
    for v in sequence:
        attach(u, v)
        orphaned[u] = False
        degree[v] -= 1
        if v < index and degree[v] == 1:
            u = v
        else:
            index = u = next(k for k in range(index + 1, n) if degree[k] == 1)
    a, b = (k for k in range(n) if orphaned[k])
    attach(a, b)
    return [(a, b) for a in range(n) for b in adj[a] if b > a]
