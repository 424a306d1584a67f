"""Bushy hash-join execution plans (Figure 1(a) and the Section 6.1 workload).

An execution plan tree has base-relation leaves and binary hash-join
internal nodes.  Each join distinguishes its *build* (inner) input — the
side whose tuples populate the hash table — from its *probe* (outer)
input.  The experiments assume simple key joins, so a join's output
cardinality is the larger of its two input cardinalities.

The workload generator selects a random bushy plan for a tree query graph
by repeatedly contracting a uniformly random join edge — every shape from
left-deep chains to balanced bushy trees can arise, matching the paper's
"for each graph a bushy execution plan was randomly selected".
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator
from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # rng parameters are duck-typed; numpy is optional
    import numpy as np

from repro.exceptions import PlanStructureError
from repro.plans.query_graph import QueryGraph
from repro.plans.relations import Catalog, Relation

__all__ = [
    "JoinMethod",
    "PlanNode",
    "BaseRelationNode",
    "JoinNode",
    "random_bushy_plan",
    "key_join_cardinality",
    "join_adjacency",
    "sorted_join_edges",
    "contract_join_edge",
]


class JoinMethod(Enum):
    """Physical join algorithm of one plan node.

    The Section 6 testbed is pure hash joins; sort-merge joins are this
    library's generality extension (the paper notes TREESCHEDULE applies
    to any bushy plan).  The two differ in macro-expansion: a hash join
    yields build + probe with one blocking edge; a sort-merge join yields
    two sorts + a merge with two blocking edges.
    """

    HASH = "hash"
    SORT_MERGE = "sort_merge"


def key_join_cardinality(left_tuples: int, right_tuples: int) -> int:
    """Result size of a simple key join: ``max(|L|, |R|)`` (Section 6.1)."""
    if left_tuples < 0 or right_tuples < 0:
        raise PlanStructureError("cardinalities must be >= 0")
    return max(left_tuples, right_tuples)


class PlanNode(ABC):
    """A node of a bushy execution plan tree."""

    @property
    @abstractmethod
    def output_tuples(self) -> int:
        """Cardinality of the node's output stream."""

    @abstractmethod
    def iter_nodes(self) -> Iterator["PlanNode"]:
        """Post-order traversal of the subtree rooted here."""

    @property
    def num_joins(self) -> int:
        """Number of join nodes in this subtree."""
        return sum(1 for node in self.iter_nodes() if isinstance(node, JoinNode))

    @property
    def height(self) -> int:
        """Height of the subtree (a leaf has height 0)."""
        children = self.children
        if not children:
            return 0
        return 1 + max(child.height for child in children)

    @property
    @abstractmethod
    def children(self) -> tuple["PlanNode", ...]:
        """The node's children (empty for leaves)."""

    def leaves(self) -> list["BaseRelationNode"]:
        """All base-relation leaves of the subtree, left to right."""
        return [n for n in self.iter_nodes() if isinstance(n, BaseRelationNode)]

    def joins(self) -> list["JoinNode"]:
        """All join nodes of the subtree, in post-order."""
        return [n for n in self.iter_nodes() if isinstance(n, JoinNode)]

    def pretty(self, indent: int = 0) -> str:
        """Render the subtree as an indented ASCII outline."""
        raise NotImplementedError


class BaseRelationNode(PlanNode):
    """A leaf of the plan: a scan of one base relation."""

    def __init__(self, relation: Relation):
        self.relation = relation

    @property
    def output_tuples(self) -> int:
        return self.relation.tuples

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return ()

    def iter_nodes(self) -> Iterator[PlanNode]:
        yield self

    def pretty(self, indent: int = 0) -> str:
        pad = "  " * indent
        return f"{pad}{self.relation.name} [{self.relation.tuples} tuples]"

    def __repr__(self) -> str:
        return f"BaseRelationNode({self.relation.name!r})"


class JoinNode(PlanNode):
    """A binary join.

    Attributes
    ----------
    join_id:
        Identifier unique within the plan (``"J0"``, ``"J1"``, ...).
    build_side:
        The inner (left) input.  For a hash join its tuples are hashed
        into the join's table; for a sort-merge join it is simply the
        left sort input.
    probe_side:
        The outer (right) input; probes the table (hash) or feeds the
        right sort (sort-merge).
    method:
        The physical join algorithm (default: hash, the paper's testbed).
    materialize_output:
        When ``True`` the join's output is stored to disk and re-read by
        its consumer in a later phase (a serialization point — §3.1's
        rooted-rescan example).  Ignored at the plan root, whose output
        goes to the client.
    """

    def __init__(
        self,
        join_id: str,
        build_side: PlanNode,
        probe_side: PlanNode,
        method: JoinMethod = JoinMethod.HASH,
        materialize_output: bool = False,
    ):
        if not join_id:
            raise PlanStructureError("join_id must be non-empty")
        if build_side is probe_side:
            raise PlanStructureError("a join's two inputs must be distinct nodes")
        self.join_id = join_id
        self.build_side = build_side
        self.probe_side = probe_side
        self.method = method
        self.materialize_output = materialize_output

    @property
    def output_tuples(self) -> int:
        return key_join_cardinality(
            self.build_side.output_tuples, self.probe_side.output_tuples
        )

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.build_side, self.probe_side)

    def iter_nodes(self) -> Iterator[PlanNode]:
        yield from self.build_side.iter_nodes()
        yield from self.probe_side.iter_nodes()
        yield self

    def pretty(self, indent: int = 0) -> str:
        def tag(block: str, label: str) -> str:
            first, _, rest = block.partition("\n")
            tagged = f"{first}   ({label})"
            return tagged if not rest else f"{tagged}\n{rest}"

        pad = "  " * indent
        suffix = "" if self.method is JoinMethod.HASH else f" <{self.method.value}>"
        lines = [f"{pad}{self.join_id}{suffix} [{self.output_tuples} tuples]"]
        labels = (
            ("build", "probe")
            if self.method is JoinMethod.HASH
            else ("left", "right")
        )
        lines.append(tag(self.build_side.pretty(indent + 1), labels[0]))
        lines.append(tag(self.probe_side.pretty(indent + 1), labels[1]))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"JoinNode({self.join_id!r}, method={self.method.value}, "
            f"out={self.output_tuples})"
        )


def random_bushy_plan(
    graph: QueryGraph,
    catalog: Catalog,
    rng: np.random.Generator,
    *,
    smaller_side_builds: bool = True,
    merge_join_fraction: float = 0.0,
) -> PlanNode:
    """Select a random bushy hash-join plan for a tree query.

    Repeatedly picks a uniformly random remaining join edge of the
    (contracted) query graph, joins the two incident plan fragments, and
    contracts the edge.  Because the query graph is a tree, every
    contraction step keeps it a tree and exactly ``num_joins`` joins are
    produced.

    Parameters
    ----------
    graph:
        The tree query graph.
    catalog:
        Supplies relation cardinalities.
    rng:
        Seeded NumPy generator.
    smaller_side_builds:
        When ``True`` (default) the smaller fragment becomes the build
        (inner) side — the standard hash-join convention, minimizing hash
        table size.  When ``False`` the orientation is random.
    merge_join_fraction:
        Probability that a join uses the sort-merge method instead of
        hash (default 0.0: the paper's pure hash-join testbed).

    Returns
    -------
    PlanNode
        The root of the selected plan.
    """
    if not 0.0 <= merge_join_fraction <= 1.0:
        raise PlanStructureError(
            f"merge_join_fraction must lie in [0, 1], got {merge_join_fraction}"
        )
    fragments: dict[str, PlanNode] = {
        name: BaseRelationNode(catalog.get(name)) for name in graph.relations
    }
    contracted = join_adjacency(graph.relations, graph.joins)
    join_counter = 0
    while edges := sorted_join_edges(contracted):
        u, v = edges[int(rng.integers(0, len(edges)))]
        left, right = fragments[u], fragments[v]
        if smaller_side_builds:
            if left.output_tuples <= right.output_tuples:
                build, probe = left, right
            else:
                build, probe = right, left
        else:
            if rng.integers(0, 2) == 0:
                build, probe = left, right
            else:
                build, probe = right, left
        method = (
            JoinMethod.SORT_MERGE
            if merge_join_fraction > 0.0 and rng.random() < merge_join_fraction
            else JoinMethod.HASH
        )
        join = JoinNode(f"J{join_counter}", build, probe, method=method)
        join_counter += 1
        contract_join_edge(contracted, u, v)
        fragments[u] = join
        del fragments[v]
    roots = list(fragments.values())
    if len(roots) != 1:
        raise PlanStructureError(
            f"plan construction left {len(roots)} fragments; query graph not connected?"
        )
    return roots[0]


def join_adjacency(
    relations: Iterable[str], joins: Iterable[tuple[str, str]]
) -> dict[str, set[str]]:
    """A mutable ``relation -> neighbors`` map for edge contraction."""
    adj: dict[str, set[str]] = {name: set() for name in relations}
    for a, b in joins:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def sorted_join_edges(adj: dict[str, set[str]]) -> list[tuple[str, str]]:
    """Every edge once, as a sorted pair, in sorted order."""
    return sorted((a, b) for a, neighbors in adj.items() for b in neighbors if a < b)


def contract_join_edge(adj: dict[str, set[str]], u: str, v: str) -> None:
    """Contract edge ``(u, v)`` in place: merge ``v`` into ``u``.

    ``v``'s other edges are re-homed onto ``u``; the contracted edge
    leaves no self-loop.
    """
    for w in adj.pop(v):
        adj[w].discard(v)
        if w != u:
            adj[w].add(u)
            adj[u].add(w)
