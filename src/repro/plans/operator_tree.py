"""Operator trees: macro-expansion of execution plans (Figure 1(a) → 1(b)).

:func:`expand_plan` refines every node of a bushy hash-join plan into its
physical operators and wires the pipelining/blocking edges:

* a base-relation leaf becomes ``scan(R)``;
* a join ``J`` becomes ``build(J)`` and ``probe(J)`` with

  - a *pipeline* edge from the inner input's producer to ``build(J)``,
  - a *pipeline* edge from the outer input's producer to ``probe(J)``,
  - a *blocking* edge ``build(J) -> probe(J)`` (the hash table must be
    complete before probing can begin);

* the producer of a join's output stream is its probe.

Expanding a hash join yields at most four operator nodes (two scans, one
build, one probe), so the operator tree has ``O(J)`` nodes for a
``J``-join query — the observation behind Proposition 5.2's complexity
bound for TREESCHEDULE.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.exceptions import PlanStructureError
from repro.plans.join_tree import BaseRelationNode, JoinMethod, JoinNode, PlanNode
from repro.plans.physical_ops import (
    EdgeKind,
    OperatorKind,
    PhysicalOperator,
    build_op,
    merge_op,
    probe_op,
    rescan_op,
    scan_op,
    sort_op,
    store_op,
)

__all__ = ["OperatorTree", "expand_plan"]


class OperatorTree:
    """A DAG of physical operators with typed (pipeline/blocking) edges.

    Stored as plain adjacency: operators in insertion order, and per
    operator its ``(neighbor, kind)`` edges in insertion order.  Every
    ordered view below — :attr:`operators`, :meth:`edges`,
    :meth:`producers`, :meth:`consumers` — follows the order a
    ``networkx.DiGraph`` built by the same calls reports, so schedules
    derived from these views do not depend on which one backs the tree.
    """

    def __init__(self):
        self._succ: dict[PhysicalOperator, list[tuple[PhysicalOperator, EdgeKind]]] = {}
        self._pred: dict[PhysicalOperator, list[tuple[PhysicalOperator, EdgeKind]]] = {}
        self._root: PhysicalOperator | None = None
        self._names: set[str] = set()
        self._order: list[PhysicalOperator] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_operator(self, op: PhysicalOperator) -> PhysicalOperator:
        """Add ``op`` as a node; names must be unique within the tree."""
        if op.name in self._names:
            raise PlanStructureError(f"duplicate operator name {op.name!r}")
        self._succ[op] = []
        self._pred[op] = []
        self._names.add(op.name)
        self._order = None
        return op

    def add_edge(
        self, producer: PhysicalOperator, consumer: PhysicalOperator, kind: EdgeKind
    ) -> None:
        """Add a typed edge from ``producer`` to ``consumer``."""
        for op in (producer, consumer):
            if op not in self._succ:
                raise PlanStructureError(f"operator {op.name!r} not in tree")
        if producer is consumer:
            raise PlanStructureError(f"self-edge on {producer.name!r}")
        if any(v is consumer for v, _ in self._succ[producer]):
            raise PlanStructureError(
                f"duplicate edge {producer.name!r} -> {consumer.name!r}"
            )
        # The edge closes a cycle iff ``producer`` is already reachable
        # from ``consumer``.  A targeted DFS beats revalidating the whole
        # graph: during bottom-up plan expansion the consumer was just
        # created and has no successors, so the search ends immediately.
        stack = [consumer]
        seen = {consumer}
        while stack:
            node = stack.pop()
            if node is producer:
                raise PlanStructureError(
                    f"edge {producer.name!r} -> {consumer.name!r} creates a cycle"
                )
            for succ, _ in self._succ[node]:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        self._succ[producer].append((consumer, kind))
        self._pred[consumer].append((producer, kind))
        self._order = None

    def set_root(self, op: PhysicalOperator) -> None:
        """Mark the operator producing the query's final output."""
        if op not in self._succ:
            raise PlanStructureError(f"operator {op.name!r} not in tree")
        self._root = op

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def root(self) -> PhysicalOperator:
        """The operator producing the final output."""
        if self._root is None:
            raise PlanStructureError("operator tree has no root set")
        return self._root

    def _topological_order(self) -> list[PhysicalOperator]:
        """Kahn's algorithm, generation by generation.

        Sources in insertion order, then each generation's newly freed
        successors in edge-insertion order: the order of
        ``networkx.topological_sort`` on the same graph.
        """
        indegree = {op: len(preds) for op, preds in self._pred.items()}
        generation = [op for op, d in indegree.items() if d == 0]
        order: list[PhysicalOperator] = []
        while generation:
            order.extend(generation)
            freed = []
            for op in generation:
                for succ, _ in self._succ[op]:
                    indegree[succ] -= 1
                    if indegree[succ] == 0:
                        freed.append(succ)
            generation = freed
        if len(order) != len(self._succ):
            raise PlanStructureError("operator tree has a cycle")
        return order

    @property
    def operators(self) -> list[PhysicalOperator]:
        """All operators in topological (producer-before-consumer) order."""
        if self._order is None:
            self._order = self._topological_order()
        return list(self._order)

    def __len__(self) -> int:
        return len(self._succ)

    def __contains__(self, op: PhysicalOperator) -> bool:
        return op in self._succ

    def operator_by_name(self, name: str) -> PhysicalOperator:
        """Look an operator up by its unique name."""
        for op in self._succ:
            if op.name == name:
                return op
        raise PlanStructureError(f"no operator named {name!r}")

    def edges(self, kind: EdgeKind | None = None) -> list[tuple[PhysicalOperator, PhysicalOperator]]:
        """All edges, optionally filtered by kind."""
        return [
            (u, v)
            for u, out in self._succ.items()
            for v, edge_kind in out
            if kind is None or edge_kind is kind
        ]

    def pipeline_edges(self) -> list[tuple[PhysicalOperator, PhysicalOperator]]:
        """The thin (pipelining) edges."""
        return self.edges(EdgeKind.PIPELINE)

    def blocking_edges(self) -> list[tuple[PhysicalOperator, PhysicalOperator]]:
        """The thick (blocking) edges."""
        return self.edges(EdgeKind.BLOCKING)

    def producers(
        self, op: PhysicalOperator, kind: EdgeKind | None = None
    ) -> list[PhysicalOperator]:
        """Operators feeding ``op``, optionally filtered by edge kind."""
        return [
            u for u, edge_kind in self._pred[op] if kind is None or edge_kind is kind
        ]

    def consumers(
        self, op: PhysicalOperator, kind: EdgeKind | None = None
    ) -> list[PhysicalOperator]:
        """Operators fed by ``op``, optionally filtered by edge kind."""
        return [
            v for v, edge_kind in self._succ[op] if kind is None or edge_kind is kind
        ]

    def pipeline_consumer(self, op: PhysicalOperator) -> PhysicalOperator | None:
        """The (unique) pipeline consumer of ``op``, or ``None`` at the root."""
        consumers = self.consumers(op, EdgeKind.PIPELINE)
        if len(consumers) > 1:
            raise PlanStructureError(
                f"operator {op.name!r} has {len(consumers)} pipeline consumers"
            )
        return consumers[0] if consumers else None

    def iter_scans(self) -> Iterator[PhysicalOperator]:
        """All scan operators."""
        return (op for op in self._succ if op.kind is OperatorKind.SCAN)

    def iter_builds(self) -> Iterator[PhysicalOperator]:
        """All build operators."""
        return (op for op in self._succ if op.kind is OperatorKind.BUILD)

    def iter_probes(self) -> Iterator[PhysicalOperator]:
        """All probe operators."""
        return (op for op in self._succ if op.kind is OperatorKind.PROBE)

    def probe_of(self, join_id: str) -> PhysicalOperator:
        """The probe operator of join ``join_id``."""
        for op in self.iter_probes():
            if op.join_id == join_id:
                return op
        raise PlanStructureError(f"no probe for join {join_id!r}")

    def build_of(self, join_id: str) -> PhysicalOperator:
        """The build operator of join ``join_id``."""
        for op in self.iter_builds():
            if op.join_id == join_id:
                return op
        raise PlanStructureError(f"no build for join {join_id!r}")

    def to_networkx(self):
        """Return the DAG as a new ``networkx.DiGraph`` (edge attr ``kind``).

        Needs the optional ``networkx`` package; nothing else in the
        library does.
        """
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self._succ)
        for u, out in self._succ.items():
            for v, kind in out:
                graph.add_edge(u, v, kind=kind)
        return graph

    def validate(self) -> None:
        """Check the structural invariants of a hash-join operator tree.

        * acyclic (enforced on edge insertion, re-checked here);
        * every operator except the root has exactly one consumer;
        * every build has exactly one blocking consumer — its probe;
        * every blocking edge runs from a build to the probe of the same
          join.
        """
        self._order = self._topological_order()  # raises on a cycle
        root = self.root
        for op, out in self._succ.items():
            if op is root:
                if out:
                    raise PlanStructureError(
                        f"root {op.name!r} must have no consumers"
                    )
                continue
            if len(out) != 1:
                raise PlanStructureError(
                    f"operator {op.name!r} has {len(out)} consumers; expected 1"
                )
        allowed_blocking = {
            (OperatorKind.BUILD, OperatorKind.PROBE),
            (OperatorKind.SORT, OperatorKind.MERGE),
            (OperatorKind.STORE, OperatorKind.RESCAN),
        }
        for u, v in self.blocking_edges():
            if (u.kind, v.kind) not in allowed_blocking:
                raise PlanStructureError(
                    f"blocking edge {u.name!r} -> {v.name!r} is not one of "
                    "build->probe, sort->merge, store->rescan"
                )
            if u.join_id != v.join_id:
                raise PlanStructureError(
                    f"blocking edge crosses joins: {u.name!r} -> {v.name!r}"
                )

    def __repr__(self) -> str:
        return (
            f"OperatorTree({len(self)} operators, "
            f"{len(self.pipeline_edges())} pipeline / "
            f"{len(self.blocking_edges())} blocking edges)"
        )


def expand_plan(plan: PlanNode) -> OperatorTree:
    """Macro-expand a bushy hash-join plan into its operator tree.

    Returns an :class:`OperatorTree` whose root is the final probe (or the
    lone scan, for a single-relation query).
    """
    tree = OperatorTree()

    def maybe_materialize(
        producer: PhysicalOperator, node: JoinNode, is_root: bool
    ) -> PhysicalOperator:
        """Insert a store -> rescan materialization point if requested."""
        if not node.materialize_output or is_root:
            return producer
        store = tree.add_operator(store_op(node.join_id, node.output_tuples))
        rescan = tree.add_operator(rescan_op(node.join_id, node.output_tuples))
        tree.add_edge(producer, store, EdgeKind.PIPELINE)
        tree.add_edge(store, rescan, EdgeKind.BLOCKING)
        return rescan

    def expand(node: PlanNode, is_root: bool = False) -> PhysicalOperator:
        if isinstance(node, BaseRelationNode):
            return tree.add_operator(scan_op(node.relation))
        if isinstance(node, JoinNode):
            inner_producer = expand(node.build_side)
            outer_producer = expand(node.probe_side)
            if node.method is JoinMethod.HASH:
                build = tree.add_operator(
                    build_op(node.join_id, node.build_side.output_tuples)
                )
                probe = tree.add_operator(
                    probe_op(
                        node.join_id,
                        node.probe_side.output_tuples,
                        node.output_tuples,
                    )
                )
                tree.add_edge(inner_producer, build, EdgeKind.PIPELINE)
                tree.add_edge(outer_producer, probe, EdgeKind.PIPELINE)
                tree.add_edge(build, probe, EdgeKind.BLOCKING)
                return maybe_materialize(probe, node, is_root)
            if node.method is JoinMethod.SORT_MERGE:
                sort_l = tree.add_operator(
                    sort_op(node.join_id, "l", node.build_side.output_tuples)
                )
                sort_r = tree.add_operator(
                    sort_op(node.join_id, "r", node.probe_side.output_tuples)
                )
                merge = tree.add_operator(
                    merge_op(
                        node.join_id,
                        node.build_side.output_tuples,
                        node.probe_side.output_tuples,
                        node.output_tuples,
                    )
                )
                tree.add_edge(inner_producer, sort_l, EdgeKind.PIPELINE)
                tree.add_edge(outer_producer, sort_r, EdgeKind.PIPELINE)
                tree.add_edge(sort_l, merge, EdgeKind.BLOCKING)
                tree.add_edge(sort_r, merge, EdgeKind.BLOCKING)
                return maybe_materialize(merge, node, is_root)
            raise PlanStructureError(f"unknown join method {node.method!r}")
        raise PlanStructureError(f"unknown plan node type {type(node).__name__}")

    root = expand(plan, is_root=True)
    tree.set_root(root)
    tree.validate()
    return tree
