"""The plain-adjacency graphs report networkx's orders exactly.

``OperatorTree``, ``build_task_tree``, ``QueryGraph``, the Prüfer decode
and the edge-contraction loops keep their own adjacency; TREESCHEDULE and
the plan samplers iterate the orders those views report, so each must
match what a networkx graph built by the same calls reports.  networkx
is a test-only dependency: the parity tests skip without it, while the
import-hygiene test runs everywhere.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import pytest

from repro import Catalog, QueryGraph, Relation
from repro.plans.join_tree import (
    BaseRelationNode,
    JoinMethod,
    JoinNode,
    contract_join_edge,
    join_adjacency,
    sorted_join_edges,
)
from repro.plans.operator_tree import OperatorTree, expand_plan
from repro.plans.physical_ops import EdgeKind
from repro.plans.query_graph import prufer_tree_edges, random_tree_query
from repro.plans.task_tree import build_task_tree
from repro.search.enumerator import random_plan

SRC = str(Path(__file__).resolve().parent.parent / "src")
SEEDS = range(40)


@pytest.fixture
def nx():
    return pytest.importorskip("networkx")


class _StdlibIntegers:
    """The slice of ``numpy.random.Generator`` random_tree_query uses."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def integers(self, low: int, high: int) -> int:
        return self._rng.randrange(low, high)


def tree_inputs(n: int, seed: int) -> tuple[list[str], list[tuple[str, str]]]:
    """A random tree over shuffled names, joins in shuffled order and
    orientation, so insertion order differs from sorted order."""
    rng = random.Random(seed)
    names = [f"R{i:02d}" for i in range(n)]
    rng.shuffle(names)
    sequence = [rng.randrange(n) for _ in range(n - 2)]
    edges = [(names[a], names[b]) for a, b in prufer_tree_edges(sequence)] if n > 1 else []
    rng.shuffle(edges)
    return names, [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]


def random_query(n: int, seed: int) -> tuple[QueryGraph, Catalog]:
    names, edges = tree_inputs(n, seed)
    rng = random.Random(seed)
    catalog = Catalog([Relation(name, rng.randint(1, 100_000)) for name in names])
    return QueryGraph(names, edges), catalog


def decorate(plan, rng: random.Random):
    """A copy of ``plan`` with random join methods and materialization."""
    if isinstance(plan, BaseRelationNode):
        return plan
    return JoinNode(
        plan.join_id,
        decorate(plan.build_side, rng),
        decorate(plan.probe_side, rng),
        method=JoinMethod.SORT_MERGE if rng.random() < 0.4 else JoinMethod.HASH,
        materialize_output=rng.random() < 0.3,
    )


def expand_with_twin(plan, nx):
    """Expand ``plan`` while replaying every construction call into a
    ``networkx.DiGraph`` twin."""
    twin = nx.DiGraph()
    add_operator, add_edge = OperatorTree.add_operator, OperatorTree.add_edge

    def twin_operator(self, op):
        twin.add_node(op)
        return add_operator(self, op)

    def twin_edge(self, producer, consumer, kind):
        twin.add_edge(producer, consumer, kind=kind)
        return add_edge(self, producer, consumer, kind)

    with patch.object(OperatorTree, "add_operator", twin_operator), patch.object(
        OperatorTree, "add_edge", twin_edge
    ):
        tree = expand_plan(plan)
    return tree, twin


def networkx_task_tree(twin, root, nx):
    """Task ids, members and children as the networkx build derived them."""
    order = list(nx.topological_sort(twin))
    topo_index = {op: i for i, op in enumerate(order)}
    pipeline = nx.DiGraph()
    pipeline.add_nodes_from(order)
    pipeline.add_edges_from(
        (u, v) for u, v, kind in twin.edges(data="kind") if kind is EdgeKind.PIPELINE
    )
    components = sorted(
        nx.weakly_connected_components(pipeline),
        key=lambda comp: min(topo_index[op] for op in comp),
    )
    task_of = {}
    tasks = []
    for i, comp in enumerate(components):
        members = sorted(comp, key=topo_index.__getitem__)
        tasks.append((f"T{i}", members))
        for op in comp:
            task_of[op] = f"T{i}"
    children = {task_id: [] for task_id, _ in tasks}
    for u, v, kind in twin.edges(data="kind"):
        if kind is EdgeKind.BLOCKING:
            children[task_of[v]].append(task_of[u])
    return tasks, children, task_of[root]


def sample_plans(seed: int):
    rng = random.Random(seed)
    graph, catalog = random_query(rng.randint(1, 9), seed)
    return [decorate(random_plan(graph, catalog, rng), rng) for _ in range(3)]


@pytest.mark.parametrize("seed", SEEDS)
def test_operator_tree_orders_match_networkx(nx, seed):
    for plan in sample_plans(seed):
        tree, twin = expand_with_twin(plan, nx)
        assert tree.operators == list(nx.topological_sort(twin))
        assert tree.edges() == list(twin.edges)
        for kind in EdgeKind:
            assert tree.edges(kind) == [
                (u, v) for u, v, k in twin.edges(data="kind") if k is kind
            ]
        for op in twin:
            assert tree.producers(op) == list(twin.predecessors(op))
            assert tree.consumers(op) == list(twin.successors(op))
        copy = tree.to_networkx()
        assert list(copy.nodes) == list(twin.nodes)
        assert list(copy.edges(data="kind")) == list(twin.edges(data="kind"))


@pytest.mark.parametrize("seed", SEEDS)
def test_task_tree_matches_networkx(nx, seed):
    for plan in sample_plans(seed):
        tree, twin = expand_with_twin(plan, nx)
        tasks, children, root = networkx_task_tree(twin, tree.root, nx)
        task_tree = build_task_tree(tree)
        assert [(t.task_id, t.operators) for t in task_tree.tasks] == tasks
        assert {
            t.task_id: [c.task_id for c in task_tree.children(t)]
            for t in task_tree.tasks
        } == children
        assert task_tree.root.task_id == root


@pytest.mark.parametrize("n", range(1, 13))
def test_query_graph_orders_match_networkx(nx, n):
    for seed in SEEDS:
        names, edges = tree_inputs(n, seed)
        graph = QueryGraph(names, edges)
        reference = nx.Graph()
        reference.add_nodes_from(names)
        reference.add_edges_from(edges)
        assert graph.relations == list(reference.nodes)
        assert graph.joins == [tuple(sorted(e)) for e in reference.edges]
        assert graph.num_joins == reference.number_of_edges()
        for name in names:
            assert graph.neighbors(name) == list(reference.neighbors(name))
        copy = graph.to_networkx()
        assert list(copy.nodes) == list(reference.copy().nodes)
        assert list(copy.edges) == list(reference.copy().edges)


@pytest.mark.parametrize("n", range(2, 13))
def test_prufer_decode_matches_networkx(nx, n):
    for seed in SEEDS:
        rng = random.Random(seed)
        sequence = [rng.randrange(n) for _ in range(n - 2)]
        assert prufer_tree_edges(sequence) == list(nx.from_prufer_sequence(sequence).edges)


@pytest.mark.parametrize("n", range(1, 13))
def test_random_tree_query_matches_networkx_decode(nx, n):
    names = [f"Q{i}" for i in range(n)]
    catalog = Catalog([Relation(name, 10 * (i + 1)) for i, name in enumerate(names)])
    for seed in SEEDS:
        graph = random_tree_query(catalog, _StdlibIntegers(seed))
        if n <= 2:
            expected = [(names[0], names[1])] if n == 2 else []
        else:
            rng = _StdlibIntegers(seed)
            sequence = [rng.integers(0, n) for _ in range(n - 2)]
            tree = nx.from_prufer_sequence(sequence)
            expected = [tuple(sorted((names[a], names[b]))) for a, b in tree.edges]
        assert graph.relations == names
        assert graph.joins == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_edge_contraction_matches_networkx(nx, seed):
    rng = random.Random(seed)
    graph, _ = random_query(rng.randint(1, 12), seed)
    adj = join_adjacency(graph.relations, graph.joins)
    twin = graph.to_networkx()
    while edges := sorted_join_edges(adj):
        assert edges == sorted(tuple(sorted(e)) for e in twin.edges)
        u, v = rng.choice(edges)
        contract_join_edge(adj, u, v)
        twin = nx.contracted_nodes(twin, u, v, self_loops=False)
    assert twin.number_of_edges() == 0
    assert set(adj) == set(twin.nodes)


def test_importing_the_library_leaves_networkx_unloaded():
    code = (
        "import sys\n"
        "import repro, repro.search, repro.serve, repro.experiments\n"
        "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
