"""Differential oracle for the memoized plan-search screen.

:func:`repro.search.screen.candidate_lower_bounds` reads each bound off
subplan summaries shared across candidates.  The reference below takes
the long way for every candidate: full macro-expansion, per-operator
cost annotation, the segment DP over the operator DAG in topological
order, and a :func:`math.fsum` congestion side.  The two must agree bit
for bit on random tree queries with hash and sort-merge joins,
materialized outputs, homogeneous and heterogeneous clusters, and over
several rounds sharing one context.  No numpy required.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Catalog, QueryGraph, Relation
from repro.core.cloning import parallel_time, total_work_vector
from repro.core.cluster import ClusterSpec, SiteClass
from repro.core.resource_model import ConvexCombinationOverlap
from repro.cost.annotate import compute_operator_spec
from repro.cost.params import PAPER_PARAMETERS
from repro.plans.join_tree import BaseRelationNode, JoinMethod, JoinNode
from repro.plans.operator_tree import expand_plan
from repro.plans.physical_ops import EdgeKind
from repro.plans.query_graph import prufer_tree_edges
from repro.search import candidate_lower_bounds, candidate_point, evaluate_candidate
from repro.search.enumerator import (
    count_exhaustive_plans,
    enumerate_exhaustive_plans,
    mutate_plan,
    random_plan,
)
from repro.search.screen import ScreenContext, _segment

PARAMS = PAPER_PARAMETERS
COMM = PARAMS.communication_model()
OVERLAP = ConvexCombinationOverlap(0.5)


# ----------------------------------------------------------------------
# The reference: expand, annotate, DP over the operator DAG, fsum.
# ----------------------------------------------------------------------
def reference_critical_path(op_tree, t_min) -> float:
    """The segment DP over the operator DAG, in topological order."""
    best: dict = {}
    h = 0.0
    for op in op_tree.operators:
        t = t_min[op.name]
        closed, open_max = 0.0, t
        for producer in op_tree.producers(op, EdgeKind.BLOCKING):
            s, m = best[producer]
            if s + m + t > closed + open_max or (
                s + m + t == closed + open_max and s + m > closed
            ):
                closed, open_max = s + m, t
        for producer in op_tree.producers(op, EdgeKind.PIPELINE):
            s, m = best[producer]
            cand = (s, max(m, t))
            if cand[0] + cand[1] > closed + open_max or (
                cand[0] + cand[1] == closed + open_max and cand[0] > closed
            ):
                closed, open_max = cand
        best[op] = (closed, open_max)
        h = max(h, closed + open_max)
    return h


def reference_bound(plan, ctx: ScreenContext) -> float:
    op_tree = expand_plan(plan)
    specs = [compute_operator_spec(op, op_tree, ctx.params) for op in op_tree.operators]
    t_min = {
        spec.name: min(
            parallel_time(spec, n, ctx.comm, ctx.overlap, ctx.policy)
            for n in range(1, ctx.p + 1)
        )
        for spec in specs
    }
    h = reference_critical_path(op_tree, t_min)
    if ctx.max_capacity is not None:
        h /= ctx.max_capacity
    totals = [total_work_vector(spec, 1, ctx.comm, ctx.policy) for spec in specs]
    length = max(
        math.fsum(total.components[k] for total in totals)
        for k in range(totals[0].d)
    )
    denom = float(ctx.p) if ctx.total_capacity is None else ctx.total_capacity
    return max(length / denom, h)


# ----------------------------------------------------------------------
# Random inputs
# ----------------------------------------------------------------------
@st.composite
def tree_queries(draw, max_relations: int = 8):
    """A random tree query: Prüfer-decoded shape, skewed cardinalities."""
    n = draw(st.integers(min_value=1, max_value=max_relations))
    names = [f"R{i}" for i in range(n)]
    # A few repeated cardinalities make equal subplans, and with them
    # the exact critical-path ties whose tie-breaks must match.
    card = st.one_of(
        st.integers(min_value=1, max_value=250_000), st.sampled_from([1_000, 20_000])
    )
    cards = draw(st.lists(card, min_size=n, max_size=n))
    if n == 1:
        joins = []
    else:
        prufer = draw(
            st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n - 2, max_size=n - 2)
        )
        joins = [(names[a], names[b]) for a, b in prufer_tree_edges(prufer)]
    catalog = Catalog([Relation(name, tuples) for name, tuples in zip(names, cards)])
    return QueryGraph(names, joins), catalog


@st.composite
def clusters(draw, max_sites: int = 16):
    """``None`` (homogeneous) or a heterogeneous two-class cluster."""
    if draw(st.booleans()):
        return draw(st.sampled_from([1, 3, 8, max_sites])), None
    fast = draw(st.integers(min_value=1, max_value=max_sites // 2))
    slow = draw(st.integers(min_value=1, max_value=max_sites // 2))
    spec = ClusterSpec(
        (
            SiteClass("fast", fast, draw(st.sampled_from([1.5, 2.0, 3.0]))),
            SiteClass("slow", slow, draw(st.sampled_from([0.25, 0.5, 1.0]))),
        )
    )
    return spec.p, spec


def decorate(plan, rng: random.Random, merge_fraction: float, materialize_fraction: float):
    """A copy of ``plan`` with random join methods and materialization."""
    if isinstance(plan, BaseRelationNode):
        return plan
    return JoinNode(
        plan.join_id,
        decorate(plan.build_side, rng, merge_fraction, materialize_fraction),
        decorate(plan.probe_side, rng, merge_fraction, materialize_fraction),
        method=(
            JoinMethod.SORT_MERGE if rng.random() < merge_fraction else JoinMethod.HASH
        ),
        materialize_output=rng.random() < materialize_fraction,
    )


def screen_context(p: int, cluster: ClusterSpec | None) -> ScreenContext:
    return ScreenContext(
        p=p,
        params=PARAMS,
        comm=COMM,
        overlap=OVERLAP,
        capacities=None if cluster is None else cluster.capacities(),
    )


def candidate_rounds(graph, catalog, seed: int, merge: float, materialize: float):
    """Exhaustive (when small), random, then mutated candidate batches."""
    rng = random.Random(seed)
    rounds = []
    if count_exhaustive_plans(graph, limit=64) <= 64:
        rounds.append(
            [
                decorate(plan, rng, merge, materialize)
                for plan in enumerate_exhaustive_plans(graph, catalog, limit=64)
            ]
        )
    sampled = [
        decorate(random_plan(graph, catalog, rng), rng, merge, materialize)
        for _ in range(8)
    ]
    rounds.append(sampled)
    rounds.append([mutate_plan(plan, graph, catalog, rng) for plan in sampled])
    return rounds


fractions = st.sampled_from([0.0, 0.3, 1.0])


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    query=tree_queries(),
    sites=clusters(),
    seed=st.integers(min_value=0, max_value=2**31),
    merge=fractions,
    materialize=fractions,
)
def test_memoized_bounds_equal_the_oracle(query, sites, seed, merge, materialize):
    graph, catalog = query
    p, cluster = sites
    ctx = screen_context(p, cluster)
    rounds = candidate_rounds(graph, catalog, seed, merge, materialize)
    for plans in rounds:
        bounds = candidate_lower_bounds(plans, ctx)
        assert bounds == [reference_bound(plan, ctx) for plan in plans]
    # The memo carries no order or history: a fresh context screening
    # every round at once, in reverse, returns the same bits.
    everything = [plan for plans in rounds for plan in plans]
    again = candidate_lower_bounds(everything[::-1], screen_context(p, cluster))
    assert again[::-1] == [reference_bound(plan, ctx) for plan in everything]


@settings(max_examples=40, deadline=None)
@given(
    query=tree_queries(max_relations=6),
    sites=clusters(max_sites=8),
    seed=st.integers(min_value=0, max_value=2**31),
    merge=fractions,
    materialize=fractions,
)
def test_bounds_never_exceed_the_scheduled_response_time(
    query, sites, seed, merge, materialize
):
    graph, catalog = query
    p, cluster = sites
    ctx = screen_context(p, cluster)
    rng = random.Random(seed)
    plans = [
        decorate(random_plan(graph, catalog, rng), rng, merge, materialize)
        for _ in range(3)
    ]
    for plan, lb in zip(plans, candidate_lower_bounds(plans, ctx)):
        point = candidate_point(
            plan, p=p, f=0.7, shelf="min", params=PARAMS, comm=COMM,
            overlap=OVERLAP, cluster=cluster,
        )
        assert lb <= evaluate_candidate(point)["response_time"] + 1e-9


def test_single_relation_query_bound_is_the_lone_scan():
    relation = Relation("A", 5_000)
    ctx = screen_context(4, None)
    plan = BaseRelationNode(relation)
    assert candidate_lower_bounds([plan], ctx) == [reference_bound(plan, ctx)]


def test_critical_path_tie_keeps_the_larger_closed_part():
    # The build closes a segment at 4 and the probe (t = 2) ends at 6;
    # extending the outer pipeline (closed 2, open 4) also ends at 6.
    # The tie keeps the state with more finished work, as the DP over
    # the operator DAG does.  Float data almost never ties exactly, so
    # the randomized oracle cannot pin this on its own.
    assert _segment(2.0, [(3.0, 1.0)], [(2.0, 4.0)]) == (4.0, 2.0)
    assert _segment(2.0, [(3.0, 1.0)], [(2.5, 4.0)]) == (2.5, 4.0)
