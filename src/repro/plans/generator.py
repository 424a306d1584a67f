"""Seeded workload generation (the Section 6.1 experimental methodology).

The paper's evaluation draws, for each query size (10, 20, 30, 40, 50
joins), twenty random tree query graphs and one random bushy execution
plan per graph.  :func:`generate_query` reproduces one such draw;
:func:`generate_workload` batches a full query-size cohort.  All
randomness flows through one seeded :class:`numpy.random.Generator`, so
workloads are exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

from repro.exceptions import ConfigurationError
from repro.plans.join_tree import PlanNode, random_bushy_plan
from repro.plans.operator_tree import OperatorTree, expand_plan
from repro.plans.query_graph import QueryGraph, random_tree_query
from repro.plans.relations import Catalog, random_catalog
from repro.plans.task_tree import TaskTree, build_task_tree

__all__ = ["GeneratedQuery", "generate_query", "generate_workload"]


@dataclass
class GeneratedQuery:
    """One randomly drawn query with all derived structures.

    Attributes
    ----------
    catalog:
        The base relations referenced by the query.
    graph:
        The tree query graph.
    plan:
        The selected bushy hash-join execution plan (its root node).
    operator_tree:
        The macro-expanded operator tree (Figure 1(b)); *not yet* cost
        annotated — call :func:`repro.cost.annotate.annotate_plan`.
    task_tree:
        The query task tree (Figure 1(c)).
    """

    catalog: Catalog
    graph: QueryGraph
    plan: PlanNode
    operator_tree: OperatorTree = field(repr=False)
    task_tree: TaskTree = field(repr=False)

    @property
    def num_joins(self) -> int:
        """Number of joins in the query."""
        return self.plan.num_joins

    def __repr__(self) -> str:
        return (
            f"GeneratedQuery(joins={self.num_joins}, "
            f"operators={len(self.operator_tree)}, tasks={len(self.task_tree)})"
        )


def generate_query(
    n_joins: int,
    rng: np.random.Generator,
    *,
    min_tuples: int = 1_000,
    max_tuples: int = 100_000,
    merge_join_fraction: float = 0.0,
) -> GeneratedQuery:
    """Draw one random tree query of ``n_joins`` joins with a bushy plan.

    Parameters
    ----------
    n_joins:
        Number of join predicates; the query references ``n_joins + 1``
        base relations.
    rng:
        Seeded NumPy generator (sole source of randomness).
    min_tuples, max_tuples:
        Relation cardinality range (paper: 10^3 to 10^5 tuples),
        log-uniformly sampled.
    merge_join_fraction:
        Probability that a join uses the sort-merge method (default 0.0:
        the paper's pure hash-join testbed).
    """
    if n_joins < 0:
        raise ConfigurationError(f"n_joins must be >= 0, got {n_joins}")
    catalog = random_catalog(
        n_joins + 1, rng, min_tuples=min_tuples, max_tuples=max_tuples
    )
    graph = random_tree_query(catalog, rng)
    plan = random_bushy_plan(
        graph, catalog, rng, merge_join_fraction=merge_join_fraction
    )
    op_tree = expand_plan(plan)
    task_tree = build_task_tree(op_tree)
    return GeneratedQuery(
        catalog=catalog,
        graph=graph,
        plan=plan,
        operator_tree=op_tree,
        task_tree=task_tree,
    )


def generate_workload(
    n_joins: int,
    n_queries: int,
    seed: int,
    *,
    min_tuples: int = 1_000,
    max_tuples: int = 100_000,
    merge_join_fraction: float = 0.0,
) -> list[GeneratedQuery]:
    """Draw a cohort of ``n_queries`` random queries of one size.

    The paper uses twenty query graphs per size; results are reported as
    averages over the cohort.  A fresh :class:`numpy.random.Generator`
    is created from ``seed``, so equal arguments give identical
    workloads.
    """
    if n_queries < 1:
        raise ConfigurationError(f"n_queries must be >= 1, got {n_queries}")
    try:  # numpy is an optional extra; workload drawing needs it
        import numpy as np
    except ImportError:
        raise ConfigurationError(
            "workload generation needs numpy; install the 'repro[numpy]' extra"
        ) from None
    rng = np.random.default_rng(seed)
    return [
        generate_query(
            n_joins,
            rng,
            min_tuples=min_tuples,
            max_tuples=max_tuples,
            merge_join_fraction=merge_join_fraction,
        )
        for _ in range(n_queries)
    ]
