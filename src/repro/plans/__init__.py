"""Query-plan substrate: relations, query graphs, plans, operator/task trees.

This subpackage builds everything between "a SQL-ish join query" and "a
set of operators the scheduler can reason about" (Figure 1 of the paper):
catalogs of base relations, tree query graphs, random bushy hash-join
plans, macro-expanded operator trees with pipeline/blocking edges, query
task trees, and the MinShelf phase decomposition.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".relations": ("Relation", "Catalog", "random_catalog"),
        ".query_graph": ("QueryGraph", "random_tree_query"),
        ".join_tree": (
            "PlanNode",
            "BaseRelationNode",
            "JoinMethod",
            "JoinNode",
            "key_join_cardinality",
            "random_bushy_plan",
        ),
        ".physical_ops": (
            "OperatorKind",
            "EdgeKind",
            "PhysicalOperator",
            "scan_op",
            "build_op",
            "probe_op",
            "sort_op",
            "merge_op",
            "store_op",
            "rescan_op",
            "anchor_operator_name",
        ),
        ".operator_tree": ("OperatorTree", "expand_plan"),
        ".task_tree": ("Task", "TaskTree", "build_task_tree"),
        ".phases": ("min_shelf_phases", "eager_shelf_phases", "validate_phases"),
        ".generator": ("GeneratedQuery", "generate_query", "generate_workload"),
        ".stats": ("PlanStats", "describe_query", "resource_mix"),
        ".transform": ("auto_materialize",),
    },
)
