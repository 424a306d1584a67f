"""repro — Multi-dimensional Resource Scheduling for Parallel Queries.

A from-scratch reproduction of Garofalakis & Ioannidis, SIGMOD 1996:
multi-dimensional work-vector scheduling of bushy hash-join query plans on
shared-nothing systems, including the OPERATORSCHEDULE and TREESCHEDULE
algorithms, the malleable extension of Section 7, the SYNCHRONOUS
one-dimensional adversary, the OPTBOUND lower bound, the Section 6
experimental harness, and a fluid execution simulator validating the
analytic model.

Quickstart
----------
>>> from repro import (
...     ConvexCombinationOverlap, PAPER_PARAMETERS, annotate_plan,
...     generate_query, tree_schedule,
... )
>>> import numpy as np
>>> query = generate_query(10, np.random.default_rng(7))
>>> annotate_plan(query.operator_tree, PAPER_PARAMETERS)  # doctest: +ELLIPSIS
PlanAnnotation(...)
>>> result = tree_schedule(
...     query.operator_tree, query.task_tree, p=16,
...     comm=PAPER_PARAMETERS.communication_model(),
...     overlap=ConvexCombinationOverlap(0.5), f=0.7,
... )
>>> result.response_time > 0
True
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".exceptions": (
            "ReproError", "ModelValidationError", "InvalidWorkVectorError",
            "PlanStructureError", "ImmutableAnnotationError", "SchedulingError",
            "InfeasibleScheduleError", "ConfigurationError", "SimulationError",
        ),
        ".core": (
            "WorkVector", "Resource", "DEFAULT_DIMENSIONALITY", "vector_sum",
            "set_length", "dominates", "OverlapModel", "ConvexCombinationOverlap",
            "PERFECT_OVERLAP", "ZERO_OVERLAP", "ResourceUsage",
            "validate_sequential_time", "CommunicationModel", "processing_area",
            "granularity_ratio", "is_coarse_grain", "OperatorSpec", "CoordinatorPolicy",
            "DEFAULT_COORDINATOR_POLICY", "clone_work_vectors", "total_work_vector",
            "parallel_time", "response_optimal_degree", "coarse_grain_degree",
            "ClusterSpec", "SiteClass", "parse_cluster_spec", "Site", "SiteHeap",
            "PlacedClone", "Schedule", "PhasedSchedule", "OperatorHome",
            "RootedPlacement", "OperatorScheduleResult", "operator_schedule",
            "BoundCertificate", "certify", "lower_bound", "lower_bound_family",
            "slowest_operator_time", "theorem51_fixed_degree_bound",
            "theorem51_coarse_grain_bound", "ParallelizationCandidate",
            "CandidateFamily", "candidate_parallelizations",
            "enumerate_candidate_family", "select_parallelization",
            "select_parallelization_batched", "malleable_schedule", "MalleableResult",
            "OptimalResult", "optimal_schedule", "optimal_malleable_makespan",
            "SortKey", "PlacementRule", "CloneItem", "pack_vectors",
            "pack_vectors_reference", "ScheduleDelta", "RescheduleStats",
            "reschedule_schedule", "reschedule_reference", "zipf_weights",
            "skewed_clone_work_vectors", "skewed_makespan", "skewed_response_time",
        ),
        ".core.tree_schedule": ("TreeScheduleResult", "tree_schedule"),
        ".engine": (
            "ScheduleResult", "Instrumentation", "MetricsRecorder", "ScheduleRequest",
            "RegisteredScheduler", "register", "get_algorithm", "available_algorithms",
            "describe_algorithms",
        ),
        ".plans": (
            "Relation", "Catalog", "random_catalog", "QueryGraph", "random_tree_query",
            "PlanNode", "BaseRelationNode", "JoinMethod", "JoinNode",
            "key_join_cardinality", "random_bushy_plan", "OperatorKind", "EdgeKind",
            "PhysicalOperator", "OperatorTree", "expand_plan", "Task", "TaskTree",
            "build_task_tree", "min_shelf_phases", "eager_shelf_phases",
            "validate_phases", "GeneratedQuery", "generate_query", "generate_workload",
            "PlanStats", "describe_query", "resource_mix", "anchor_operator_name",
            "auto_materialize",
        ),
        ".cost": (
            "SystemParameters", "PAPER_PARAMETERS", "scan_work_vector",
            "build_work_vector", "probe_work_vector", "sort_work_vector",
            "merge_work_vector", "operator_data_volume", "annotate_operator",
            "annotate_plan", "compute_plan_annotation", "PlanAnnotation",
            "AnnotatedQuery",
        ),
        ".baselines": (
            "minimax_allocation", "minimax_time", "scalar_list_schedule", "opt_bound",
            "congestion_bound", "critical_path_time", "SynchronousResult",
            "synchronous_schedule", "HongResult", "hong_schedule",
        ),
        ".sim": (
            "SharingPolicy", "SimulationResult", "simulate_phased", "PolicyComparison",
            "sharing_policy_report", "validate_phased_schedule", "PreemptabilityModel",
            "simulate_phased_degraded",
        ),
        ".memory": (
            "MemoryModel", "MemoryLedger", "TableCommitment", "spill_fraction",
            "MemoryAwareResult", "memory_aware_tree_schedule",
        ),
    },
)
__all__.append("__version__")
