"""Core scheduling model and algorithms of the SIGMOD'96 paper.

This subpackage is self-contained (no dependency on the query-plan or
cost-model substrates): it implements work vectors (Section 4.1/5.1), the
preemptable-resource usage model, coarse-grain parallelization
(Section 4), the OPERATORSCHEDULE list-scheduling heuristic (Section 5.3),
suboptimality bounds (Theorem 5.1), the malleable extension (Section 7),
an exact solver for small instances, and a vector-packing ablation grid.

The phase-based TREESCHEDULE algorithm (Section 5.4) lives in
:mod:`repro.core.tree_schedule` but is *not* imported here because it
depends on the plan substrate; import it via :mod:`repro` or directly.
"""

from repro.core.batch import (
    eq3_makespans_over_epsilon,
    family_congestions,
    lower_bounds_batch,
    set_length_batch,
)
from repro.core.bounds import (
    BoundCertificate,
    certify,
    lower_bound,
    lower_bound_family,
    slowest_operator_time,
    theorem51_coarse_grain_bound,
    theorem51_fixed_degree_bound,
)
from repro.core.cluster import ClusterSpec, SiteClass, parse_cluster_spec
from repro.core.cloning import (
    DEFAULT_COORDINATOR_POLICY,
    CoordinatorPolicy,
    OperatorSpec,
    clone_work_vectors,
    coarse_grain_degree,
    parallel_time,
    response_optimal_degree,
    total_work_vector,
)
from repro.core.granularity import (
    CommunicationModel,
    granularity_ratio,
    is_coarse_grain,
    processing_area,
)
from repro.core.malleable import (
    CandidateFamily,
    MalleableResult,
    ParallelizationCandidate,
    candidate_parallelizations,
    enumerate_candidate_family,
    malleable_schedule,
    malleable_tree_schedule,
    select_parallelization,
    select_parallelization_batched,
)
from repro.core.operator_schedule import (
    OperatorScheduleResult,
    RootedPlacement,
    operator_schedule,
)
from repro.core.optimal import (
    OptimalResult,
    optimal_malleable_makespan,
    optimal_schedule,
)
from repro.core.resource_model import (
    PERFECT_OVERLAP,
    ZERO_OVERLAP,
    ConvexCombinationOverlap,
    OverlapModel,
    ResourceUsage,
    validate_sequential_time,
)
from repro.core.schedule import OperatorHome, PhasedSchedule, Schedule
from repro.core.site import PlacedClone, Site
from repro.core.skew import (
    skewed_clone_work_vectors,
    skewed_makespan,
    skewed_response_time,
    zipf_weights,
)
from repro.core.placement_heap import SiteHeap
from repro.core.reschedule import (
    RescheduleStats,
    ScheduleDelta,
    reschedule_reference,
    reschedule_schedule,
)
from repro.core.vector_packing import (
    CloneItem,
    PlacementRule,
    SortKey,
    pack_vectors,
    pack_vectors_reference,
)
from repro.core.work_vector import (
    DEFAULT_DIMENSIONALITY,
    Resource,
    WorkVector,
    dominates,
    set_length,
    vector_sum,
)

__all__ = [
    # work_vector
    "WorkVector",
    "Resource",
    "DEFAULT_DIMENSIONALITY",
    "vector_sum",
    "set_length",
    "dominates",
    # resource_model
    "OverlapModel",
    "ConvexCombinationOverlap",
    "PERFECT_OVERLAP",
    "ZERO_OVERLAP",
    "ResourceUsage",
    "validate_sequential_time",
    # cluster
    "ClusterSpec",
    "SiteClass",
    "parse_cluster_spec",
    # granularity
    "CommunicationModel",
    "processing_area",
    "granularity_ratio",
    "is_coarse_grain",
    # cloning
    "OperatorSpec",
    "CoordinatorPolicy",
    "DEFAULT_COORDINATOR_POLICY",
    "clone_work_vectors",
    "total_work_vector",
    "parallel_time",
    "response_optimal_degree",
    "coarse_grain_degree",
    # site / schedule
    "Site",
    "PlacedClone",
    "Schedule",
    "PhasedSchedule",
    "OperatorHome",
    # operator_schedule
    "RootedPlacement",
    "OperatorScheduleResult",
    "operator_schedule",
    # bounds
    "BoundCertificate",
    "certify",
    "lower_bound",
    "lower_bound_family",
    "slowest_operator_time",
    "theorem51_fixed_degree_bound",
    "theorem51_coarse_grain_bound",
    # batch
    "set_length_batch",
    "lower_bounds_batch",
    "eq3_makespans_over_epsilon",
    "family_congestions",
    # malleable
    "ParallelizationCandidate",
    "CandidateFamily",
    "candidate_parallelizations",
    "enumerate_candidate_family",
    "select_parallelization",
    "select_parallelization_batched",
    "malleable_schedule",
    "malleable_tree_schedule",
    "MalleableResult",
    # optimal
    "OptimalResult",
    "optimal_schedule",
    "optimal_malleable_makespan",
    # vector_packing / placement heap
    "SortKey",
    "PlacementRule",
    "CloneItem",
    "pack_vectors",
    "pack_vectors_reference",
    "SiteHeap",
    # incremental rescheduling
    "ScheduleDelta",
    "RescheduleStats",
    "reschedule_schedule",
    "reschedule_reference",
    # skew (EA1 relaxation)
    "zipf_weights",
    "skewed_clone_work_vectors",
    "skewed_makespan",
    "skewed_response_time",
]
