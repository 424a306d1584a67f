"""Cost-model substrate: Table 2 parameters, work-vector estimation, D.

Implements Step 2 of the paper's pipeline: turning catalog statistics and
hardware parameters into multi-dimensional work vectors and interconnect
data volumes for every physical operator.
"""

from repro.cost.annotate import (
    AnnotatedQuery,
    PlanAnnotation,
    annotate_operator,
    annotate_plan,
    compute_operator_spec,
    compute_plan_annotation,
)
from repro.cost.communication import operator_data_volume
from repro.cost.cost_model import (
    build_work_vector,
    merge_work_vector,
    operator_cost,
    probe_work_vector,
    rescan_work_vector,
    scan_work_vector,
    sort_work_vector,
    store_work_vector,
    work_vector_3d,
)
from repro.cost.params import PAPER_PARAMETERS, SystemParameters

__all__ = [
    "SystemParameters",
    "PAPER_PARAMETERS",
    "scan_work_vector",
    "build_work_vector",
    "probe_work_vector",
    "sort_work_vector",
    "merge_work_vector",
    "store_work_vector",
    "rescan_work_vector",
    "work_vector_3d",
    "operator_cost",
    "operator_data_volume",
    "annotate_operator",
    "annotate_plan",
    "compute_operator_spec",
    "compute_plan_annotation",
    "PlanAnnotation",
    "AnnotatedQuery",
]
