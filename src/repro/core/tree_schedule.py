"""The TREESCHEDULE algorithm (Section 5.4, Figure 4).

Scheduling an arbitrary query task tree must respect the blocking
constraints of the plan.  TREESCHEDULE splits the task tree into
synchronized MinShelf phases (deepest level first) and calls
OPERATORSCHEDULE on the operators of each phase:

* **floating** operators (scans and builds) are parallelized by the
  coarse-grain rule and packed by the list-scheduling heuristic;
* **rooted** operators inherit data-placement constraints from earlier
  phases: the probe of a hash join must execute at the home of its build,
  because the (memory-resident) hash table lives there.

One modelling refinement (documented in DESIGN.md): the coarse-grain
degree of a *build* is computed on the combined build + probe stage
(work vectors and data volumes summed).  The home chosen for the build is
the home the probe inherits, so the granularity trade-off that matters is
the whole join stage's computation-to-communication ratio; sizing the
build by its own (small) processing area alone would throttle the — much
heavier — probe to a handful of sites and is not what a parallel hash
join does physically (both inputs are partitioned by the same hash
function across the same sites [DGS+90, Sch90]).

The phase walk itself (classify floating vs. rooted, apply the join-stage
granularity rule, pack each shelf) lives in
:func:`repro.engine.driver.schedule_phases`; TREESCHEDULE is that driver
with its default packer, the Figure 3 multi-dimensional list rule.

The response time of the resulting :class:`~repro.core.schedule.PhasedSchedule`
is the sum of the per-phase Equation (3) makespans.  Proposition 5.2:
TREESCHEDULE runs in ``O(J P (J + log P))`` time for a ``J``-node plan.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.cloning import DEFAULT_COORDINATOR_POLICY, CoordinatorPolicy
from repro.core.granularity import CommunicationModel
from repro.core.resource_model import OverlapModel
from repro.engine.driver import SHELF_POLICIES, schedule_phases
from repro.engine.metrics import MetricsRecorder
from repro.engine.registry import ScheduleRequest, register
from repro.engine.result import ScheduleResult
from repro.obs.names import SPAN_TREE_SCHEDULE
from repro.obs.tracer import current_tracer
from repro.plans.generator import GeneratedQuery
from repro.plans.operator_tree import OperatorTree
from repro.plans.task_tree import TaskTree

__all__ = ["SHELF_POLICIES", "TreeScheduleResult", "tree_schedule"]

#: Historical alias: TREESCHEDULE now returns the engine-wide result type.
TreeScheduleResult = ScheduleResult


def tree_schedule(
    op_tree: OperatorTree,
    task_tree: TaskTree,
    *,
    p: int,
    comm: CommunicationModel,
    overlap: OverlapModel,
    f: float = 0.7,
    shelf: str = "min",
    policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
    metrics: MetricsRecorder | None = None,
    capacities: "Sequence[float] | None" = None,
) -> ScheduleResult:
    """Schedule a bushy plan's operator tree in synchronized phases.

    Parameters
    ----------
    op_tree:
        The macro-expanded, *cost-annotated* operator tree (every
        operator must carry an :class:`~repro.core.cloning.OperatorSpec`;
        see :func:`repro.cost.annotate.annotate_plan`).
    task_tree:
        The corresponding query task tree.
    p:
        Number of system sites.
    comm:
        Communication-cost model.
    overlap:
        Overlap model for sequential times.
    f:
        Granularity parameter of the coarse-grain restriction.
    shelf:
        Phase-decomposition policy: ``"min"`` (MinShelf, the paper's
        choice — tasks as late as possible) or ``"eager"`` (tasks as
        early as possible; see :func:`repro.plans.phases.eager_shelf_phases`).
    policy:
        Startup charging policy (EA1 default).
    metrics:
        Optional :class:`~repro.engine.metrics.MetricsRecorder` for
        construction-time instrumentation.
    capacities:
        Optional per-site capacities for a heterogeneous cluster
        (``None`` or all 1.0 keeps the byte-identical homogeneous path).

    Returns
    -------
    ScheduleResult

    Raises
    ------
    SchedulingError
        If a probe's build has not been scheduled by the time the probe's
        phase is reached (would indicate a malformed task tree).
    """
    with current_tracer().span(SPAN_TREE_SCHEDULE, p=p, f=f, shelf=shelf):
        return schedule_phases(
            op_tree,
            task_tree,
            p=p,
            comm=comm,
            overlap=overlap,
            f=f,
            shelf=shelf,
            policy=policy,
            algorithm="treeschedule",
            metrics=metrics,
            capacities=capacities,
        )


@register(
    "treeschedule",
    description="Section 5.4 TREESCHEDULE: MinShelf phases + "
    "multi-dimensional list packing with the coarse-grain rule",
)
def _treeschedule(query: GeneratedQuery, request: ScheduleRequest) -> ScheduleResult:
    assert request.policy is not None
    return tree_schedule(
        query.operator_tree,
        query.task_tree,
        p=request.p,
        comm=request.comm,
        overlap=request.overlap,
        f=request.f,
        policy=request.policy,
        metrics=request.metrics,
        capacities=request.capacities,
    )
