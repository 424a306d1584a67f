"""The OPTBOUND lower bound on the optimal CG_f execution (Section 6.2).

The paper's final experiment compares TREESCHEDULE against a hypothetical
algorithm achieving a lower bound on the optimal response time:

    ``OPTBOUND = max{ l(S) / P,  T(CP) }``

where

* ``S`` is the set of work vectors for *all* operators of the plan,
  assuming zero communication costs — no schedule can finish before the
  most loaded resource class has served its aggregate demand across the
  ``P`` sites; and
* ``T(CP)`` is the total response time of the critical (most
  time-consuming) path in the plan, assuming the maximum allowable degree
  of coarse-grain parallelism for each operator — blocking edges force
  the tasks along any root-to-leaf chain of the task tree to run
  sequentially, and within a task (a pipeline) no operator can finish
  before the slowest one, so the best conceivable chain time is the sum
  over the chain's tasks of each task's fastest operator ceiling.

By assumption A4 (parallel times are non-increasing up to the degree cap)
OPTBOUND is indeed a lower bound on the length of the optimal ``CG_f``
execution [GI96].

Two details make the ceiling in ``T(CP)`` delicate:

* the degree rule must be at least as permissive as the scheduler being
  bounded.  TREESCHEDULE sizes a hash join's build (and hence its rooted
  probe) by the combined build+probe *stage* (see
  :mod:`repro.core.tree_schedule`), so the ceiling here uses the same
  stage rule — a per-operator ceiling would overstate the bound at small
  ``f`` and stop being a lower bound;
* with ``respect_granularity=False`` the ceiling ignores the CG_f
  condition entirely (each operator may use any degree up to ``P``),
  yielding a *universal* lower bound valid for schedulers that do not
  respect granularity, such as the SYNCHRONOUS baseline.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from repro.exceptions import SchedulingError
from repro.core.cloning import (
    DEFAULT_COORDINATOR_POLICY,
    CoordinatorPolicy,
    OperatorSpec,
    parallel_time,
    response_optimal_degree,
)
from repro.core.granularity import CommunicationModel
from repro.core.resource_model import OverlapModel
from repro.core.work_vector import set_length
from repro.engine.registry import ScheduleRequest, register
from repro.engine.result import ScheduleResult
from repro.plans.generator import GeneratedQuery
from repro.plans.operator_tree import OperatorTree
from repro.plans.physical_ops import OperatorKind, PhysicalOperator
from repro.plans.task_tree import Task, TaskTree

__all__ = ["opt_bound", "critical_path_time", "congestion_bound"]


def congestion_bound(
    op_tree: OperatorTree, p: int, *, total_capacity: float | None = None
) -> float:
    """Return ``l(S) / C`` for the zero-communication work vectors.

    ``S`` holds every operator's processing work vector; its length is the
    aggregate demand on the busiest resource class, which the cluster can
    serve no faster than ``l(S)/C`` where ``C`` is the total capacity.
    ``C`` defaults to ``P`` (homogeneous, bit-identical to the historical
    ``/ p``); pass the sum of site capacities for a heterogeneous
    cluster.
    """
    if p < 1:
        raise SchedulingError(f"number of sites must be >= 1, got {p}")
    specs = [op.require_spec() for op in op_tree.operators]
    if not specs:
        return 0.0
    denom = float(p) if total_capacity is None else float(total_capacity)
    if not denom > 0.0:
        raise SchedulingError(
            f"total capacity must be positive, got {total_capacity!r}"
        )
    return set_length([spec.work for spec in specs]) / denom


def _degree_ceiling(
    op: PhysicalOperator,
    op_tree: OperatorTree,
    p: int,
    f: float,
    comm: CommunicationModel,
    overlap: OverlapModel,
    policy: CoordinatorPolicy,
    respect_granularity: bool,
) -> int:
    """Maximum *allowable* degree for one operator (no A4 capping here:
    the optimum may pick any degree up to this ceiling, and the caller
    takes the fastest choice within it)."""
    if not respect_granularity:
        return p
    spec = op.require_spec()
    if op.kind in (OperatorKind.BUILD, OperatorKind.PROBE):
        # Same join-stage rule as TREESCHEDULE: build and probe share the
        # hash table's home, sized by their combined footprint.
        assert op.join_id is not None
        build_spec = op_tree.build_of(op.join_id).require_spec()
        probe_spec = op_tree.probe_of(op.join_id).require_spec()
        stage = OperatorSpec(
            name=f"stage({op.join_id})",
            work=build_spec.work + probe_spec.work,
            data_volume=build_spec.data_volume + probe_spec.data_volume,
        )
        n_max = comm.n_max(f, stage.processing_area, stage.data_volume)
    else:
        n_max = comm.n_max(f, spec.processing_area, spec.data_volume)
    return max(1, min(n_max, p))


def _task_floor(
    task: Task,
    op_tree: OperatorTree,
    p: int,
    f: float,
    comm: CommunicationModel,
    overlap: OverlapModel,
    policy: CoordinatorPolicy,
    respect_granularity: bool,
) -> float:
    """Fastest conceivable completion of one task: its slowest operator at
    the maximum allowable degree."""
    floor = 0.0
    for op in task.operators:
        spec = op.require_spec()
        cap = _degree_ceiling(
            op, op_tree, p, f, comm, overlap, policy, respect_granularity
        )
        # The optimum may run the operator at ANY degree up to the
        # ceiling; its fastest choice is the response-time-optimal degree
        # within that range (the argmin of T_par over 1..cap).
        n_best = response_optimal_degree(spec, cap, comm, overlap, policy)
        floor = max(floor, parallel_time(spec, n_best, comm, overlap, policy))
    return floor


def critical_path_time(
    task_tree: TaskTree,
    op_tree: OperatorTree,
    *,
    p: int,
    f: float,
    comm: CommunicationModel,
    overlap: OverlapModel,
    policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
    respect_granularity: bool = True,
) -> float:
    """Return ``T(CP)``: the most time-consuming root-to-leaf task chain.

    Computed bottom-up over the task tree:
    ``T(task) = floor(task) + max(T(child))``, where ``floor(task)`` is
    the task's fastest-possible pipeline time under the degree ceilings
    described in the module docstring.
    """
    memo: dict[Task, float] = {}

    def chain_time(task: Task) -> float:
        if task in memo:
            return memo[task]
        children = task_tree.children(task)
        below = max((chain_time(child) for child in children), default=0.0)
        memo[task] = (
            _task_floor(
                task, op_tree, p, f, comm, overlap, policy, respect_granularity
            )
            + below
        )
        return memo[task]

    return chain_time(task_tree.root)


def opt_bound(
    op_tree: OperatorTree,
    task_tree: TaskTree,
    *,
    p: int,
    f: float,
    comm: CommunicationModel,
    overlap: OverlapModel,
    policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
    respect_granularity: bool = True,
    capacities: "Sequence[float] | None" = None,
) -> float:
    """Return ``OPTBOUND = max{ l(S)/C, T(CP) }`` for an annotated plan.

    With ``respect_granularity=True`` (default) this bounds the optimal
    ``CG_f`` execution under the join-stage degree rule — the space
    TREESCHEDULE searches.  With ``False`` it bounds *any* execution with
    per-operator degrees up to ``P`` (valid for SYNCHRONOUS too).

    On a heterogeneous cluster (``capacities``) the congestion side
    divides by the total capacity ``C``, and the critical-path side is
    relaxed by the fastest site class: a chain cannot finish faster than
    its unit-site time divided by ``max_j c_j``.  Both relaxations keep
    OPTBOUND a valid lower bound; with ``capacities=None`` the value is
    bit-identical to the homogeneous bound.
    """
    cp = critical_path_time(
        task_tree,
        op_tree,
        p=p,
        f=f,
        comm=comm,
        overlap=overlap,
        policy=policy,
        respect_granularity=respect_granularity,
    )
    if capacities is None:
        return max(congestion_bound(op_tree, p), cp)
    return max(
        congestion_bound(op_tree, p, total_capacity=float(sum(capacities))),
        cp / max(capacities),
    )


@register(
    "optbound",
    description="Section 6.2 lower bound on the optimal CG_f execution: "
    "max of congestion bound and critical-path time",
    kind="bound",
)
def _optbound(query: GeneratedQuery, request: ScheduleRequest) -> ScheduleResult:
    assert request.policy is not None
    started = time.perf_counter()
    value = opt_bound(
        query.operator_tree,
        query.task_tree,
        p=request.p,
        f=request.f,
        comm=request.comm,
        overlap=request.overlap,
        policy=request.policy,
        capacities=request.capacities,
    )
    return ScheduleResult.from_value(
        "optbound", value, wall_clock_seconds=time.perf_counter() - started
    )
