"""The SYNCHRONOUS one-dimensional adversary (Section 6.1).

The paper compares TREESCHEDULE against a scheduler that combines

* the *synchronous execution time* processor-allocation method of Hsiao,
  Chen and Yu [HCY94] for independent parallelism — the processors
  allotted to concurrent subtrees are partitioned proportionally to their
  (scalar) work so the subtrees complete at approximately the same time —
  with
* the *two-phase minimax* technique of Lo et al. [LCRY93] for optimally
  distributing processors across the stages of a hash-join pipeline,

"appropriately extended to account for the data redistribution costs in a
shared-nothing environment".  The defining characteristic is its
**one-dimensional** view: each operator is a scalar amount of work, sites
are allocated in *disjoint* groups (no resource sharing between concurrent
operators), and per-stage times are ``work / processors``.

Concretely, per MinShelf phase:

1. rooted operators (probes) are placed at their builds' homes;
2. the phase's sites are partitioned among tasks by integer minimax
   water-filling on scalar task work (processing area plus ``beta * D``
   redistribution time) — the integer realization of "complete at
   approximately the same time" (if a phase has more tasks than sites,
   tasks are LPT-packed onto single-site blocks);
3. within each task, its block is partitioned among the floating
   operators by minimax water-filling on scalar operator work, capped at
   each operator's response-time-optimal degree (the shared-nothing
   extension: startup costs grow with the degree, so uncapped allocation
   would speed the baseline *down*);
4. the resulting placement is evaluated under the *same*
   multi-dimensional Equation (3) model as every other algorithm, which
   is exactly how the paper compares schedule response times.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from itertools import repeat

from repro.exceptions import SchedulingError
from repro.core.cloning import (
    DEFAULT_COORDINATOR_POLICY,
    CoordinatorPolicy,
    OperatorSpec,
    clone_work_vectors,
    response_optimal_degree,
)
from repro.core.granularity import CommunicationModel
from repro.core.placement_heap import clone_run
from repro.core.resource_model import OverlapModel
from repro.core.schedule import OperatorHome, PhasedSchedule, Schedule
from repro.engine.registry import ScheduleRequest, register
from repro.engine.result import Instrumentation, ScheduleResult
from repro.plans.generator import GeneratedQuery
from repro.plans.operator_tree import OperatorTree
from repro.plans.phases import min_shelf_phases
from repro.plans.physical_ops import OperatorKind, anchor_operator_name
from repro.plans.task_tree import Task, TaskTree
from repro.baselines.minimax import minimax_allocation

__all__ = ["SynchronousResult", "synchronous_schedule"]

#: Historical alias: SYNCHRONOUS now returns the engine-wide result type.
SynchronousResult = ScheduleResult


def _scalar_work(spec: OperatorSpec, comm: CommunicationModel) -> float:
    """The baseline's 1-D work metric: processing area + redistribution."""
    return spec.processing_area + comm.transfer_cost(spec.data_volume)


def _stage_specs(
    op_spec: OperatorSpec,
    op_kind: OperatorKind,
    join_id: str | None,
    op_tree: OperatorTree,
) -> tuple[OperatorSpec, ...]:
    """Specs of one pipeline *stage* in the Lo et al. sense.

    [LCRY93] allocates processors per hash join: the join's build and
    probe run on the same processor group (the probe probes the table
    built there).  A build stage therefore carries its probe's spec too —
    the processors sized for the build are the ones the probe will be
    rooted at in a later phase.
    """
    if op_kind is OperatorKind.BUILD and join_id is not None:
        probe = op_tree.probe_of(join_id)
        return (op_spec, probe.require_spec())
    return (op_spec,)


def _place_operator(
    schedule: Schedule,
    spec: OperatorSpec,
    sites: list[int],
    comm: CommunicationModel,
    overlap: OverlapModel,
    policy: CoordinatorPolicy,
) -> None:
    """Clone ``spec`` onto exactly the given sites (degree = len(sites))."""
    n = len(sites)
    clones = clone_work_vectors(spec, n, comm, policy)
    schedule.place_operator(
        spec.name, clone_run(sites, zip(repeat(spec.name), range(n), clones), overlap)
    )


def _allocate_blocks(works: list[float], site_pool: list[int]) -> list[list[int]]:
    """Split ``site_pool`` into contiguous blocks by minimax water-filling."""
    alloc = minimax_allocation(works, len(site_pool))
    blocks: list[list[int]] = []
    cursor = 0
    for n in alloc:
        blocks.append(site_pool[cursor : cursor + n])
        cursor += n
    return blocks


def _lpt_pack(works: list[float], site_pool: list[int]) -> list[list[int]]:
    """Assign each item one site, packing by scalar LPT (items > sites)."""
    loads = {j: 0.0 for j in site_pool}
    order = sorted(range(len(works)), key=lambda i: (-works[i], i))
    assignment: list[list[int]] = [[] for _ in works]
    for i in order:
        j = min(loads, key=lambda site: (loads[site], site))
        assignment[i] = [j]
        loads[j] += works[i]
    return assignment


def _schedule_phase_tasks(
    schedule: Schedule,
    phase_tasks: list[Task],
    homes: dict[str, OperatorHome],
    degrees: dict[str, int],
    op_tree: OperatorTree,
    p: int,
    comm: CommunicationModel,
    overlap: OverlapModel,
    policy: CoordinatorPolicy,
) -> None:
    # Rooted operators first: a probe runs where its hash table lives.
    floating_by_task: list[
        tuple[Task, list[tuple[OperatorSpec, tuple[OperatorSpec, ...]]]]
    ] = []
    for task in phase_tasks:
        floating: list[tuple[OperatorSpec, tuple[OperatorSpec, ...]]] = []
        for op in task.operators:
            spec = op.require_spec()
            anchor = anchor_operator_name(op)
            if anchor is not None:
                try:
                    home = homes[anchor]
                except KeyError:
                    raise SchedulingError(
                        f"{op.name!r} scheduled before its anchor {anchor!r}"
                    ) from None
                _place_operator(
                    schedule, spec, list(home.site_indices), comm, overlap, policy
                )
                degrees[spec.name] = home.degree
            else:
                floating.append(
                    (spec, _stage_specs(spec, op.kind, op.join_id, op_tree))
                )
        if floating:
            floating_by_task.append((task, floating))

    if not floating_by_task:
        return

    site_pool = list(range(p))
    task_works = [
        sum(
            _scalar_work(member, comm)
            for _, stage in floating
            for member in stage
        )
        for _, floating in floating_by_task
    ]
    if len(floating_by_task) <= p:
        task_blocks = _allocate_blocks(task_works, site_pool)
    else:
        task_blocks = _lpt_pack(task_works, site_pool)

    for (task, floating), block in zip(floating_by_task, task_blocks):
        op_works = [
            sum(_scalar_work(member, comm) for member in stage)
            for _, stage in floating
        ]
        specs = [spec for spec, _ in floating]
        if len(floating) <= len(block):
            # A stage may be allotted processors up to the largest
            # response-time-optimal degree among its members (the probe of
            # a build stage typically dominates).
            caps = [
                max(
                    response_optimal_degree(member, len(block), comm, overlap, policy)
                    for member in stage
                )
                for _, stage in floating
            ]
            alloc = minimax_allocation(op_works, len(block), caps)
            cursor = 0
            op_sites: list[list[int]] = []
            for n in alloc:
                op_sites.append(block[cursor : cursor + n])
                cursor += n
        else:
            op_sites = _lpt_pack(op_works, block)
        for spec, sites in zip(specs, op_sites):
            _place_operator(schedule, spec, sites, comm, overlap, policy)
            degrees[spec.name] = len(sites)


def synchronous_schedule(
    op_tree: OperatorTree,
    task_tree: TaskTree,
    *,
    p: int,
    comm: CommunicationModel,
    overlap: OverlapModel,
    policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
    capacities: Sequence[float] | None = None,
) -> ScheduleResult:
    """Schedule a bushy plan with the one-dimensional SYNCHRONOUS method.

    Inputs mirror :func:`repro.core.tree_schedule.tree_schedule` except
    that no granularity parameter exists — the baseline "is, of course,
    not affected by different values of f" (Section 6.2).  On a
    heterogeneous cluster (``capacities``) the minimax block allocation
    stays capacity-blind — the 1993/94 baselines assumed identical sites
    and we preserve that behaviour — but the reported makespans account
    for site speeds.

    Returns
    -------
    ScheduleResult
    """
    if not op_tree.operators:
        raise SchedulingError("cannot schedule an empty operator tree")
    started = time.perf_counter()
    d = op_tree.operators[0].require_spec().d
    phases = min_shelf_phases(task_tree)
    phased = PhasedSchedule()
    homes: dict[str, OperatorHome] = {}
    degrees: dict[str, int] = {}
    labels: list[str] = []

    for phase_tasks in phases:
        schedule = Schedule(p, d, capacities)
        _schedule_phase_tasks(
            schedule, phase_tasks, homes, degrees, op_tree, p, comm, overlap, policy
        )
        label = ",".join(task.task_id for task in phase_tasks)
        phased.append(schedule, label)
        labels.append(label)
        homes.update(schedule.homes())

    return ScheduleResult(
        algorithm="synchronous",
        phased_schedule=phased,
        homes=homes,
        degrees=degrees,
        phase_labels=labels,
        instrumentation=Instrumentation(
            wall_clock_seconds=time.perf_counter() - started
        ),
    )


@register(
    "synchronous",
    description="Section 6.1 one-dimensional adversary: synchronous "
    "execution time [HCY94] + two-phase minimax [LCRY93], disjoint blocks",
)
def _synchronous(query: GeneratedQuery, request: ScheduleRequest) -> ScheduleResult:
    assert request.policy is not None
    return synchronous_schedule(
        query.operator_tree,
        query.task_tree,
        p=request.p,
        comm=request.comm,
        overlap=request.overlap,
        policy=request.policy,
        capacities=request.capacities,
    )
