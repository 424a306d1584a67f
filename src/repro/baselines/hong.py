"""A static analog of Hong's XPRS pairing scheduler [Hon92].

Section 2 singles out Hong's method as the one prior approach that
exploits resource sharing: XPRS "combines one I/O-bound and one CPU-bound
operator pipeline through independent parallelism to maximize the system
resource utilizations", relying on *dynamic* adjustment of intra-operator
parallelism to sit at the IO-CPU balance point — which, the paper argues,
does not transfer to shared-nothing systems where repartitioning makes
dynamic rebalancing expensive.

This module implements the natural *static* shared-nothing analog as a
third comparator, sitting between SYNCHRONOUS (no sharing at all) and
TREESCHEDULE (global multi-dimensional sharing):

1. per MinShelf phase, classify each task as I/O-bound or CPU-bound by
   its aggregate work vector (disk vs. CPU component);
2. greedily pair the largest I/O-bound task with the largest CPU-bound
   task (leftover tasks form singletons);
3. partition the sites among pairs by minimax water-filling on scalar
   pair work — pairs run *independently* on disjoint blocks;
4. within a pair's block, schedule the pair's operators with the
   multi-dimensional list rule — resource sharing happens only *inside*
   a pair, the XPRS idea.

The gap TREESCHEDULE keeps over this baseline isolates the value of
*global* (all-operators, all-sites) sharing over pairwise sharing.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat

from repro.exceptions import SchedulingError
from repro.core.cloning import (
    DEFAULT_COORDINATOR_POLICY,
    CoordinatorPolicy,
    OperatorSpec,
    clone_work_vectors,
    coarse_grain_degree,
)
from repro.core.granularity import CommunicationModel
from repro.core.resource_model import OverlapModel
from repro.core.operator_schedule import operator_schedule
from repro.core.placement_heap import clone_run
from repro.core.schedule import OperatorHome, PhasedSchedule, Schedule
from repro.core.work_vector import Resource, vector_sum
from repro.engine.registry import ScheduleRequest, register
from repro.engine.result import Instrumentation, ScheduleResult
from repro.plans.generator import GeneratedQuery
from repro.plans.operator_tree import OperatorTree
from repro.plans.phases import min_shelf_phases
from repro.plans.physical_ops import OperatorKind, anchor_operator_name
from repro.plans.task_tree import Task, TaskTree
from repro.baselines.minimax import minimax_allocation

__all__ = ["HongResult", "hong_schedule"]


@dataclass(kw_only=True, repr=False)
class HongResult(ScheduleResult):
    """Outcome of the XPRS-style pairing scheduler.

    Extends the engine-wide :class:`~repro.engine.result.ScheduleResult`
    with the pairing provenance.

    Attributes
    ----------
    pairs:
        Per phase, the task-id groups that shared a block.
    """

    pairs: list[list[tuple[str, ...]]] = field(default_factory=list)


def _task_floating(task: Task) -> list:
    return [op for op in task.operators if anchor_operator_name(op) is None]


def _pair_tasks(tasks_with_work: list[tuple[Task, float, bool]]) -> list[list[Task]]:
    """Greedy complementary pairing: largest IO-bound with largest CPU-bound."""
    io_bound = sorted(
        (t for t in tasks_with_work if t[2]), key=lambda t: -t[1]
    )
    cpu_bound = sorted(
        (t for t in tasks_with_work if not t[2]), key=lambda t: -t[1]
    )
    groups: list[list[Task]] = []
    for io_entry, cpu_entry in zip(io_bound, cpu_bound):
        groups.append([io_entry[0], cpu_entry[0]])
    longer = io_bound if len(io_bound) > len(cpu_bound) else cpu_bound
    for entry in longer[min(len(io_bound), len(cpu_bound)) :]:
        groups.append([entry[0]])
    return groups


def hong_schedule(
    op_tree: OperatorTree,
    task_tree: TaskTree,
    *,
    p: int,
    comm: CommunicationModel,
    overlap: OverlapModel,
    f: float = 0.7,
    policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
    capacities: Sequence[float] | None = None,
) -> HongResult:
    """Schedule a bushy plan with pairwise (XPRS-style) resource sharing.

    Inputs mirror :func:`repro.core.tree_schedule.tree_schedule`.  On a
    heterogeneous cluster (``capacities``) the pairing and block
    allocation stay capacity-blind — Hong's 1992 policy assumed identical
    sites, and we preserve that as the baseline's behaviour — but the
    reported makespans account for site speeds.
    """
    if not op_tree.operators:
        raise SchedulingError("cannot schedule an empty operator tree")
    started = time.perf_counter()
    d = op_tree.operators[0].require_spec().d
    phases = min_shelf_phases(task_tree)
    phased = PhasedSchedule()
    homes: dict[str, OperatorHome] = {}
    degrees: dict[str, int] = {}
    all_pairs: list[list[tuple[str, ...]]] = []

    for phase_tasks in phases:
        schedule = Schedule(p, d, capacities)
        # Rooted operators first (probes at builds, rescans at stores).
        for task in phase_tasks:
            for op in task.operators:
                anchor = anchor_operator_name(op)
                if anchor is None:
                    continue
                spec = op.require_spec()
                try:
                    home = homes[anchor]
                except KeyError:
                    raise SchedulingError(
                        f"{op.name!r} scheduled before its anchor {anchor!r}"
                    ) from None
                clones = clone_work_vectors(spec, home.degree, comm, policy)
                schedule.place_operator(
                    spec.name,
                    clone_run(
                        home.site_indices,
                        zip(repeat(spec.name), range(home.degree), clones),
                        overlap,
                    ),
                )
                degrees[spec.name] = home.degree

        # Classify and pair the tasks that still have floating work.
        tasks_with_work = []
        for task in phase_tasks:
            floating = _task_floating(task)
            if not floating:
                continue
            aggregate = vector_sum(
                [op.require_spec().work for op in floating], d=d
            )
            # Block sizing must count the probe work each build will
            # anchor in a later phase (the probes run at the build's
            # home), exactly as the SYNCHRONOUS baseline does.
            scalar = aggregate.total() + sum(
                comm.transfer_cost(op.require_spec().data_volume)
                for op in floating
            )
            for op in floating:
                if op.kind is OperatorKind.BUILD:
                    probe_spec = op_tree.probe_of(op.join_id).require_spec()
                    scalar += probe_spec.processing_area + comm.transfer_cost(
                        probe_spec.data_volume
                    )
            io_heavy = aggregate[Resource.DISK] >= aggregate[Resource.CPU]
            tasks_with_work.append((task, scalar, io_heavy))
        if not tasks_with_work:
            label = ",".join(task.task_id for task in phase_tasks)
            phased.append(schedule, label)
            homes.update(schedule.homes())
            all_pairs.append([])
            continue

        groups = _pair_tasks(tasks_with_work)
        scalar_by_task = {id(t): s for t, s, _ in tasks_with_work}
        group_works = [
            sum(scalar_by_task[id(t)] for t in group) for group in groups
        ]
        site_pool = list(range(p))
        if len(groups) <= p:
            alloc = minimax_allocation(group_works, p)
        else:
            # More pairs than sites: collapse to one block per site by
            # round-robin (rare; tiny systems only).
            alloc = [1] * len(groups)
        blocks: list[list[int]] = []
        cursor = 0
        for n in alloc:
            blocks.append(
                [site_pool[(cursor + i) % p] for i in range(n)]
            )
            cursor += n

        all_pairs.append([tuple(t.task_id for t in group) for group in groups])

        # Within each pair's block: multi-dimensional list scheduling of
        # the pair's floating operators (sharing inside the pair only).
        for group, block in zip(groups, blocks):
            specs: list[OperatorSpec] = []
            forced: dict[str, int] = {}
            for task in group:
                for op in _task_floating(task):
                    spec = op.require_spec()
                    specs.append(spec)
                    if op.kind is OperatorKind.BUILD:
                        probe_spec = op_tree.probe_of(op.join_id).require_spec()
                        stage = OperatorSpec(
                            name=f"stage({op.join_id})",
                            work=spec.work + probe_spec.work,
                            data_volume=spec.data_volume + probe_spec.data_volume,
                        )
                        forced[spec.name] = coarse_grain_degree(
                            stage, len(block), f, comm, overlap, policy
                        )
            local = operator_schedule(
                specs,
                (),
                p=len(block),
                comm=comm,
                overlap=overlap,
                f=f,
                degrees=forced,
                policy=policy,
            )
            # Re-map the block-local placement onto the global sites.
            for site in local.schedule.sites:
                for clone in site.clones:
                    schedule.place(block[site.index], clone)
            degrees.update(local.degrees)

        label = ",".join(task.task_id for task in phase_tasks)
        phased.append(schedule, label)
        homes.update(schedule.homes())

    return HongResult(
        algorithm="hong",
        phased_schedule=phased,
        homes=homes,
        degrees=degrees,
        pairs=all_pairs,
        instrumentation=Instrumentation(
            wall_clock_seconds=time.perf_counter() - started
        ),
    )


@register(
    "hong",
    description="Static XPRS-style analog [Hon92]: pair IO-bound with "
    "CPU-bound tasks, share resources inside a pair only",
)
def _hong(query: GeneratedQuery, request: ScheduleRequest) -> ScheduleResult:
    assert request.policy is not None
    return hong_schedule(
        query.operator_tree,
        query.task_tree,
        p=request.p,
        comm=request.comm,
        overlap=request.overlap,
        f=request.f,
        policy=request.policy,
        capacities=request.capacities,
    )
