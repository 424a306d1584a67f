"""A scalar-work list scheduler (1-D ablation baseline, Section 1's critique).

Previous approaches "hide the multi-dimensionality of query operators
under a scalar cost metric like 'work' or 'time'".  This baseline makes
that critique testable in isolation from the SYNCHRONOUS policy details:
it runs the *same* pipeline as OPERATORSCHEDULE — same degree selection,
same clone vectors, same Equation (3) evaluation — but sorts and packs
clones by their scalar total work onto the site with the least scalar
load, blind to which resources the load sits on.

Any gap between this scheduler and OPERATORSCHEDULE on the same input is
therefore attributable purely to multi-dimensional (per-resource) load
balancing.  :func:`one_dimensional_tree_schedule` lifts the packer to
full bushy plans by plugging it into the engine's synchronized-phase
driver, so the ablation is available at the workload level too
(registered as ``"onedim"``).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import repeat

from repro.exceptions import InfeasibleScheduleError, SchedulingError
from repro.core.cloning import (
    DEFAULT_COORDINATOR_POLICY,
    CoordinatorPolicy,
    OperatorSpec,
    clone_work_vectors,
    coarse_grain_degree,
)
from repro.core.granularity import CommunicationModel
from repro.core.operator_schedule import (
    OperatorScheduleResult,
    RootedPlacement,
    _check_degree_types,
    _check_rooted_home,
)
from repro.core.placement_heap import clone_run
from repro.core.resource_model import OverlapModel
from repro.core.schedule import Schedule
from repro.core.site import PlacedClone
from repro.engine.driver import schedule_phases
from repro.engine.metrics import MetricsRecorder
from repro.engine.registry import ScheduleRequest, register
from repro.engine.result import ScheduleResult
from repro.plans.generator import GeneratedQuery
from repro.plans.operator_tree import OperatorTree
from repro.plans.task_tree import TaskTree

__all__ = ["scalar_list_schedule", "one_dimensional_tree_schedule"]


def _place_rooted(
    schedule: Schedule,
    rooted: Sequence[RootedPlacement],
    comm: CommunicationModel,
    overlap: OverlapModel,
    policy: CoordinatorPolicy,
) -> dict[str, int]:
    """Place every rooted operator's clones at its fixed sites (Figure 3 step 1).

    One checked :meth:`Schedule.place_operator` per operator, in order.
    Returns each rooted operator's degree.

    Raises
    ------
    InfeasibleScheduleError
        If a rooted degree exceeds ``P`` or a home site lies outside
        ``0..P-1``.
    """
    degrees: dict[str, int] = {}
    for placement in rooted:
        _check_rooted_home(placement, schedule.p)
        name = placement.spec.name
        n = placement.degree
        clones = clone_work_vectors(placement.spec, n, comm, policy)
        schedule.place_operator(
            name,
            clone_run(
                placement.site_indices, zip(repeat(name), range(n), clones), overlap
            ),
        )
        degrees[name] = n
    return degrees


def scalar_list_schedule(
    floating: Sequence[OperatorSpec],
    rooted: Sequence[RootedPlacement] = (),
    *,
    p: int,
    comm: CommunicationModel,
    overlap: OverlapModel,
    f: float = 0.7,
    degrees: Mapping[str, int] | None = None,
    policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
    capacities: Sequence[float] | None = None,
) -> OperatorScheduleResult:
    """Schedule concurrent operators by scalar-work list scheduling.

    Identical inputs and outputs to
    :func:`repro.core.operator_schedule.operator_schedule` — rooted
    operators are placed first at their fixed homes — but floating clones
    are ordered by non-increasing *total* work and each is packed onto
    the allowable site with minimal total scalar load — the classical
    LPT/Graham rule applied to the scalar metric.  On a heterogeneous
    cluster (``capacities``) the rule compares capacity-normalized
    scalar loads; division by 1.0 is bit-exact, so the homogeneous case
    is byte-identical to the historical packer.
    """
    if not floating and not rooted:
        raise SchedulingError("nothing to schedule")
    specs = [*floating, *(r.spec for r in rooted)]
    d = specs[0].d
    for spec in specs:
        if spec.d != d:
            raise SchedulingError(f"operator {spec.name!r} has d={spec.d}; expected {d}")
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise SchedulingError("duplicate operator names")
    _check_degree_types(floating, degrees)

    schedule = Schedule(p, d, capacities)
    caps = [site.capacity for site in schedule.sites]

    # Rooted operators first, at their fixed homes (OPERATORSCHEDULE's
    # step 1); their scalar load still accrues, clone by clone in
    # placement order, so the packer routes floating clones away from them.
    chosen = _place_rooted(schedule, rooted, comm, overlap, policy)
    scalar_load = [
        sum((clone.work.total() for clone in site.clones), 0.0)
        for site in schedule.sites
    ]

    pending = []
    for spec in floating:
        if degrees is not None and spec.name in degrees:
            n = degrees[spec.name]
            if not 1 <= n <= p:
                raise InfeasibleScheduleError(
                    f"operator {spec.name!r}: degree {n} outside 1..{p}"
                )
        else:
            n = coarse_grain_degree(spec, p, f, comm, overlap, policy)
        chosen[spec.name] = n
        for k, work in enumerate(clone_work_vectors(spec, n, comm, policy)):
            pending.append((work.total(), spec.name, k, work))
    pending.sort(key=lambda item: (-item[0], item[1], item[2]))

    for total, op_name, k, work in pending:
        best = None
        best_load = None
        for site in schedule.sites:
            if site.hosts_operator(op_name):
                continue
            norm_load = scalar_load[site.index] / caps[site.index]
            if best is None or norm_load < best_load:
                best = site
                best_load = norm_load
        if best is None:
            raise InfeasibleScheduleError(
                f"no allowable site left for clone {k} of {op_name!r}"
            )
        schedule.place(
            best.index,
            PlacedClone(
                operator=op_name, clone_index=k, work=work, t_seq=overlap.t_seq(work)
            ),
        )
        scalar_load[best.index] += total

    return OperatorScheduleResult(
        schedule=schedule, degrees=chosen, makespan=schedule.makespan()
    )


def one_dimensional_tree_schedule(
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
    capacities: Sequence[float] | None = None,
) -> ScheduleResult:
    """TREESCHEDULE's phase walk with the scalar packer (1-D ablation).

    Same inputs as :func:`repro.core.tree_schedule.tree_schedule`; only
    the per-shelf packing rule differs, so any response-time gap at the
    plan level is attributable to multi-dimensional load balancing.
    """

    def pack(floating, rooted, forced, n_sites):
        return scalar_list_schedule(
            floating,
            rooted,
            p=n_sites,
            comm=comm,
            overlap=overlap,
            f=f,
            degrees=forced,
            policy=policy,
            capacities=capacities,
        )

    return schedule_phases(
        op_tree,
        task_tree,
        p=p,
        comm=comm,
        overlap=overlap,
        f=f,
        shelf=shelf,
        policy=policy,
        pack_phase=pack,
        algorithm="onedim",
        metrics=metrics,
    )


@register(
    "onedim",
    description="Scalar-work ablation: TREESCHEDULE's phase walk with "
    "one-dimensional LPT packing instead of the vector rule",
)
def _onedim(query: GeneratedQuery, request: ScheduleRequest) -> ScheduleResult:
    assert request.policy is not None
    return one_dimensional_tree_schedule(
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
