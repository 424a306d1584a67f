"""The generic synchronized-phase scheduling driver.

Every tree-level scheduler in this library walks the same skeleton
(Section 5.4): decompose the task tree into synchronized shelves, and per
shelf (1) root probes/rescans at the homes chosen for their anchors in
earlier shelves, (2) size each hash join's build by the combined
build + probe *stage* (the home chosen for the build is the home the
probe inherits; see :mod:`repro.core.tree_schedule` for the modelling
discussion), and (3) pack the shelf's clones onto the ``P`` sites.

Only step (3) differs between algorithms, so :func:`schedule_phases`
factors the skeleton out and takes the packer as a plug-in:

* TREESCHEDULE packs with the multi-dimensional list rule
  (:func:`repro.core.operator_schedule.operator_schedule`);
* the one-dimensional ablation packs with the scalar LPT rule
  (:func:`repro.baselines.one_dimensional.scalar_list_schedule`);
* the malleable variant re-chooses degrees per shelf with the Section 7
  greedy family (:func:`repro.core.malleable.malleable_schedule`).

The driver assembles the :class:`~repro.engine.result.ScheduleResult`
(timelines, totals, instrumentation) so packers stay tiny.
"""

from __future__ import annotations

import time
from collections.abc import Mapping, Sequence
from typing import Callable

from repro.exceptions import SchedulingError
from repro.core.cloning import (
    DEFAULT_COORDINATOR_POLICY,
    CoordinatorPolicy,
    OperatorSpec,
    coarse_grain_degree,
)
from repro.core.granularity import CommunicationModel
from repro.core.operator_schedule import (
    OperatorScheduleResult,
    RootedPlacement,
    operator_schedule,
)
from repro.core.resource_model import OverlapModel
from repro.core.schedule import OperatorHome, PhasedSchedule
from repro.engine.metrics import MetricsRecorder
from repro.engine.result import Instrumentation, ScheduleResult
from repro.obs.names import (
    COUNTER_FLOATING_OPERATORS,
    COUNTER_PHASES,
    COUNTER_ROOTED_OPERATORS,
    SPAN_DEGREE_SELECTION,
    SPAN_PACK,
    SPAN_PHASE_DECOMPOSITION,
    SPAN_SHELF,
    TIMER_PACK_PHASE,
)
from repro.obs.tracer import current_tracer
from repro.plans.operator_tree import OperatorTree
from repro.plans.phases import eager_shelf_phases, min_shelf_phases
from repro.plans.physical_ops import OperatorKind, anchor_operator_name
from repro.plans.task_tree import TaskTree

__all__ = ["SHELF_POLICIES", "PhasePacker", "schedule_phases"]

#: Shelf (phase-decomposition) policies accepted by :func:`schedule_phases`.
SHELF_POLICIES = {
    "min": min_shelf_phases,
    "eager": eager_shelf_phases,
}

#: A shelf packer: ``(floating, rooted, forced_degrees, p) -> result``.
PhasePacker = Callable[
    [Sequence[OperatorSpec], Sequence[RootedPlacement], Mapping[str, int], int],
    OperatorScheduleResult,
]


def schedule_phases(
    op_tree: OperatorTree,
    task_tree: TaskTree,
    *,
    p: int,
    comm: CommunicationModel,
    overlap: OverlapModel,
    f: float = 0.7,
    shelf: str = "min",
    policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
    pack_phase: PhasePacker | None = None,
    algorithm: str = "",
    metrics: MetricsRecorder | None = None,
    capacities: Sequence[float] | None = None,
) -> ScheduleResult:
    """Schedule a bushy plan shelf by shelf with a pluggable packer.

    Parameters mirror :func:`repro.core.tree_schedule.tree_schedule`;
    ``pack_phase`` receives the shelf's floating specs, rooted
    placements, and the forced join-stage degrees, and returns an
    :class:`~repro.core.operator_schedule.OperatorScheduleResult` over
    ``p`` sites.  The default packer is the Figure 3 list rule.

    ``capacities`` (heterogeneous clusters) is forwarded to the default
    packer; algorithms supplying their own ``pack_phase`` thread it into
    their closure themselves.

    Raises
    ------
    SchedulingError
        On an unknown shelf policy, or if a rooted operator's anchor has
        not been scheduled by the time its phase is reached.
    """
    try:
        shelf_fn = SHELF_POLICIES[shelf]
    except KeyError:
        raise SchedulingError(
            f"unknown shelf policy {shelf!r}; expected one of {sorted(SHELF_POLICIES)}"
        ) from None
    if pack_phase is None:

        def pack_phase(floating, rooted, forced, n_sites):
            # The default Figure 3 packer threads the recorder through so
            # kernel-level counters (placement_scans, clones_placed) and
            # the list_schedule timer land in the ScheduleResult
            # instrumentation alongside the driver's own phase counters.
            return operator_schedule(
                floating,
                rooted,
                p=n_sites,
                comm=comm,
                overlap=overlap,
                f=f,
                degrees=forced,
                policy=policy,
                metrics=metrics,
                capacities=capacities,
            )

    tracer = current_tracer()
    started = time.perf_counter()
    with tracer.span(SPAN_PHASE_DECOMPOSITION, policy=shelf):
        phases = shelf_fn(task_tree)
    phased = PhasedSchedule()
    homes: dict[str, OperatorHome] = {}
    degrees: dict[str, int] = {}
    labels: list[str] = []

    for phase_tasks in phases:
        label = ",".join(task.task_id for task in phase_tasks)
        with tracer.span(SPAN_SHELF, label=label):
            floating: list[OperatorSpec] = []
            rooted: list[RootedPlacement] = []
            forced_degrees: dict[str, int] = {}
            with tracer.span(SPAN_DEGREE_SELECTION):
                for task in phase_tasks:
                    for op in task.operators:
                        spec = op.require_spec()
                        if op.kind is OperatorKind.BUILD:
                            # Size the build by the whole join stage: the
                            # probe will be rooted at this home in a later
                            # phase.
                            probe_spec = op_tree.probe_of(
                                op.join_id
                            ).require_spec()
                            stage = OperatorSpec(
                                name=f"stage({op.join_id})",
                                work=spec.work + probe_spec.work,
                                data_volume=spec.data_volume
                                + probe_spec.data_volume,
                            )
                            forced_degrees[spec.name] = coarse_grain_degree(
                                stage, p, f, comm, overlap, policy
                            )
                            floating.append(spec)
                        elif (anchor := anchor_operator_name(op)) is not None:
                            # Probes run at their builds' homes (hash
                            # tables); rescans at their stores' homes
                            # (materialized pages).
                            try:
                                anchor_home = homes[anchor]
                            except KeyError:
                                raise SchedulingError(
                                    f"{op.name!r} scheduled before its anchor "
                                    f"{anchor!r}; task tree is inconsistent"
                                ) from None
                            rooted.append(
                                RootedPlacement(
                                    spec=spec,
                                    site_indices=anchor_home.site_indices,
                                )
                            )
                        else:
                            floating.append(spec)

            with tracer.span(
                SPAN_PACK, floating=len(floating), rooted=len(rooted)
            ):
                if metrics is not None:
                    metrics.count(COUNTER_PHASES)
                    metrics.count(COUNTER_FLOATING_OPERATORS, len(floating))
                    metrics.count(COUNTER_ROOTED_OPERATORS, len(rooted))
                    with metrics.timer(TIMER_PACK_PHASE):
                        result = pack_phase(floating, rooted, forced_degrees, p)
                else:
                    result = pack_phase(floating, rooted, forced_degrees, p)

            phased.append(result.schedule, label)
            labels.append(label)
            homes.update(result.schedule.homes())
            degrees.update(result.degrees)

    instrumentation = Instrumentation(
        wall_clock_seconds=time.perf_counter() - started,
        counters=dict(metrics.counters) if metrics is not None else {},
        timers=dict(metrics.timers) if metrics is not None else {},
    )
    return ScheduleResult(
        algorithm=algorithm,
        phased_schedule=phased,
        homes=homes,
        degrees=degrees,
        phase_labels=labels,
        instrumentation=instrumentation,
    )
