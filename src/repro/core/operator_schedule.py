"""The OPERATORSCHEDULE list-scheduling heuristic (Section 5.3, Figure 3).

Scheduling a collection of independent query tasks — concurrently executable
operators forming producer/consumer pipelines — reduces to an instance of
the ``d``-dimensional *bin-design* problem (the dual of vector packing)
[CGJ84]: pack the ``N = sum_i N_i`` clone work vectors into ``P``
``d``-dimensional bins (the sites), subject to

* **(A)** no two vectors of the same operator in the same bin, and
* **(B)** the data-placement constraints of rooted operators,

minimizing the required common bin capacity, i.e. the maximum resource
usage in the system.  The problem is NP-hard (it contains classical
multiprocessor scheduling at ``d = 1``), so the paper uses a Graham-style
list scheduling heuristic [Gra66]:

1. place the work vectors of all rooted operators at their fixed sites;
2. compute the coarse-grain degree of parallelism
   ``N_i = min{N_max(op_i, f), P}`` for every floating operator and clone
   it into ``N_i`` work vectors;
3. consider the floating work vectors in non-increasing order of their
   maximum component ``l(w̄)``; pack each into the *least filled allowable*
   site — the site ``s`` with minimal ``l(work(s))`` among those holding no
   other clone of the same operator.

Theorem 5.1 bounds the makespan within ``2d + 1`` of the optimal schedule
with the same degrees of parallelism, and within ``2d(fd + 1) + 1`` of the
optimal ``CG_f`` schedule.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from contextlib import nullcontext
from dataclasses import dataclass

from repro.exceptions import InfeasibleScheduleError, SchedulingError
from repro.core.cloning import (
    DEFAULT_COORDINATOR_POLICY,
    CoordinatorPolicy,
    OperatorSpec,
    clone_work_vectors,
    coarse_grain_degree,
)
from repro.core.granularity import CommunicationModel
from repro.core.placement_heap import SiteHeap
from repro.core.resource_model import OverlapModel
from repro.obs.names import (
    COUNTER_CLONES_PLACED,
    COUNTER_PLACEMENT_SCANS,
    SPAN_LIST_PLACEMENT,
    TIMER_LIST_SCHEDULE,
)
from repro.obs.tracer import current_tracer
from repro.core.schedule import Schedule
from repro.core.site import PlacedClone
from repro.core.work_vector import WorkVector

__all__ = ["RootedPlacement", "OperatorScheduleResult", "operator_schedule"]


@dataclass(frozen=True)
class RootedPlacement:
    """A rooted operator together with its fixed home.

    The clone work vectors are derived from ``spec`` exactly as for a
    floating operator of the same degree; only the placement is
    predetermined (e.g. a probe executing at the sites holding its hash
    table).

    Attributes
    ----------
    spec:
        The operator's requirements.
    site_indices:
        Site of each clone, by clone index (entry 0 hosts the coordinator).
    """

    spec: OperatorSpec
    site_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.site_indices:
            raise SchedulingError(
                f"rooted operator {self.spec.name!r} needs at least one site"
            )
        if len(set(self.site_indices)) != len(self.site_indices):
            raise SchedulingError(
                f"rooted operator {self.spec.name!r} repeats a site "
                f"{self.site_indices} (constraint (A))"
            )

    @property
    def degree(self) -> int:
        """The rooted operator's (fixed) degree of parallelism."""
        return len(self.site_indices)


@dataclass(frozen=True)
class OperatorScheduleResult:
    """Outcome of one OPERATORSCHEDULE invocation.

    Attributes
    ----------
    schedule:
        The clone-to-site mapping (constraints (A) and (B) hold).
    degrees:
        Chosen degree of parallelism per operator (floating and rooted).
    makespan:
        The Equation (3) response time of ``schedule``.
    """

    schedule: Schedule
    degrees: dict[str, int]
    makespan: float


def _check_unique_names(
    floating: Sequence[OperatorSpec], rooted: Sequence[RootedPlacement]
) -> None:
    seen: set[str] = set()
    for spec in [*floating, *(r.spec for r in rooted)]:
        if spec.name in seen:
            raise SchedulingError(f"duplicate operator name {spec.name!r}")
        seen.add(spec.name)


def _common_dimensionality(
    floating: Sequence[OperatorSpec], rooted: Sequence[RootedPlacement]
) -> int:
    specs = [*floating, *(r.spec for r in rooted)]
    if not specs:
        raise SchedulingError("nothing to schedule: no floating or rooted operators")
    d = specs[0].d
    for spec in specs:
        if spec.d != d:
            raise SchedulingError(
                f"operator {spec.name!r} has d={spec.d}; expected {d}"
            )
    return d


def operator_schedule(
    floating: Sequence[OperatorSpec],
    rooted: Sequence[RootedPlacement] = (),
    *,
    p: int,
    comm: CommunicationModel,
    overlap: OverlapModel,
    f: float = 0.7,
    degrees: Mapping[str, int] | None = None,
    policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
    metrics=None,
    capacities: Sequence[float] | None = None,
) -> OperatorScheduleResult:
    """Schedule concurrent operators on ``p`` sites (Figure 3).

    Parameters
    ----------
    floating:
        Operators whose parallelization and placement the scheduler is
        free to choose.
    rooted:
        Operators whose homes are fixed by data placement constraints.
    p:
        Number of system sites ``P``.
    comm:
        Communication-cost model (supplies ``alpha``, ``beta`` and the
        Proposition 4.1 degree bound).
    overlap:
        Overlap model mapping clone work vectors to sequential times.
    f:
        Granularity parameter of the ``CG_f`` restriction.
    degrees:
        Optional externally chosen degrees of parallelism for floating
        operators (used by the malleable scheduler of Section 7).  Any
        operator absent from the mapping falls back to the coarse-grain
        degree.
    policy:
        Startup-cost charging policy (EA1 default: half CPU, half network
        at the coordinator clone).
    metrics:
        Optional :class:`~repro.engine.metrics.MetricsRecorder`; when
        given, the kernel records ``placement_scans`` (heap entries
        examined during step 3), ``clones_placed``, and a
        ``list_schedule`` wall-clock timer.
    capacities:
        Optional per-site capacities for a heterogeneous cluster; the
        step 3 rule then minimizes the capacity-normalized length.
        Omitted (or all ``1.0``), the schedule is byte-identical to the
        homogeneous kernel.

    Returns
    -------
    OperatorScheduleResult
        Schedule, chosen degrees, and Equation (3) makespan.

    Raises
    ------
    InfeasibleScheduleError
        If a rooted placement or requested degree does not fit on ``p``
        sites.
    SchedulingError
        On duplicate names or inconsistent dimensionalities.
    """
    _check_unique_names(floating, rooted)
    d = _common_dimensionality(floating, rooted)
    schedule = Schedule(p, d, capacities)
    chosen: dict[str, int] = {}

    # Step 1: place the work vectors of all rooted operators at their
    # respective sites.
    for placement in rooted:
        n = placement.degree
        if n > p:
            raise InfeasibleScheduleError(
                f"rooted operator {placement.spec.name!r} has degree {n} > P={p}"
            )
        clones = clone_work_vectors(placement.spec, n, comm, policy)
        for k, (site_index, work) in enumerate(zip(placement.site_indices, clones)):
            if not 0 <= site_index < p:
                raise InfeasibleScheduleError(
                    f"rooted operator {placement.spec.name!r}: site {site_index} "
                    f"outside 0..{p - 1}"
                )
            schedule.place(
                site_index,
                PlacedClone(
                    operator=placement.spec.name,
                    clone_index=k,
                    work=work,
                    t_seq=overlap.t_seq(work),
                ),
            )
        chosen[placement.spec.name] = n

    # Step 2: degree of coarse-grain parallelism for every floating
    # operator, and the clone lists L_i.
    pending: list[tuple[float, str, int, WorkVector]] = []
    for spec in floating:
        if degrees is not None and spec.name in degrees:
            n = degrees[spec.name]
            if n < 1:
                raise SchedulingError(
                    f"operator {spec.name!r}: requested degree {n} < 1"
                )
            if n > p:
                raise InfeasibleScheduleError(
                    f"operator {spec.name!r}: requested degree {n} > P={p}"
                )
        else:
            n = coarse_grain_degree(spec, p, f, comm, overlap, policy)
        chosen[spec.name] = n
        for k, work in enumerate(clone_work_vectors(spec, n, comm, policy)):
            pending.append((work.length(), spec.name, k, work))

    # Step 3: list scheduling in non-increasing order of l(w̄); ties in the
    # vector order are broken deterministically by operator name and clone
    # index.  Among allowable sites, the rule picks one minimizing
    # l(work(s)) (Figure 3); sites tied on length are distinguished by
    # total load, then index — the paper permits any minimizer, and the
    # total-load tie-break avoids piling work onto a site whose length
    # happens to sit on a different resource.  The minimizer query goes
    # through a lazy min-heap (O(log p) amortized per clone) rather than a
    # site rescan; the key ends in the site index, so the heap minimum is
    # the exact site the linear scan would have chosen.
    timer = metrics.timer(TIMER_LIST_SCHEDULE) if metrics is not None else nullcontext()
    with current_tracer().span(SPAN_LIST_PLACEMENT, clones=len(pending), p=p), timer:
        pending.sort(key=lambda item: (-item[0], item[1], item[2]))
        heap = SiteHeap(
            schedule.sites,
            key=lambda s: (
                s.normalized_length(),
                s.normalized_total_load(),
                s.index,
            ),
        )
        for _, op_name, k, work in pending:
            best = heap.pick(lambda s: not s.hosts_operator(op_name))
            if best is None:
                raise InfeasibleScheduleError(
                    f"no allowable site left for clone {k} of {op_name!r} "
                    f"(degree {chosen[op_name]} on P={p} sites)"
                )
            schedule.place(
                best.index,
                PlacedClone(
                    operator=op_name,
                    clone_index=k,
                    work=work,
                    t_seq=overlap.t_seq(work),
                ),
            )
            heap.update(best)
        if metrics is not None:
            metrics.count(COUNTER_PLACEMENT_SCANS, heap.scans)
            metrics.count(COUNTER_CLONES_PLACED, len(pending))

    return OperatorScheduleResult(
        schedule=schedule, degrees=chosen, makespan=schedule.makespan()
    )
