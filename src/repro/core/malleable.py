"""Malleable operator scheduling (Section 7).

In the *malleable* problem the degree of parallelism of each floating
operator is no longer fixed by the coarse-granularity condition: the
scheduler is free to choose any parallelization ``N̄`` with the objective
of minimizing response time over **all** possible parallel schedules.

The paper adapts the greedy-family (GF) construction of Turek, Wolf and Yu
[TWY92], exploiting that in the work-vector model the total work vector of
an operator is componentwise non-decreasing in its degree of parallelism:

1. the first candidate is the minimum-total-work parallelization
   ``N̄¹ = (1, 1, ..., 1)``;
2. candidate ``k`` is obtained from candidate ``k - 1`` by finding the
   operator whose parallel time equals ``h(N̄^{k-1})`` (the slowest one)
   and increasing its degree by one;
3. the construction stops when no more sites can be allotted to the
   slowest operator (its degree has reached ``P``).

Lemma 7.2 guarantees the family contains a parallelization ``N̄`` with
``LB(N̄) <= LB(N̄*)`` for the optimal parallelization ``N̄*``; by
Lemma 7.1, list-scheduling that candidate yields a schedule within
``2d + 1`` of the global optimum (Theorem 7.1).  The family has at most
``1 + M(P - 1)`` members, so the preprocessing step costs
``O(M P log M)`` and does not change the scheduler's asymptotic
complexity.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from repro.exceptions import SchedulingError
from repro.core import batch as _batch
from repro.core.bounds import theorem51_fixed_degree_bound
from repro.core.cloning import (
    DEFAULT_COORDINATOR_POLICY,
    CoordinatorPolicy,
    OperatorSpec,
    ParallelTimeCurve,
)
from repro.core.granularity import CommunicationModel
from repro.core.operator_schedule import (
    OperatorScheduleResult,
    RootedPlacement,
    operator_schedule,
)
from repro.core.resource_model import OverlapModel
from repro.engine.driver import schedule_phases
from repro.engine.metrics import MetricsRecorder
from repro.engine.registry import ScheduleRequest, register
from repro.engine.result import ScheduleResult

__all__ = [
    "ParallelizationCandidate",
    "CandidateFamily",
    "candidate_parallelizations",
    "enumerate_candidate_family",
    "select_parallelization",
    "select_parallelization_batched",
    "malleable_schedule",
    "malleable_tree_schedule",
    "MalleableResult",
]


@dataclass(frozen=True)
class ParallelizationCandidate:
    """One member of the greedy family of parallelizations.

    Attributes
    ----------
    degrees:
        Degree of parallelism per operator name.
    h:
        ``h(N̄) = max_i T_par(op_i, N_i)``, the slowest operator's time.
    congestion:
        ``l(S(N̄)) / C``, the capacity share of the most loaded resource
        (``C`` is the total system capacity — ``P`` on a homogeneous
        cluster).
    """

    degrees: dict[str, int]
    h: float
    congestion: float

    @property
    def lower_bound(self) -> float:
        """``LB(N̄) = max{ l(S(N̄))/C, h(N̄) }``."""
        return max(self.h, self.congestion)


def candidate_parallelizations(
    specs: Sequence[OperatorSpec],
    p: int,
    comm: CommunicationModel,
    overlap: OverlapModel,
    policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
    *,
    total_capacity: float | None = None,
) -> Iterator[ParallelizationCandidate]:
    """Generate the greedy family of Section 7 lazily, cheapest first.

    Implementation notes: the slowest operator is tracked with a max-heap
    keyed by ``(-T_par, name)`` (names break ties deterministically);
    ``l(S(N̄))`` is maintained incrementally — increasing one operator's
    degree adds exactly one startup quantum ``alpha`` (split by the
    coordinator policy) to the total-work sum, so each step costs
    ``O(log M + d)``.  ``total_capacity`` sets the congestion
    denominator ``C`` (default: the site count ``P``; the division is
    bit-identical in that case).
    """
    if p < 1:
        raise SchedulingError(f"number of sites must be >= 1, got {p}")
    if not specs:
        return
    denom = float(p) if total_capacity is None else float(total_capacity)
    if not denom > 0.0:
        raise SchedulingError(
            f"total capacity must be positive, got {total_capacity!r}"
        )
    d = specs[0].d
    degrees = {spec.name: 1 for spec in specs}
    curves = {spec.name: ParallelTimeCurve(spec, comm, policy) for spec in specs}
    if len(curves) != len(specs):
        raise SchedulingError("duplicate operator names in malleable problem")

    load = [0.0] * d
    heap: list[tuple[float, str]] = []
    for name, curve in curves.items():
        heapq.heappush(heap, (-curve.t_par(1, overlap), name))
        for i, c in enumerate(curve.total(1).components):
            load[i] += c
    startup_delta = policy.startup_vector(d, comm.startup_cost(1)).components

    while True:
        neg_h, slowest = heap[0]
        yield ParallelizationCandidate(
            degrees=dict(degrees), h=-neg_h, congestion=max(load) / denom
        )
        # Step 2/3: increase the slowest operator's degree, or stop when no
        # more sites can be allotted to it.
        if degrees[slowest] >= p:
            return
        heapq.heappop(heap)
        degrees[slowest] += 1
        t = curves[slowest].t_par(degrees[slowest], overlap)
        heapq.heappush(heap, (-t, slowest))
        for i, c in enumerate(startup_delta):
            load[i] += c


def select_parallelization(
    specs: Sequence[OperatorSpec],
    p: int,
    comm: CommunicationModel,
    overlap: OverlapModel,
    policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
    *,
    total_capacity: float | None = None,
) -> tuple[ParallelizationCandidate, int]:
    """Return the family member minimizing ``LB(N̄)`` and the family size.

    By Theorem 7.1 the selected candidate, fed to the list-scheduling
    rule, yields a schedule within ``2d + 1`` of the optimal parallel
    schedule length.  Ties prefer the earlier (lower-total-work)
    candidate.
    """
    best: ParallelizationCandidate | None = None
    examined = 0
    for candidate in candidate_parallelizations(
        specs, p, comm, overlap, policy, total_capacity=total_capacity
    ):
        examined += 1
        if best is None or candidate.lower_bound < best.lower_bound * (1.0 - 1e-12):
            best = candidate
    if best is None:
        raise SchedulingError("no operators to parallelize")
    return best, examined


@dataclass(frozen=True)
class CandidateFamily:
    """The whole greedy family in O(M + K) memory instead of O(M·K).

    :func:`candidate_parallelizations` materializes a full ``degrees``
    dict per member, which makes enumerating the family
    ``O(M²P)`` in time and memory for ``K = 1 + M(P-1)`` members.  This
    compressed form exploits the family's delta structure: member ``k``
    differs from member ``k-1`` by a single degree increment, so the
    family is fully described by the operator set, the per-step
    incremented operator, and the two per-member statistics.

    Attributes
    ----------
    operators:
        Operator names, each starting at degree 1 in member 0.
    increments:
        ``increments[k]`` is the operator whose degree was increased to
        obtain member ``k + 1`` from member ``k`` (length ``size - 1``).
    h_values:
        ``h(N̄^k)`` per member — the slowest operator's parallel time.
    congestions:
        ``l(S(N̄^k)) / C`` per member (``C`` = total system capacity).
    p:
        Number of sites the family was generated for.
    """

    operators: tuple[str, ...]
    increments: tuple[str, ...]
    h_values: tuple[float, ...]
    congestions: tuple[float, ...]
    p: int

    def __post_init__(self) -> None:
        if len(self.h_values) != len(self.congestions):
            raise SchedulingError(
                f"candidate family: {len(self.h_values)} h values vs "
                f"{len(self.congestions)} congestions"
            )
        if self.h_values and len(self.increments) != len(self.h_values) - 1:
            raise SchedulingError(
                f"candidate family: {len(self.h_values)} members need "
                f"{len(self.h_values) - 1} increments, got {len(self.increments)}"
            )

    @property
    def size(self) -> int:
        """Number of family members (at most ``1 + M(P-1)``)."""
        return len(self.h_values)

    def lower_bounds(self) -> list[float]:
        """``LB(N̄^k) = max{ l(S(N̄^k))/C, h(N̄^k) }`` for every member."""
        return [max(h, c) for h, c in zip(self.h_values, self.congestions)]

    def degrees_at(self, k: int) -> dict[str, int]:
        """Materialize member ``k``'s degree map (O(M + k))."""
        if not 0 <= k < self.size:
            raise SchedulingError(
                f"candidate index {k} outside family of size {self.size}"
            )
        degrees = {name: 1 for name in self.operators}
        for name in self.increments[:k]:
            degrees[name] += 1
        return degrees

    def candidate_at(self, k: int) -> ParallelizationCandidate:
        """Materialize member ``k`` as a :class:`ParallelizationCandidate`."""
        return ParallelizationCandidate(
            degrees=self.degrees_at(k),
            h=self.h_values[k],
            congestion=self.congestions[k],
        )


def enumerate_candidate_family(
    specs: Sequence[OperatorSpec],
    p: int,
    comm: CommunicationModel,
    overlap: OverlapModel,
    policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
    *,
    total_capacity: float | None = None,
) -> CandidateFamily:
    """Enumerate the entire greedy family as one batched pass.

    Runs the same max-heap walk as :func:`candidate_parallelizations`
    (identical ``T_par`` evaluations, identical ``(-t, name)``
    tie-breaking) but records only the per-step increment and ``h``; the
    congestion curve is evaluated for *all* members at once by
    :func:`repro.core.batch.family_congestions`, which reproduces the
    incremental ``load += delta`` fold of the generator bit for bit.
    The result is byte-identical to collecting the generator (golden
    tests), at O(M + K) rather than O(M·K) cost for a K-member family.
    """
    if p < 1:
        raise SchedulingError(f"number of sites must be >= 1, got {p}")
    if not specs:
        return CandidateFamily(
            operators=(), increments=(), h_values=(), congestions=(), p=p
        )
    d = specs[0].d
    curves = {spec.name: ParallelTimeCurve(spec, comm, policy) for spec in specs}
    if len(curves) != len(specs):
        raise SchedulingError("duplicate operator names in malleable problem")
    degrees = {spec.name: 1 for spec in specs}

    load0 = [0.0] * d
    heap: list[tuple[float, str]] = []
    for name, curve in curves.items():
        heapq.heappush(heap, (-curve.t_par(1, overlap), name))
        for i, c in enumerate(curve.total(1).components):
            load0[i] += c

    h_values: list[float] = []
    increments: list[str] = []
    while True:
        neg_h, slowest = heap[0]
        h_values.append(-neg_h)
        if degrees[slowest] >= p:
            break
        heapq.heappop(heap)
        degrees[slowest] += 1
        increments.append(slowest)
        t = curves[slowest].t_par(degrees[slowest], overlap)
        heapq.heappush(heap, (-t, slowest))

    steps = len(increments)
    startup_delta = policy.startup_vector(d, comm.startup_cost(1)).components
    congestions = _batch.family_congestions(
        load0, startup_delta, steps, p, total_capacity=total_capacity
    )
    return CandidateFamily(
        operators=tuple(spec.name for spec in specs),
        increments=tuple(increments),
        h_values=tuple(h_values),
        congestions=tuple(congestions),
        p=p,
    )


def select_parallelization_batched(
    specs: Sequence[OperatorSpec],
    p: int,
    comm: CommunicationModel,
    overlap: OverlapModel,
    policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
    *,
    total_capacity: float | None = None,
) -> tuple[ParallelizationCandidate, int]:
    """Batched form of :func:`select_parallelization` — same result, O(M + K).

    Scans the family's lower bounds with the exact comparison the
    reference uses (``lb < best_lb * (1 - 1e-12)``, earlier member kept
    on ties) and materializes a degree map only for the winner.
    """
    family = enumerate_candidate_family(
        specs, p, comm, overlap, policy, total_capacity=total_capacity
    )
    if family.size == 0:
        raise SchedulingError("no operators to parallelize")
    h_values = family.h_values
    congestions = family.congestions
    best_k = 0
    best_lb = max(h_values[0], congestions[0])
    for k in range(1, family.size):
        lb = max(h_values[k], congestions[k])
        if lb < best_lb * (1.0 - 1e-12):
            best_k = k
            best_lb = lb
    return family.candidate_at(best_k), family.size


@dataclass(frozen=True)
class MalleableResult:
    """Outcome of the malleable scheduler.

    Attributes
    ----------
    schedule_result:
        The list-scheduling outcome for the selected parallelization.
    candidate:
        The selected parallelization (degrees, ``h``, congestion).
    candidates_examined:
        Size of the greedy family that was enumerated
        (at most ``1 + M(P-1)``).
    guarantee:
        The Theorem 7.1 worst-case ratio ``2d + 1``.
    """

    schedule_result: OperatorScheduleResult
    candidate: ParallelizationCandidate
    candidates_examined: int
    guarantee: float

    @property
    def makespan(self) -> float:
        """Response time of the produced schedule."""
        return self.schedule_result.makespan

    @property
    def lower_bound(self) -> float:
        """``LB`` of the selected parallelization — also a lower bound on
        the globally optimal malleable schedule (Lemma 7.2)."""
        return self.candidate.lower_bound


def malleable_schedule(
    specs: Sequence[OperatorSpec],
    rooted: Sequence[RootedPlacement] = (),
    *,
    p: int,
    comm: CommunicationModel,
    overlap: OverlapModel,
    selection: str = "lower_bound",
    policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
    capacities: Sequence[float] | None = None,
) -> MalleableResult:
    """Schedule independent floating operators without the CG_f restriction.

    Runs the greedy-family generation, selects one candidate
    parallelization, and applies the Figure 3 list scheduling rule with
    its degrees.  The result is provably within ``2d + 1`` of the optimum
    over all possible parallel schedules (Theorem 7.1) — note this
    requires neither assumption A4 nor any particular communication-cost
    model, only non-decreasing work vectors.

    Parameters
    ----------
    rooted:
        Operators with fixed homes (and hence fixed degrees); they take
        no part in the greedy-family search but are placed alongside the
        floating operators by the list rule.
    selection:
        ``"lower_bound"`` (the paper's rule): pick the family member with
        minimal ``LB(N̄)`` and list-schedule it — cheapest, and the form
        Theorem 7.1 analyzes.  ``"makespan"`` (extension): list-schedule
        *every* family member and keep the shortest schedule.  Since the
        LB-minimal candidate is among those evaluated, the Theorem 7.1
        guarantee carries over, and the result can only improve; the
        price is an extra factor of ``O(MP)`` scheduler invocations.
    """
    if not specs:
        raise SchedulingError("malleable_schedule requires at least one operator")
    guarantee = theorem51_fixed_degree_bound(specs[0].d)
    total_capacity = None if capacities is None else float(sum(capacities))
    if selection == "lower_bound":
        # The batched pass is byte-identical to select_parallelization()
        # (retained as the test oracle) at O(M + K) instead of O(M·K).
        candidate, examined = select_parallelization_batched(
            specs, p, comm, overlap, policy, total_capacity=total_capacity
        )
        result = operator_schedule(
            specs,
            rooted,
            p=p,
            comm=comm,
            overlap=overlap,
            degrees=candidate.degrees,
            policy=policy,
            capacities=capacities,
        )
        return MalleableResult(
            schedule_result=result,
            candidate=candidate,
            candidates_examined=examined,
            guarantee=guarantee,
        )
    if selection == "makespan":
        best: tuple[OperatorScheduleResult, ParallelizationCandidate] | None = None
        examined = 0
        for candidate in candidate_parallelizations(
            specs, p, comm, overlap, policy, total_capacity=total_capacity
        ):
            examined += 1
            result = operator_schedule(
                specs,
                rooted,
                p=p,
                comm=comm,
                overlap=overlap,
                degrees=candidate.degrees,
                policy=policy,
                capacities=capacities,
            )
            if best is None or result.makespan < best[0].makespan * (1.0 - 1e-12):
                best = (result, candidate)
        assert best is not None  # specs is non-empty, family has >= 1 member
        return MalleableResult(
            schedule_result=best[0],
            candidate=best[1],
            candidates_examined=examined,
            guarantee=guarantee,
        )
    raise SchedulingError(
        f"unknown selection {selection!r}; expected 'lower_bound' or 'makespan'"
    )


def malleable_tree_schedule(
    op_tree,
    task_tree,
    *,
    p: int,
    comm: CommunicationModel,
    overlap: OverlapModel,
    selection: str = "lower_bound",
    shelf: str = "min",
    policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
    metrics: MetricsRecorder | None = None,
    capacities: Sequence[float] | None = None,
) -> ScheduleResult:
    """Full-plan malleable scheduling via the synchronized-phase driver.

    Each shelf's floating operators are re-parallelized with the Section 7
    greedy family (the CG_f forced degrees computed by the driver are
    deliberately ignored — malleability means the degree choice is free);
    rooted operators keep their inherited homes.  Phases without floating
    work degrade to plain rooted placement.
    """

    def pack(floating, rooted, forced, n_sites):
        del forced  # malleable: degrees are chosen by the greedy family
        if not floating:
            return operator_schedule(
                (),
                rooted,
                p=n_sites,
                comm=comm,
                overlap=overlap,
                policy=policy,
                capacities=capacities,
            )
        return malleable_schedule(
            floating,
            rooted,
            p=n_sites,
            comm=comm,
            overlap=overlap,
            selection=selection,
            policy=policy,
            capacities=capacities,
        ).schedule_result

    return schedule_phases(
        op_tree,
        task_tree,
        p=p,
        comm=comm,
        overlap=overlap,
        shelf=shelf,
        policy=policy,
        pack_phase=pack,
        algorithm="malleable",
        metrics=metrics,
    )


@register(
    "malleable",
    description="Section 7 malleable variant: per-shelf greedy-family "
    "parallelization (no CG_f restriction) + list packing",
)
def _malleable(query, request: ScheduleRequest) -> ScheduleResult:
    assert request.policy is not None
    return malleable_tree_schedule(
        query.operator_tree,
        query.task_tree,
        p=request.p,
        comm=request.comm,
        overlap=request.overlap,
        policy=request.policy,
        metrics=request.metrics,
        capacities=request.capacities,
    )
