"""Lower bounds and suboptimality certificates (Theorem 5.1, Section 7).

For a parallelization ``N̄ = (N_1, ..., N_M)`` of independent operators the
paper uses the lower bound

    ``LB(N̄) = max{ l(S(N̄)) / P,  h(N̄) }``

where ``S(N̄)`` is the set of total work vectors (communication included)
and ``h(N̄) = max_i T_par(op_i, N_i)`` is the slowest operator's parallel
time.  Any schedule must run at least as long as its slowest operator, and
the most congested resource cannot serve more than ``P`` units of work per
unit of time — hence LB lower-bounds the optimal response time for the
given parallelization.

Theorem 5.1 then states that OPERATORSCHEDULE's makespan is within
``2d + 1`` of the optimum for fixed degrees and within ``2d(fd + 1) + 1``
of the optimal ``CG_f`` schedule.  :func:`certify` packages makespan,
bound, ratio and guarantee into an auditable record used throughout the
test-suite and benchmark harness.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.exceptions import SchedulingError
from repro.core.batch import lower_bounds_batch, sum_length
from repro.core.cloning import (
    DEFAULT_COORDINATOR_POLICY,
    CoordinatorPolicy,
    OperatorSpec,
    ParallelTimeCurve,
)
from repro.core.granularity import CommunicationModel
from repro.core.resource_model import OverlapModel

__all__ = [
    "theorem51_fixed_degree_bound",
    "theorem51_coarse_grain_bound",
    "slowest_operator_time",
    "lower_bound",
    "lower_bound_family",
    "BoundCertificate",
    "certify",
]


def theorem51_fixed_degree_bound(d: int) -> float:
    """Theorem 5.1(a): performance ratio bound ``2d + 1`` for fixed degrees."""
    if d < 1:
        raise SchedulingError(f"dimensionality must be >= 1, got {d}")
    return 2.0 * d + 1.0


def theorem51_coarse_grain_bound(d: int, f: float) -> float:
    """Theorem 5.1(b): ratio bound ``2d(fd + 1) + 1`` vs. the optimal CG_f."""
    if d < 1:
        raise SchedulingError(f"dimensionality must be >= 1, got {d}")
    if f <= 0.0:
        raise SchedulingError(f"granularity parameter must be > 0, got {f}")
    return 2.0 * d * (f * d + 1.0) + 1.0


def slowest_operator_time(
    specs: Sequence[OperatorSpec],
    degrees: Mapping[str, int],
    comm: CommunicationModel,
    overlap: OverlapModel,
    policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
) -> float:
    """Return ``h(N̄) = max_i T_par(op_i, N_i)`` (Section 7 notation)."""
    curves = [ParallelTimeCurve(spec, comm, policy) for spec in specs]
    return _slowest_time(curves, degrees, overlap)


def _slowest_time(
    curves: Sequence[ParallelTimeCurve], degrees: Mapping[str, int], overlap: OverlapModel
) -> float:
    h = 0.0
    for curve in curves:
        try:
            n = degrees[curve.spec.name]
        except KeyError:
            raise SchedulingError(
                f"no degree recorded for operator {curve.spec.name!r}"
            ) from None
        h = max(h, curve.t_par(n, overlap))
    return h


def lower_bound(
    specs: Sequence[OperatorSpec],
    degrees: Mapping[str, int],
    p: int,
    comm: CommunicationModel,
    overlap: OverlapModel,
    policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
    *,
    total_capacity: float | None = None,
) -> float:
    """Return ``LB(N̄) = max{ l(S(N̄))/C, h(N̄) }``.

    Parameters
    ----------
    specs:
        The independent operators.
    degrees:
        Degree of parallelism per operator name.
    p:
        Number of system sites.
    comm, overlap, policy:
        The models in force (communication costs are *included* in the
        total work vectors, matching the Section 7 definition of
        ``S(N̄)``).
    total_capacity:
        Total system capacity ``C`` for the congestion side of the bound.
        Defaults to ``P`` (the homogeneous cluster, where the division is
        bit-identical to the historical ``/ p``); pass the sum of site
        capacities for a heterogeneous cluster — no resource can serve
        more than ``C`` units of work per unit of time system-wide, so
        ``l(S(N̄))/C`` remains a valid lower bound.
    """
    if p < 1:
        raise SchedulingError(f"number of sites must be >= 1, got {p}")
    if not specs:
        return 0.0
    denom = float(p) if total_capacity is None else float(total_capacity)
    if not denom > 0.0:
        raise SchedulingError(
            f"total capacity must be positive, got {total_capacity!r}"
        )
    curves = [ParallelTimeCurve(spec, comm, policy) for spec in specs]
    totals = [curve.total(degrees[curve.spec.name]) for curve in curves]
    # sum_length auto-selects the numpy reduction for large operator sets
    # and the exact sequential sum below the cutover.
    congestion = sum_length(totals) / denom
    return max(congestion, _slowest_time(curves, degrees, overlap))


def lower_bound_family(
    specs: Sequence[OperatorSpec],
    degree_family: Sequence[Mapping[str, int]],
    p: int,
    comm: CommunicationModel,
    overlap: OverlapModel,
    policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
    *,
    total_capacity: float | None = None,
) -> list[float]:
    """Return ``LB(N̄_k)`` for a whole family of parallelizations.

    Batch counterpart of :func:`lower_bound` for sweeps that score many
    candidate parallelizations of the *same* operator set (e.g. the
    Section 7 greedy family, or a sensitivity grid over degrees): the
    congestion sides are evaluated in one vectorized pass via
    :func:`repro.core.batch.lower_bounds_batch` when numpy is available.
    ``total_capacity`` generalizes the congestion denominator exactly as
    in :func:`lower_bound`.
    """
    if not specs:
        return [0.0 for _ in degree_family]
    d = specs[0].d
    curves = [ParallelTimeCurve(spec, comm, policy) for spec in specs]
    groups = [
        [curve.total(degrees[curve.spec.name]) for curve in curves]
        for degrees in degree_family
    ]
    h_values = [_slowest_time(curves, degrees, overlap) for degrees in degree_family]
    return lower_bounds_batch(groups, h_values, p, d, total_capacity=total_capacity)


@dataclass(frozen=True)
class BoundCertificate:
    """An auditable record of a schedule's proximity to the lower bound.

    Attributes
    ----------
    makespan:
        Response time of the schedule under scrutiny.
    lower_bound:
        ``LB(N̄)`` for the schedule's parallelization (a lower bound on
        the optimum, hence ``ratio`` upper-bounds the true performance
        ratio).
    ratio:
        ``makespan / lower_bound`` (``1.0`` when both are zero).
    guarantee:
        The theoretical worst-case ratio the schedule must satisfy
        (``2d + 1`` for Theorem 5.1(a) / Theorem 7.1 checks).
    """

    makespan: float
    lower_bound: float
    ratio: float
    guarantee: float

    @property
    def satisfied(self) -> bool:
        """``True`` when the observed ratio respects the guarantee.

        A tiny relative tolerance absorbs floating-point noise; a
        ``False`` here indicates a genuine violation of the theorem (i.e.
        an implementation bug), never rounding.
        """
        return self.ratio <= self.guarantee * (1.0 + 1e-9)

    def __str__(self) -> str:
        status = "OK" if self.satisfied else "VIOLATED"
        return (
            f"makespan={self.makespan:.6g} lower_bound={self.lower_bound:.6g} "
            f"ratio={self.ratio:.4f} guarantee={self.guarantee:.1f} [{status}]"
        )


def certify(
    makespan: float,
    specs: Sequence[OperatorSpec],
    degrees: Mapping[str, int],
    p: int,
    comm: CommunicationModel,
    overlap: OverlapModel,
    guarantee: float | None = None,
    policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
    *,
    total_capacity: float | None = None,
) -> BoundCertificate:
    """Build a :class:`BoundCertificate` for a schedule of ``specs``.

    ``guarantee`` defaults to Theorem 5.1(a)'s ``2d + 1`` for the
    operators' dimensionality.  ``total_capacity`` generalizes the
    congestion denominator as in :func:`lower_bound`.
    """
    if makespan < 0.0:
        raise SchedulingError(f"makespan must be >= 0, got {makespan}")
    lb = lower_bound(
        specs, degrees, p, comm, overlap, policy, total_capacity=total_capacity
    )
    if guarantee is None:
        d = specs[0].d if specs else 1
        guarantee = theorem51_fixed_degree_bound(d)
    if lb <= 0.0:
        ratio = 1.0 if makespan <= 0.0 else float("inf")
    else:
        ratio = makespan / lb
    return BoundCertificate(
        makespan=makespan, lower_bound=lb, ratio=ratio, guarantee=guarantee
    )
