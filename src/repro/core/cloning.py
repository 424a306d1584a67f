"""Operator cloning and partitioned parallelism (Sections 4.3, 5.2.1).

In partitioned parallelism the work vector of an operator is split among a
set of *operator clones* [GHK92]; each clone executes on a single site and
works on a portion of the operator's data.  This module implements:

* :class:`OperatorSpec` — the scheduler-facing description of one physical
  operator: its zero-communication work vector (whose component sum is the
  processing area ``W_p``) and the data volume ``D`` it moves over the
  interconnect;
* clone-vector construction under the experimental assumption **EA1 (no
  execution skew)**: the work vector (processing plus ``beta * D`` network
  time) is distributed perfectly among the ``N`` participating sites, while
  the serial startup ``alpha * N`` is charged to a single designated
  *coordinator* clone, divided equally between the coordinator's CPU and
  its network-interface component;
* the parallel execution time ``T_par(op, N)`` of Equation (1) — the
  maximum sequential time over the clones, which under EA1 is the
  coordinator's; :class:`ParallelTimeCurve` computes an operator's
  degree-independent part once and every degree from it;
* degree-of-parallelism selection: the coarse-grain bound
  ``N_max(op, f)`` of Proposition 4.1, clamped by the response-time-optimal
  degree so that assumption **A4 (non-increasing execution times)** is
  never violated (Section 6.1), and by the number of sites ``P``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ConfigurationError, InvalidWorkVectorError, SchedulingError
from repro.core.granularity import CommunicationModel, processing_area
from repro.core.resource_model import OverlapModel
from repro.core.work_vector import WorkVector

__all__ = [
    "OperatorSpec",
    "CoordinatorPolicy",
    "ParallelTimeCurve",
    "clone_work_vectors",
    "total_work_vector",
    "parallel_time",
    "response_optimal_degree",
    "coarse_grain_degree",
]


@dataclass(frozen=True)
class OperatorSpec:
    """Scheduler-facing description of one physical query operator.

    Attributes
    ----------
    name:
        Human-readable identifier (e.g. ``"scan(R3)"``, ``"probe(J7)"``).
        Names must be unique within one scheduling problem; they implement
        constraint (A) of Section 5.3 (no two clones of the same operator
        on the same site).
    work:
        The zero-communication work vector.  Its component sum is the
        processing area ``W_p(op)``, constant over all executions.
    data_volume:
        ``D``: total bytes of the operator's input and output data sets
        transferred over the interconnect (assumption A5: pipelined
        outputs are always repartitioned).
    """

    name: str
    work: WorkVector
    data_volume: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("operator name must be non-empty")
        if self.data_volume < 0.0:
            raise ConfigurationError(
                f"operator {self.name!r}: data volume must be >= 0, got {self.data_volume}"
            )

    @property
    def d(self) -> int:
        """Dimensionality of the operator's work vector."""
        return self.work.d

    @property
    def processing_area(self) -> float:
        """``W_p(op)``: sum of the zero-communication work components."""
        return processing_area(self.work)


@dataclass(frozen=True)
class CoordinatorPolicy:
    """How the serial startup cost ``alpha * N`` is charged (EA1).

    The startup of a parallel execution cannot be distributed among the
    participating sites; it is incurred at a single coordinator site.  The
    experimental model divides it equally between the coordinator's CPU
    and its network interface.

    Attributes
    ----------
    cpu_axis:
        Work-vector index receiving the CPU half of the startup.
    network_axis:
        Work-vector index receiving the network half.  ``None`` selects
        the last dimension (which is the network interface in the default
        three-resource layout ``CPU, DISK, NETWORK``).
    cpu_fraction:
        Fraction of the startup charged to ``cpu_axis`` (the remainder
        goes to ``network_axis``).  The paper's EA1 uses ``0.5``.
    """

    cpu_axis: int = 0
    network_axis: int | None = None
    cpu_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.cpu_fraction <= 1.0:
            raise ConfigurationError(
                f"cpu_fraction must lie in [0, 1], got {self.cpu_fraction}"
            )

    def axes(self, d: int) -> tuple[int, int]:
        """Return the ``(cpu, network)`` axes for ``d`` dimensions, validated."""
        net_axis = self.network_axis if self.network_axis is not None else d - 1
        if not 0 <= self.cpu_axis < d or not 0 <= net_axis < d:
            raise ConfigurationError(
                f"coordinator axes ({self.cpu_axis}, {net_axis}) out of range for d={d}"
            )
        return self.cpu_axis, net_axis

    def startup_vector(self, d: int, startup: float) -> WorkVector:
        """Return the ``d``-dimensional vector charging ``startup`` seconds."""
        _, net_axis = self.axes(d)
        comps = [0.0] * d
        comps[self.cpu_axis] += self.cpu_fraction * startup
        comps[net_axis] += (1.0 - self.cpu_fraction) * startup
        return WorkVector(comps)


#: The experimental default: startup split equally between the coordinator's
#: CPU (axis 0) and network interface (last axis).
DEFAULT_COORDINATOR_POLICY = CoordinatorPolicy()


class ParallelTimeCurve:
    """One operator's clone vectors and ``T_par(op, n)`` as functions of ``n``.

    Everything that does not depend on the degree is computed once per
    operator: the distributed work ``base = work + beta*D`` (the transfer
    time on the network axis), the coordinator axes and the startup
    split.  A degree ``n`` then costs ``d`` divisions ``base/n``, the
    startup ``alpha*n`` split onto the coordinator and, for ``T_par``, one
    ``T_seq`` evaluation, validated like every other (Section 4.1).  These
    are the IEEE operations, in the same order, that building
    ``base / n + policy.startup_vector(d, alpha*n)`` from
    :class:`WorkVector` arithmetic performs, so every vector and time is
    bit-identical to that construction.

    Under EA1 the coordinator's vector dominates every other clone's
    componentwise, so with a ``T_seq`` that is non-decreasing
    componentwise (see :class:`OverlapModel`) Equation (1)'s maximum over
    the clones is the coordinator's ``T_seq``: one evaluation per degree.
    """

    __slots__ = (
        "spec", "base", "_base", "_alpha",
        "_cpu_axis", "_net_axis", "_cpu_fraction", "_net_fraction",
    )

    def __init__(
        self,
        spec: OperatorSpec,
        comm: CommunicationModel,
        policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
    ) -> None:
        d = spec.d
        net_axis = policy.network_axis if policy.network_axis is not None else d - 1
        self.spec = spec
        #: ``work + beta*D``: the part of the work split evenly among clones.
        self.base = spec.work + WorkVector.unit(d, net_axis, comm.transfer_cost(spec.data_volume))
        self._base = self.base.components
        self._alpha = comm.alpha
        if self._alpha > 0.0:
            policy.axes(d)  # only a charged startup needs valid coordinator axes
            if math.isinf(self._alpha):
                raise InvalidWorkVectorError("startup cost alpha is not finite")
        self._cpu_axis = policy.cpu_axis
        self._net_axis = net_axis
        self._cpu_fraction = policy.cpu_fraction
        self._net_fraction = 1.0 - policy.cpu_fraction

    def _check_degree(self, n: int) -> None:
        if n < 1:
            raise SchedulingError(
                f"operator {self.spec.name!r}: clone count must be >= 1, got {n}"
            )

    def _add_startup(self, comps: list[float], n: int) -> tuple[float, ...]:
        """Charge the startup ``alpha*n`` to ``comps`` (the coordinator)."""
        startup = self._alpha * n
        if startup > 0.0:
            cpu = self._cpu_fraction * startup
            net = self._net_fraction * startup
            if self._cpu_axis == self._net_axis:
                comps[self._cpu_axis] += cpu + net
            else:
                comps[self._cpu_axis] += cpu
                comps[self._net_axis] += net
        return tuple(comps)

    def coordinator(self, n: int) -> WorkVector:
        """``base / n`` plus the startup ``alpha*n``: clone 0's work vector."""
        self._check_degree(n)
        return WorkVector._from_trusted(self._add_startup([c / n for c in self._base], n))

    def with_startup(self, work: WorkVector, n: int) -> WorkVector:
        """``work`` plus the startup of an ``n``-site execution."""
        self._check_degree(n)
        return WorkVector._from_trusted(self._add_startup(list(work.components), n))

    def clones(self, n: int) -> list[WorkVector]:
        """The ``n`` clone work vectors: the coordinator, then ``base / n``."""
        self._check_degree(n)
        clones = [WorkVector._from_trusted(tuple([c / n for c in self._base]))] * n
        if self._alpha * n > 0.0:
            clones[0] = self.coordinator(n)
        return clones

    def total(self, n: int) -> WorkVector:
        """``W̄_op`` for an ``n``-site execution: ``base`` plus the startup."""
        return self.with_startup(self.base, n)

    def t_par(self, n: int, overlap: OverlapModel) -> float:
        """Equation (1): ``T_par(op, n)``, the coordinator's ``T_seq``."""
        return overlap.t_seq(self.coordinator(n))


def clone_work_vectors(
    spec: OperatorSpec,
    n: int,
    comm: CommunicationModel,
    policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
) -> list[WorkVector]:
    """Partition ``spec`` into ``n`` clone work vectors (EA1, Section 5.2.1).

    The processing work vector plus the distributed network-transfer time
    ``beta * D`` (placed on the network axis) is divided perfectly by
    ``n``; the startup ``alpha * n`` is then added to clone 0, the
    coordinator, split between its CPU and network components according to
    ``policy``.

    The sum of the returned vectors equals the operator's *total* work
    vector, whose component sum is ``W_p(op) + W_c(op, n)`` as required by
    the Section 5.1 accounting.
    """
    return ParallelTimeCurve(spec, comm, policy).clones(n)


def total_work_vector(
    spec: OperatorSpec,
    n: int,
    comm: CommunicationModel,
    policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
) -> WorkVector:
    """Return ``W̄_op`` for an ``n``-site execution, communication included.

    Satisfies ``total.total() == W_p(op) + W_c(op, n)`` (Section 5.1) and
    is componentwise non-decreasing in ``n`` — the property the malleable
    extension of Section 7 relies on.
    """
    return ParallelTimeCurve(spec, comm, policy).total(n)


def parallel_time(
    spec: OperatorSpec,
    n: int,
    comm: CommunicationModel,
    overlap: OverlapModel,
    policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
) -> float:
    """Equation (1): ``T_par(op, N) = max_k T_seq(W̄_k)`` over the clones.

    Under EA1 the maximum is attained by the coordinator clone (the only
    one carrying extra startup work), so only its sequential time is
    evaluated; see :class:`ParallelTimeCurve`.
    """
    return ParallelTimeCurve(spec, comm, policy).t_par(n, overlap)


def response_optimal_degree(
    spec: OperatorSpec,
    p: int,
    comm: CommunicationModel,
    overlap: OverlapModel,
    policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
) -> int:
    """Return the degree in ``1..p`` minimizing ``T_par(op, N)``.

    For each operator there is an optimal degree of partitioned
    parallelism beyond which startup causes a speed-down [WFA92]; the
    Section 6.1 implementation note requires that this degree is never
    exceeded, enforcing assumption A4 on the range of degrees in use.
    Ties are broken toward the *smaller* degree (less communication for
    the same response time): a degree replaces the running best only
    when it is faster by a relative margin of ``1e-12``.

    The scan stops at the first degree ``m`` whose ``T_par`` does not fall
    below its predecessor's.  It evaluates ``T_seq`` once per degree up to
    ``m``: ``N_rt + 1`` times rather than ``p``, plus one for a degree past
    ``N_rt`` that falls by less than the margin (a near-tie at the
    minimum).  The stop is exact because
    ``T_par(op, .)`` is convex in ``N``:

    * under EA1, ``T_par(op, N)`` is the ``T_seq`` of the coordinator
      (:class:`ParallelTimeCurve`), whose component ``i`` is
      ``b_i/N + s_i*N`` with ``b_i, s_i >= 0`` — convex in ``N``;
    * ``T_seq`` is convex and non-decreasing componentwise (the contract
      of :class:`OverlapModel`; EA2's ``eps*max + (1-eps)*sum`` is both),
      and a convex non-decreasing function of convex functions is convex.

    Convexity makes the increments ``T(N) - T(N-1)`` non-decreasing, so
    once ``T(m) >= T(m-1)`` every later ``T(k) >= T(m-1)``.  ``T(m-1)`` is
    either the running best or a degree that failed to beat it by the
    margin, so ``T(m-1) >= best*(1 - 1e-12)``, and no later degree can
    replace the best either: the full scan over ``1..p`` returns the same
    degree.  Rounding moves each computed ``T_par`` by a few ulps; a
    rounding-induced stop can only happen where the exact curve is flat to
    that precision, at its minimum, where the ``b_i/N`` curvature keeps any
    further descent far below the ``1e-12`` margin.  A full-scan oracle
    test pins the result.
    """
    if p < 1:
        raise SchedulingError(f"number of sites must be >= 1, got {p}")
    curve = ParallelTimeCurve(spec, comm, policy)
    best_n = 1
    best_t = prev = curve.t_par(1, overlap)
    for n in range(2, p + 1):
        t = curve.t_par(n, overlap)
        if t >= prev:
            break
        if t < best_t * (1.0 - 1e-12):
            best_t = t
            best_n = n
        prev = t
    return best_n


def coarse_grain_degree(
    spec: OperatorSpec,
    p: int,
    f: float,
    comm: CommunicationModel,
    overlap: OverlapModel,
    policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
) -> int:
    """Degree of parallelism used by the scheduler for a floating operator.

    ``N_i = min{ N_max(op_i, f), N_rt(op_i), P }`` where ``N_max`` is the
    coarse-grain bound of Proposition 4.1 and ``N_rt`` is the
    response-time-optimal degree (A4 enforcement, Section 6.1).
    """
    n_cg = comm.n_max(f, spec.processing_area, spec.data_volume)
    n_cap = min(n_cg, p)
    if n_cap <= 1:
        return 1
    n_rt = response_optimal_degree(spec, n_cap, comm, overlap, policy)
    return max(1, min(n_cap, n_rt))
