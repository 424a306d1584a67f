"""Resource usage model for preemptable multi-resource sites (Section 4.1).

Following Ganguly, Hasan and Krishnamurthy [GHK92], the usage of a single
resource by an operator is a pair ``(T, W)``: the resource is freed after
elapsed time ``T`` and is kept busy for effective time ``W`` (so it is busy
``W/T`` of the time, spread uniformly by assumption A3).  The paper extends
this to a site of ``d`` preemptable resources: usage is ``(T_seq, W̄)``
where ``W̄`` is a work vector and the fundamental constraint

    ``max_i W[i]  <=  T_seq(W̄)  <=  sum_i W[i]``

always holds (Figure 2: perfect overlap vs. zero overlap of processing at
the different resources).

The experiments of Section 6 adopt assumption **EA2 (uniform resource
overlapping)**: a single system-wide parameter ``epsilon in [0, 1]``
expresses ``T_seq`` as the convex combination

    ``T(W̄) = epsilon * max_i W[i] + (1 - epsilon) * sum_i W[i]``,

with ``epsilon = 1`` meaning perfect overlap and ``epsilon = 0`` meaning
zero overlap.  :class:`ConvexCombinationOverlap` implements this; the
abstract :class:`OverlapModel` lets users plug in other architectures.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.exceptions import ModelValidationError
from repro.core.work_vector import WorkVector

__all__ = [
    "OverlapModel",
    "ConvexCombinationOverlap",
    "PERFECT_OVERLAP",
    "ZERO_OVERLAP",
    "ResourceUsage",
    "validate_sequential_time",
]


def validate_sequential_time(t_seq: float, work: WorkVector, tolerance: float = 1e-9) -> None:
    """Check the fundamental bound ``l(W) <= T_seq <= sum(W)`` (Section 4.1).

    Raises
    ------
    ModelValidationError
        If the bound is violated beyond floating-point ``tolerance``.
    """
    lo = work.length()
    hi = work.total()
    slack = tolerance * max(1.0, hi)
    if t_seq < lo - slack or t_seq > hi + slack:
        raise ModelValidationError(
            f"sequential time {t_seq} outside [max W, sum W] = [{lo}, {hi}]"
        )


class OverlapModel(ABC):
    """Maps a work vector to the stand-alone sequential time ``T_seq(W̄)``.

    The amount of overlap achievable between processing at different
    resources of a site is a system parameter (hardware/software
    architecture, operator implementation); subclasses encode one policy.
    Implementations must respect the Section 4.1 constraint
    ``l(W) <= T_seq(W) <= sum(W)``; :meth:`t_seq` enforces it.

    Degree selection relies on two more properties: ``T_seq`` must be
    **non-decreasing componentwise** (more work never runs faster) and
    **convex**.  The first makes the coordinator the slowest clone under
    EA1, so ``T_par(op, N)`` is the coordinator's ``T_seq``; with the
    second, ``T_par(op, .)`` is convex in ``N`` and
    :func:`~repro.core.cloning.response_optimal_degree` may stop at the
    first degree that does not speed the operator up.  EA2's convex
    combination ``eps * max + (1 - eps) * sum`` has both properties.
    """

    @abstractmethod
    def _t_seq_unchecked(self, work: WorkVector) -> float:
        """Compute ``T_seq(W̄)`` without the validity check."""

    def t_seq(self, work: WorkVector) -> float:
        """Return the sequential execution time for ``work``.

        The result is validated against the fundamental Section 4.1 bound
        so that a buggy subclass cannot silently corrupt schedules.
        """
        t = self._t_seq_unchecked(work)
        validate_sequential_time(t, work)
        return t

    def usage(self, work: WorkVector) -> "ResourceUsage":
        """Return the full ``(T_seq, W̄)`` usage pair for ``work``."""
        return ResourceUsage(t_seq=self.t_seq(work), work=work)

    def t_seq_batch(self, works: "list[WorkVector]") -> list[float]:
        """Vectorization hook: ``T_seq`` for many work vectors at once.

        The default simply loops :meth:`t_seq`.  Overrides (used by the
        batched shelf packer) must stay **bit-identical** to the scalar
        method for every input — callers rely on that for golden-packing
        determinism.
        """
        return [self.t_seq(w) for w in works]


@dataclass(frozen=True)
class ConvexCombinationOverlap(OverlapModel):
    """Assumption EA2: ``T(W) = eps * max_i W[i] + (1 - eps) * sum_i W[i]``.

    Parameters
    ----------
    epsilon:
        Overlap parameter in ``[0, 1]``.  Small values imply limited
        overlap (resources used mostly serially); values close to 1 imply
        a large degree of overlap.  The paper's experiments vary epsilon
        between 0.1 and 0.7.
    """

    epsilon: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise ModelValidationError(
                f"overlap parameter must lie in [0, 1], got {self.epsilon}"
            )

    def _t_seq_unchecked(self, work: WorkVector) -> float:
        eps = self.epsilon
        return eps * work.length() + (1.0 - eps) * work.total()

    def t_seq_batch(self, works: "list[WorkVector]") -> list[float]:
        """Vectorized EA2 evaluation, bit-identical to :meth:`t_seq`.

        ``eps·l + (1-eps)·total`` element-wise in float64 performs the
        exact same IEEE multiply/multiply/add sequence as the scalar
        method, so results match bit for bit (the lengths/totals are the
        vectors' cached exact statistics).  Validation is skipped: the
        convex combination satisfies ``l(W) <= T <= sum(W)`` by
        construction for ``eps in [0, 1]``.
        """
        from repro.core import batch as _batch  # deferred: avoids an import cycle

        if not (_batch.HAVE_NUMPY and len(works) >= _batch.NUMPY_CUTOVER):
            return [self.t_seq(w) for w in works]
        np = _batch._np
        eps = self.epsilon
        lens = np.fromiter((w.length() for w in works), dtype=np.float64, count=len(works))
        tots = np.fromiter((w.total() for w in works), dtype=np.float64, count=len(works))
        return (eps * lens + (1.0 - eps) * tots).tolist()


#: Perfect overlap (``epsilon = 1``): ``T(W) = max_i W[i]`` (Figure 2a).
PERFECT_OVERLAP = ConvexCombinationOverlap(1.0)

#: Zero overlap (``epsilon = 0``): ``T(W) = sum_i W[i]`` (Figure 2b).
ZERO_OVERLAP = ConvexCombinationOverlap(0.0)


@dataclass(frozen=True)
class ResourceUsage:
    """The ``(T_seq, W̄)`` usage of a ``d``-resource site by an operator.

    Attributes
    ----------
    t_seq:
        Elapsed (sequential, stand-alone) execution time of the operator.
    work:
        The ``d``-dimensional work vector; component ``i`` is the effective
        time resource ``i`` is kept busy (uniformly spread over ``t_seq``
        by assumption A3).
    """

    t_seq: float
    work: WorkVector

    def __post_init__(self) -> None:
        validate_sequential_time(self.t_seq, self.work)

    @property
    def d(self) -> int:
        """Dimensionality of the underlying work vector."""
        return self.work.d

    def utilization(self, resource: int) -> float:
        """Fraction of time resource ``resource`` is busy (``W[i]/T_seq``).

        By assumptions A2/A3 this demand rate is constant over the
        operator's execution, which is what makes the effects of resource
        sharing straightforward to quantify (Equation 2).
        """
        if self.t_seq <= 0.0:
            return 0.0
        return self.work[resource] / self.t_seq

    def rate_vector(self) -> tuple[float, ...]:
        """Per-resource demand rates ``W[i] / T_seq`` as a tuple."""
        if self.t_seq <= 0.0:
            return (0.0,) * self.work.d
        return tuple(c / self.t_seq for c in self.work.components)
