"""Coarse-grain parallelism: areas, granularity, and degree bounds (Section 4).

Increasing the partitioned parallelism of an operator reduces its execution
time until a saturation point, beyond which communication startup and
coordination overhead cause a speed-down [DGS+90].  To stay on the useful
side of that point the paper restricts attention to *coarse grain*
executions:

* the **processing area** ``W_p(op)`` is the total work performed by the
  operator on a single site with all operands locally resident (zero
  communication) — the sum of the components of its work vector;
* the **communication area** ``W_c(op, N)`` is the total communication
  overhead of distributing the execution across ``N`` sites, estimated by
  the linear model ``W_c(op, N) = alpha * N + beta * D`` (Section 4.3),
  where ``alpha`` is the per-site startup cost, ``beta`` the time spent at
  the network interface per byte transferred, and ``D`` the total number of
  bytes the operator moves over the interconnect;
* a parallel execution on ``N`` sites is **coarse grain with parameter f**
  (a ``CG_f`` execution, Definition 4.1) when
  ``W_c(op, N) <= f * W_p(op)``.

Proposition 4.1 then bounds the allowable degree of partitioned
parallelism:

    ``N_max(op, f) = max{ floor((f * W_p(op) - beta * D) / alpha), 1 }``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.core.work_vector import WorkVector

__all__ = [
    "processing_area",
    "CommunicationModel",
    "granularity_ratio",
    "is_coarse_grain",
]


def processing_area(work: WorkVector) -> float:
    """Return ``W_p(op)``: the sum of the work-vector components.

    This is constant over all possible executions of the operator and
    plays the role of the paper's scalar "work" metric when comparing with
    one-dimensional schedulers.
    """
    return work.total()


@dataclass(frozen=True)
class CommunicationModel:
    """The linear communication-overhead model of Section 4.3.

    ``W_c(op, N) = alpha * N + beta * D`` where

    * ``alpha`` — startup cost for each participating site (seconds).  The
      startup is inherently serial: it is incurred at the single
      coordinator site of the parallel execution, which is why there is
      always a degree of parallelism beyond which startup dominates.
    * ``beta`` — time spent at the network interface (or communication
      processor) per byte transferred (seconds/byte).

    This model is substantiated by the Gamma measurements [DGS+90]; simpler
    forms appear in earlier shared-nothing studies [GMSY93, WFA92].
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if self.alpha < 0.0:
            raise ConfigurationError(f"startup cost alpha must be >= 0, got {self.alpha}")
        if self.beta < 0.0:
            raise ConfigurationError(f"per-byte cost beta must be >= 0, got {self.beta}")

    def communication_area(self, n_sites: int, data_volume: float) -> float:
        """Return ``W_c(op, N)`` for an ``N``-site execution.

        Parameters
        ----------
        n_sites:
            Degree of partitioned parallelism ``N`` (must be ``>= 1``).
        data_volume:
            ``D``: total bytes of the operator's input and output data sets
            transferred over the interconnect.
        """
        if n_sites < 1:
            raise ConfigurationError(f"degree of parallelism must be >= 1, got {n_sites}")
        if data_volume < 0.0:
            raise ConfigurationError(f"data volume must be >= 0, got {data_volume}")
        return self.alpha * n_sites + self.beta * data_volume

    def startup_cost(self, n_sites: int) -> float:
        """Return the serial startup component ``alpha * N``."""
        if n_sites < 1:
            raise ConfigurationError(f"degree of parallelism must be >= 1, got {n_sites}")
        return self.alpha * n_sites

    def transfer_cost(self, data_volume: float) -> float:
        """Return the network-transfer component ``beta * D``."""
        if data_volume < 0.0:
            raise ConfigurationError(f"data volume must be >= 0, got {data_volume}")
        return self.beta * data_volume

    def n_max(self, f: float, w_p: float, data_volume: float) -> int:
        """Proposition 4.1: maximum degree of a ``CG_f`` execution.

        ``N_max(op, f) = max{ floor((f * W_p - beta*D) / alpha), 1 }``.

        A degenerate model with ``alpha == 0`` imposes no startup penalty,
        so any degree is coarse grain provided ``beta*D <= f*W_p``; we
        return a sentinel of ``2**31`` in that case (callers always clamp
        to the number of sites ``P``).

        Parameters
        ----------
        f:
            Granularity parameter (must be ``> 0``).
        w_p:
            Processing area ``W_p(op)``.
        data_volume:
            ``D``, bytes moved over the interconnect.
        """
        if f <= 0.0:
            raise ConfigurationError(f"granularity parameter f must be > 0, got {f}")
        if w_p < 0.0:
            raise ConfigurationError(f"processing area must be >= 0, got {w_p}")
        cap = f * w_p
        transfer = self.beta * data_volume
        budget = cap - transfer
        if self.alpha == 0.0:
            return 2**31 if budget >= 0.0 else 1
        n = int(math.floor(budget / self.alpha))
        # The rounded quotient can land one step off the exact boundary
        # (e.g. 0.225 / 0.015 == 14.999...); settle n against the
        # Definition 4.1 test ``alpha*N + beta*D <= f*W_p`` itself.
        while self.alpha * (n + 1) + transfer <= cap:
            n += 1
        while n > 1 and self.alpha * n + transfer > cap:
            n -= 1
        return max(n, 1)


def granularity_ratio(w_p: float, communication_area: float) -> float:
    """Return ``W_c / W_p`` — the inverse of Stone's granularity ratio.

    The paper defines granularity as ``W_p / W_c``; Definition 4.1 states
    the ``CG_f`` condition as ``W_c <= f * W_p``, i.e. this ratio being at
    most ``f``.  Returns ``inf`` for an operator with zero processing area
    and non-zero communication.
    """
    if w_p <= 0.0:
        return math.inf if communication_area > 0.0 else 0.0
    return communication_area / w_p


def is_coarse_grain(w_p: float, communication_area: float, f: float) -> bool:
    """Definition 4.1: is the execution ``CG_f``, i.e. ``W_c <= f * W_p``?"""
    if f <= 0.0:
        raise ConfigurationError(f"granularity parameter f must be > 0, got {f}")
    return communication_area <= f * w_p
