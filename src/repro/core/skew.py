"""Execution skew: relaxing assumption EA1 (perfect work distribution).

EA1 assumes an operator's work vector is "distributed perfectly among all
sites participating in its execution".  Real partitionings skew —
hash-value distributions are uneven, keys are hot — and skew inflates
``T_par`` (Equation 1 is a max over clones) and congests the loaded
sites.  This module provides the machinery to *evaluate* a planned
schedule under a skewed realization:

* :func:`zipf_weights` — a one-parameter (``theta``) family of clone
  weights: ``theta = 0`` is uniform (EA1); larger ``theta`` concentrates
  work on low-indexed clones like a Zipf distribution;
* :func:`skewed_clone_work_vectors` — EA1-style cloning with the uniform
  split replaced by the weighted one (startup still goes to the
  coordinator clone);
* :func:`skewed_makespan` — re-evaluate an existing
  :class:`~repro.core.schedule.Schedule`'s Equation (3) response time
  with every operator's clones re-weighted but *kept at their planned
  homes*, measuring how robust a placement is to skew it did not plan
  for.

The scheduler itself still plans under EA1 (as the paper's does); the
``abl-skew`` benchmark reports how both TREESCHEDULE's and SYNCHRONOUS's
plans hold up as ``theta`` grows.

A subtlety worth knowing: skew does **not** always slow a plan down.
Moving work toward an operator's coordinator clone can *relieve*
congestion at some other, busier site that hosted one of its
non-coordinator clones, occasionally reducing a phase's makespan.  What
is guaranteed (and property-tested) is that a phase's skewed makespan
never falls below the planned slowest-operator time — the coordinator
clone only ever gains work.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

from repro.exceptions import ConfigurationError, SchedulingError
from repro.core.cloning import (
    DEFAULT_COORDINATOR_POLICY,
    CoordinatorPolicy,
    OperatorSpec,
    ParallelTimeCurve,
)
from repro.core.granularity import CommunicationModel
from repro.core.resource_model import OverlapModel
from repro.core.schedule import PhasedSchedule, Schedule
from repro.core.site import PlacedClone, Site
from repro.core.work_vector import WorkVector

__all__ = [
    "zipf_weights",
    "skewed_clone_work_vectors",
    "skewed_makespan",
    "skewed_response_time",
]


def zipf_weights(n: int, theta: float) -> list[float]:
    """Normalized Zipf(``theta``) weights for ``n`` clones.

    ``weight_k ∝ 1 / (k + 1)^theta``; ``theta = 0`` gives the uniform
    EA1 split, ``theta = 1`` a classic Zipf profile.
    """
    if n < 1:
        raise ConfigurationError(f"clone count must be >= 1, got {n}")
    if theta < 0.0:
        raise ConfigurationError(f"skew parameter must be >= 0, got {theta}")
    raw = [1.0 / (k + 1) ** theta for k in range(n)]
    total = math.fsum(raw)
    return [w / total for w in raw]


def skewed_clone_work_vectors(
    spec: OperatorSpec,
    n: int,
    comm: CommunicationModel,
    theta: float,
    policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
) -> list[WorkVector]:
    """Partition ``spec`` into ``n`` clones with Zipf(``theta``) weights.

    Reduces to :func:`repro.core.cloning.clone_work_vectors` at
    ``theta = 0``.  The clone-vector sum (hence the Section 5.1 area
    accounting) is identical for every ``theta``; only the balance moves.
    """
    weights = zipf_weights(n, theta)
    curve = ParallelTimeCurve(spec, comm, policy)
    clones = [curve.base * w for w in weights]
    clones[0] = curve.with_startup(clones[0], n)
    return clones


def skewed_makespan(
    schedule: Schedule,
    specs: Mapping[str, OperatorSpec],
    theta: float,
    comm: CommunicationModel,
    overlap: OverlapModel,
    policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
) -> float:
    """Equation (3) makespan of ``schedule`` under skewed clone weights.

    Every operator keeps its planned home and clone ordering (clone 0,
    the heaviest under skew, stays on the coordinator's site); only the
    clone work vectors change.

    Parameters
    ----------
    schedule:
        A planned (EA1) schedule.
    specs:
        Operator specs by name, covering every operator in ``schedule``.
    theta:
        Skew parameter (0 reproduces the planned makespan exactly).
    """
    sites = [Site(j, schedule.d) for j in range(schedule.p)]
    for name in schedule.operators:
        try:
            spec = specs[name]
        except KeyError:
            raise SchedulingError(f"no spec supplied for operator {name!r}") from None
        home = schedule.home(name)
        clones = skewed_clone_work_vectors(spec, home.degree, comm, theta, policy)
        for k, site_index in enumerate(home.site_indices):
            sites[site_index].place(
                PlacedClone(
                    operator=name,
                    clone_index=k,
                    work=clones[k],
                    t_seq=overlap.t_seq(clones[k]),
                )
            )
    return max((site.t_site() for site in sites), default=0.0)


def skewed_response_time(
    phased: PhasedSchedule,
    specs: Mapping[str, OperatorSpec],
    theta: float,
    comm: CommunicationModel,
    overlap: OverlapModel,
    policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
) -> float:
    """Summed-phase response time of a phased schedule under skew."""
    return math.fsum(
        skewed_makespan(schedule, specs, theta, comm, overlap, policy)
        for schedule in phased.phases
    )
