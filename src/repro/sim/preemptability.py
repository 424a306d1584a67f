"""Partial preemptability: when time-slicing costs bandwidth (Section 8).

The paper's conclusions flag assumption A2 (zero time-sharing overhead)
as inaccurate for some resources: *"disks do not time share as gracefully
as processors or network interfaces; slicing a disk among many tasks can
reduce the disk's effective bandwidth.  Extending our model and
algorithms to consider different degrees of 'preemptability' for system
resources is a challenging issue."*

This module quantifies that concern in the execution simulator.  Each
resource ``i`` gets a *preemptability* ``sigma_i`` in ``[0, 1]``:

* ``sigma = 1`` — perfectly preemptable (A2 exactly): capacity 1
  regardless of how many clones share the resource;
* ``sigma = 0`` — completely non-preemptable sharing: with ``k``
  concurrent users the effective capacity collapses to ``1 / k``
  (e.g. random seeks destroying a disk's sequential bandwidth);
* in between, ``k`` concurrent users see effective capacity

      ``c_i(k) = 1 / (1 + (k - 1) * (1 - sigma_i))``

  — each additional concurrent user costs a ``(1 - sigma_i)`` fraction
  of one user's bandwidth in switching overhead.

The degraded simulation is the simulator's one event loop under
FAIR_SHARE, with ``c_i(k)`` as resource ``i``'s capacity in the common
throttle (scaled by the site's own speed, as every policy is).  The
model has no loop of its own, so ``sigma = (1, ..., 1)`` reproduces the
plain FAIR_SHARE policy bit for bit (tested).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.core.schedule import PhasedSchedule
from repro.core.site import Site
from repro.sim.simulator import (
    SimulationResult,
    SiteSimulation,
    _fault_free_site,
    _simulate_phases,
)
from repro.sim.policies import SharingPolicy

__all__ = ["PreemptabilityModel", "simulate_site_degraded", "simulate_phased_degraded"]


@dataclass(frozen=True)
class PreemptabilityModel:
    """Per-resource degrees of preemptability.

    Attributes
    ----------
    sigmas:
        One value in ``[0, 1]`` per resource dimension;
        1 = perfectly preemptable, 0 = fully serialized sharing.
    """

    sigmas: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.sigmas:
            raise ConfigurationError("need at least one preemptability value")
        for i, s in enumerate(self.sigmas):
            if not 0.0 <= s <= 1.0:
                raise ConfigurationError(
                    f"preemptability sigma[{i}] must lie in [0, 1], got {s}"
                )

    @property
    def d(self) -> int:
        """Number of resource dimensions covered."""
        return len(self.sigmas)

    def effective_capacity(self, resource: int, concurrent_users: int) -> float:
        """Capacity of ``resource`` with ``concurrent_users`` active users."""
        if concurrent_users < 0:
            raise ConfigurationError("concurrent user count must be >= 0")
        if concurrent_users <= 1:
            return 1.0
        sigma = self.sigmas[resource]
        return 1.0 / (1.0 + (concurrent_users - 1) * (1.0 - sigma))

    @classmethod
    def perfect(cls, d: int) -> "PreemptabilityModel":
        """Assumption A2: every resource perfectly preemptable."""
        return cls((1.0,) * d)

    @classmethod
    def sticky_disk(cls, d: int, disk_axis: int = 1, sigma_disk: float = 0.5) -> "PreemptabilityModel":
        """CPU/network preemptable, disk degraded — the paper's example."""
        sigmas = [1.0] * d
        sigmas[disk_axis] = sigma_disk
        return cls(tuple(sigmas))


def simulate_site_degraded(site: Site, model: PreemptabilityModel) -> SiteSimulation:
    """Fair-share fluid simulation with per-resource capacity degradation.

    Identical to the FAIR_SHARE policy except each resource's capacity is
    ``effective_capacity(resource, k)`` for ``k`` active clones with a
    non-zero demand rate on it.
    """
    return _fault_free_site(site, SharingPolicy.FAIR_SHARE, model)


def simulate_phased_degraded(
    phased: PhasedSchedule, model: PreemptabilityModel
) -> SimulationResult:
    """Simulate a phased schedule under partial preemptability.

    Phase barriers are global, as in TREESCHEDULE; the result's
    ``analytic_response_time`` remains the A2-idealized Equation (3)
    value, so ``slowdown`` directly measures the cost of imperfect
    preemptability.
    """
    return _simulate_phases(phased, SharingPolicy.FAIR_SHARE, None, model)
