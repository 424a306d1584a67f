"""Deterministic fault injection for the fluid execution simulator.

The paper's analytic model (Equations 2/3) rests on idealized runtime
assumptions: resources are perfectly preemptable at constant capacity
(A2), demand is uniform over each clone's execution (A3), and the
compile-time work vectors are exact.  This module perturbs all three in
a controlled, reproducible way so the experiments can ask how far each
scheduler's analytic promise survives contact with a misbehaving system:

* **site slowdowns** — a site's resource capacities are scaled by a
  factor below 1.0 for the whole phase (a degraded node; violates the
  constant-capacity half of A2);
* **work-estimate skew** — a clone's *actual* work vector differs
  componentwise from the scheduled one; its stand-alone time is
  re-derived under EA2 so the Section 4.1 bound
  ``l(W) <= T_seq <= sum(W)`` still holds by construction;
* **stragglers** — a clone's start is delayed within its phase
  (non-uniform availability; violates A3's uniform-progress picture);
* **site failures** — the site goes down at some point during the
  phase, in-flight clones lose their progress, and after a restart
  delay the site re-runs the lost work (finished clones keep their
  materialized results).

Everything is driven by a :class:`FaultSpec` (intensities and severity
ranges) expanded into a concrete :class:`FaultPlan` by a *private*
``random.Random(seed)`` — never the global RNG state — so the same
``(spec, schedule, seed)`` triple always yields the identical plan, and
a zero-intensity spec yields the empty plan (every site then runs
fault-free, byte-identical to a plain simulation).

The module deliberately knows nothing about the simulator internals;
:mod:`repro.sim.simulator` consumes plans and fills in the per-category
time attribution of :class:`FaultReport`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError
from repro.core.schedule import PhasedSchedule

__all__ = [
    "FaultSpec",
    "CloneFault",
    "SiteFaults",
    "FaultPlan",
    "FaultReport",
]


def _check_prob(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must lie in [0, 1], got {value}")


def _check_range(
    name: str, bounds: tuple[float, float], *, lo: float, hi: float
) -> None:
    if len(bounds) != 2 or bounds[0] > bounds[1]:
        raise ConfigurationError(f"{name} must be (low, high) with low <= high, got {bounds}")
    if bounds[0] < lo or bounds[1] > hi:
        raise ConfigurationError(f"{name} must lie within [{lo}, {hi}], got {bounds}")


@dataclass(frozen=True)
class FaultSpec:
    """Fault intensities and severity ranges (the *distribution* of faults).

    All probabilities are per injection opportunity: slowdowns and
    failures are drawn once per (phase, site), skew and straggler delays
    once per placed clone.  Severities are drawn uniformly from the
    corresponding range; delay/failure instants are expressed as
    fractions of the site's analytic Equation (2) time so one spec
    scales across schedules of any magnitude.

    Attributes
    ----------
    slowdown_prob, slowdown_range:
        Probability that a site runs a phase degraded, and the range of
        the capacity factor applied to every resource (within ``(0, 1]``).
    skew_prob, skew_range:
        Probability that a clone's actual work deviates from the
        scheduled estimate, and the range of the per-component
        multiplier (strictly positive; values above 1 model
        underestimated work).
    straggler_prob, straggler_delay_range:
        Probability that a clone starts late, and its delay as a
        fraction of the site's analytic time.
    failure_prob, failure_at_range, restart_delay_range:
        Probability that a site fails during a phase, the failure
        instant as a fraction of the site's analytic time, and the
        restart delay as a fraction of the same.
    epsilon:
        EA2 overlap parameter used to re-derive a skewed clone's
        stand-alone time from its actual work vector.
    """

    slowdown_prob: float = 0.0
    slowdown_range: tuple[float, float] = (0.5, 0.9)
    skew_prob: float = 0.0
    skew_range: tuple[float, float] = (0.75, 1.5)
    straggler_prob: float = 0.0
    straggler_delay_range: tuple[float, float] = (0.05, 0.5)
    failure_prob: float = 0.0
    failure_at_range: tuple[float, float] = (0.1, 0.9)
    restart_delay_range: tuple[float, float] = (0.1, 0.5)
    epsilon: float = 0.5

    def __post_init__(self) -> None:
        _check_prob("slowdown_prob", self.slowdown_prob)
        _check_prob("skew_prob", self.skew_prob)
        _check_prob("straggler_prob", self.straggler_prob)
        _check_prob("failure_prob", self.failure_prob)
        _check_prob("epsilon", self.epsilon)
        _check_range("slowdown_range", self.slowdown_range, lo=1e-6, hi=1.0)
        _check_range("skew_range", self.skew_range, lo=1e-6, hi=1e6)
        _check_range(
            "straggler_delay_range", self.straggler_delay_range, lo=0.0, hi=1e6
        )
        _check_range("failure_at_range", self.failure_at_range, lo=0.0, hi=1.0)
        _check_range(
            "restart_delay_range", self.restart_delay_range, lo=0.0, hi=1e6
        )

    @property
    def is_zero(self) -> bool:
        """True when no fault can ever be drawn from this spec."""
        return (
            self.slowdown_prob == 0.0
            and self.skew_prob == 0.0
            and self.straggler_prob == 0.0
            and self.failure_prob == 0.0
        )

    @classmethod
    def none(cls, *, epsilon: float = 0.5) -> "FaultSpec":
        """The zero-fault spec (expands to the empty plan)."""
        return cls(epsilon=epsilon)

    @classmethod
    def at_intensity(cls, intensity: float, *, epsilon: float = 0.5) -> "FaultSpec":
        """A one-knob spec family for the robustness sweep.

        ``intensity = 0`` is the zero-fault spec; ``intensity = 1`` is a
        hostile environment (roughly one fault per site-phase).  The
        per-kind probabilities scale linearly with ``intensity`` while
        the severity ranges stay fixed, so sweeping intensity isolates
        *how often* things go wrong from *how badly*.
        """
        if not 0.0 <= intensity <= 1.0:
            raise ConfigurationError(
                f"fault intensity must lie in [0, 1], got {intensity}"
            )
        return cls(
            slowdown_prob=0.30 * intensity,
            skew_prob=0.40 * intensity,
            straggler_prob=0.25 * intensity,
            failure_prob=0.15 * intensity,
            epsilon=epsilon,
        )


@dataclass(frozen=True)
class CloneFault:
    """Concrete faults drawn for one placed clone.

    Attributes
    ----------
    work_multipliers:
        Per-component multipliers turning the scheduled work vector into
        the actual one, or ``None`` when the estimate was exact.
    straggler_delay:
        Absolute delay (in simulated seconds) before the clone becomes
        runnable within its phase; 0 when the clone starts on time.
    """

    work_multipliers: tuple[float, ...] | None = None
    straggler_delay: float = 0.0

    @property
    def is_empty(self) -> bool:
        return self.work_multipliers is None and self.straggler_delay == 0.0


@dataclass(frozen=True)
class SiteFaults:
    """Concrete faults drawn for one (phase, site) pair.

    Attributes
    ----------
    slowdown:
        Capacity factor in ``(0, 1)`` applied to every resource for the
        whole phase, or ``None`` when the site runs at full capacity.
    fail_at, restart_delay:
        Absolute failure instant and downtime (simulated seconds), or
        ``fail_at=None`` when the site does not fail.  On failure,
        unfinished started clones lose their progress and re-run it
        after the restart.
    clones:
        Per-clone faults keyed by the simulator's ``operator#index``
        label (only labels with a non-empty fault appear).
    epsilon:
        EA2 overlap parameter for re-deriving skewed stand-alone times
        (copied from the spec so a bundle is self-contained).
    """

    slowdown: float | None = None
    fail_at: float | None = None
    restart_delay: float = 0.0
    clones: dict[str, CloneFault] = field(default_factory=dict)
    epsilon: float = 0.5

    @property
    def has_skew(self) -> bool:
        return any(c.work_multipliers is not None for c in self.clones.values())

    @property
    def has_stragglers(self) -> bool:
        return any(c.straggler_delay > 0.0 for c in self.clones.values())

    @property
    def is_empty(self) -> bool:
        return (
            self.slowdown is None
            and self.fail_at is None
            and not self.has_skew
            and not self.has_stragglers
        )

    def restricted(
        self,
        *,
        skew: bool = False,
        slowdown: bool = False,
        straggler: bool = False,
        failure: bool = False,
    ) -> "SiteFaults":
        """A copy keeping only the enabled fault kinds.

        Used by the simulator's attribution ladder: simulating with
        progressively more kinds enabled splits the total time lost into
        per-kind contributions.
        """
        clones = {}
        for label, fault in self.clones.items():
            kept = CloneFault(
                work_multipliers=fault.work_multipliers if skew else None,
                straggler_delay=fault.straggler_delay if straggler else 0.0,
            )
            if not kept.is_empty:
                clones[label] = kept
        return SiteFaults(
            slowdown=self.slowdown if slowdown else None,
            fail_at=self.fail_at if failure else None,
            restart_delay=self.restart_delay if failure else 0.0,
            clones=clones,
            epsilon=self.epsilon,
        )


@dataclass
class FaultPlan:
    """A concrete, fully materialized assignment of faults to a schedule.

    Built from a :class:`FaultSpec` and a seed via :meth:`build`; the
    expansion is a pure function of ``(spec, schedule, seed)`` (no
    global RNG state is read or written), so plans are reproducible
    across processes and worker counts.

    Attributes
    ----------
    spec, seed:
        The generating distribution and seed (kept for provenance).
    sites:
        Non-empty per-(phase, site) fault bundles, keyed by
        ``(phase_index, site_index)``.
    """

    spec: FaultSpec
    seed: int
    sites: dict[tuple[int, int], SiteFaults] = field(default_factory=dict)

    @classmethod
    def build(cls, spec: FaultSpec, phased: PhasedSchedule, seed: int) -> "FaultPlan":
        """Expand ``spec`` over every (phase, site, clone) of ``phased``.

        Iteration order (phases in execution order, sites by index,
        clones in placement order) and draw order (slowdown, failure,
        then per-clone skew and straggler) are fixed, so the plan is a
        deterministic function of its inputs.  Empty sites draw nothing.
        """
        rng = random.Random(seed)
        sites: dict[tuple[int, int], SiteFaults] = {}
        for k, schedule in enumerate(phased.phases):
            for site in schedule.sites:
                if site.is_empty():
                    continue
                t_ref = site.t_site()
                slowdown = None
                if rng.random() < spec.slowdown_prob:
                    slowdown = rng.uniform(*spec.slowdown_range)
                fail_at = None
                restart_delay = 0.0
                if rng.random() < spec.failure_prob and t_ref > 0.0:
                    fail_at = rng.uniform(*spec.failure_at_range) * t_ref
                    restart_delay = rng.uniform(*spec.restart_delay_range) * t_ref
                clones: dict[str, CloneFault] = {}
                for clone in site.clones:
                    multipliers = None
                    if rng.random() < spec.skew_prob:
                        multipliers = tuple(
                            rng.uniform(*spec.skew_range)
                            for _ in range(clone.work.d)
                        )
                    delay = 0.0
                    if rng.random() < spec.straggler_prob and t_ref > 0.0:
                        delay = rng.uniform(*spec.straggler_delay_range) * t_ref
                    fault = CloneFault(
                        work_multipliers=multipliers, straggler_delay=delay
                    )
                    if not fault.is_empty:
                        clones[f"{clone.operator}#{clone.clone_index}"] = fault
                bundle = SiteFaults(
                    slowdown=slowdown,
                    fail_at=fail_at,
                    restart_delay=restart_delay,
                    clones=clones,
                    epsilon=spec.epsilon,
                )
                if not bundle.is_empty:
                    sites[(k, site.index)] = bundle
        return cls(spec=spec, seed=seed, sites=sites)

    def for_site(self, phase_index: int, site_index: int) -> SiteFaults | None:
        """The fault bundle for one (phase, site), or ``None``."""
        return self.sites.get((phase_index, site_index))

    @property
    def is_empty(self) -> bool:
        """True when the plan injects nothing (zero-fault identity path)."""
        return not self.sites

    def counts(self) -> dict[str, int]:
        """Number of injected faults by kind (plan-level, pre-simulation)."""
        slowdowns = skews = stragglers = failures = 0
        for bundle in self.sites.values():
            if bundle.slowdown is not None:
                slowdowns += 1
            if bundle.fail_at is not None:
                failures += 1
            for fault in bundle.clones.values():
                if fault.work_multipliers is not None:
                    skews += 1
                if fault.straggler_delay > 0.0:
                    stragglers += 1
        return {
            "slowdowns": slowdowns,
            "skews": skews,
            "stragglers": stragglers,
            "failures": failures,
        }


@dataclass
class FaultReport:
    """Per-category attribution of a faulty simulation's time lost.

    Counts come from the plan (what was injected); the ``time_lost_*``
    fields are filled by the simulator's attribution ladder: for every
    faulty site it re-simulates with progressively more fault kinds
    enabled (skew, then slowdown, then stragglers, then failure) and
    charges each kind the site-completion-time delta it causes.  Skew
    can be *negative* (overestimated work finishes early); the other
    categories are non-negative.

    ``work_rerun`` totals the stand-alone-seconds of progress that
    failures destroyed and the recovery re-executed.
    """

    slowdowns: int = 0
    skews: int = 0
    stragglers: int = 0
    failures: int = 0
    time_lost_slowdown: float = 0.0
    time_lost_skew: float = 0.0
    time_lost_straggler: float = 0.0
    time_lost_failure: float = 0.0
    work_rerun: float = 0.0

    @property
    def faults_injected(self) -> int:
        """Total faults of all kinds the plan injected."""
        return self.slowdowns + self.skews + self.stragglers + self.failures

    @property
    def total_time_lost(self) -> float:
        """Net site-seconds lost across all categories."""
        return (
            self.time_lost_slowdown
            + self.time_lost_skew
            + self.time_lost_straggler
            + self.time_lost_failure
        )

    def merge(self, other: "FaultReport") -> None:
        """Fold another report's counts and attributions into this one."""
        self.slowdowns += other.slowdowns
        self.skews += other.skews
        self.stragglers += other.stragglers
        self.failures += other.failures
        self.time_lost_slowdown += other.time_lost_slowdown
        self.time_lost_skew += other.time_lost_skew
        self.time_lost_straggler += other.time_lost_straggler
        self.time_lost_failure += other.time_lost_failure
        self.work_rerun += other.work_rerun

    @classmethod
    def from_counts(cls, counts: dict[str, int]) -> "FaultReport":
        """Seed a report with a plan's injection counts."""
        return cls(
            slowdowns=counts.get("slowdowns", 0),
            skews=counts.get("skews", 0),
            stragglers=counts.get("stragglers", 0),
            failures=counts.get("failures", 0),
        )

