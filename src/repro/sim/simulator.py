"""Fluid discrete-event simulation of phased schedules.

This substrate executes a schedule instead of just evaluating Equation (3)
on it: every site runs its resident clones under a
:class:`~repro.sim.policies.SharingPolicy`, producing per-clone traces and
piecewise-constant rate intervals whose feasibility (no resource above
unit capacity) and work conservation are checked as the simulation
advances.  Phases are synchronized globally, as in TREESCHEDULE: phase
``k+1`` starts when the slowest site of phase ``k`` finishes.

Under :attr:`SharingPolicy.OPTIMAL_STRETCH` the simulated response time
reproduces the analytic model *exactly* (this is asserted by the
validation tests); under :attr:`FAIR_SHARE` and :attr:`SERIAL` it bounds
the model from above, quantifying the optimism of assumptions A2/A3.

Heterogeneous clusters: a site of capacity ``c``
(:attr:`~repro.core.site.Site.capacity`) executes every resource ``c``
times faster.  The fault-free per-policy simulators run in unit-capacity
time and :func:`simulate_site` rescales their events by ``1/c``; the
fault event loop composes ``c`` directly with the fault slowdown factor.
Recorded rate intervals stay in utilization units (fraction of the
site's own budget).  At ``c = 1.0`` every path is byte-identical to the
homogeneous simulator.

Fault injection: every entry point accepts an optional
:class:`~repro.sim.faults.FaultPlan` (or per-site
:class:`~repro.sim.faults.SiteFaults`).  Sites untouched by the plan run
the exact unperturbed code path — a zero-fault plan is byte-identical to
no plan at all (golden-tested) — while faulty sites go through a
generalized event loop that honours capacity slowdowns, work-estimate
skew, straggler start delays and whole-site failures with
restart-after-delay recovery, for all three sharing policies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.exceptions import SimulationError
from repro.core.resource_model import ConvexCombinationOverlap
from repro.core.schedule import PhasedSchedule, Schedule
from repro.core.site import Site
from repro.core.work_vector import WorkVector
from repro.obs.names import SPAN_SIMULATE_PHASE, SPAN_SIMULATE_PHASED
from repro.obs.tracer import current_tracer
from repro.sim.events import CloneTrace, RateInterval
from repro.sim.faults import FaultPlan, FaultReport, SiteFaults
from repro.sim.policies import SharingPolicy

__all__ = [
    "SiteSimulation",
    "PhaseSimulation",
    "SimulationResult",
    "simulate_site",
    "simulate_schedule",
    "simulate_phased",
]

_EPS = 1e-9


@dataclass
class SiteSimulation:
    """Simulation outcome for one site within one phase.

    Attributes
    ----------
    site_index:
        The simulated site.
    completion_time:
        Time (relative to phase start) at which the last clone finished.
    analytic_time:
        The Equation (2) site time, for comparison.
    traces:
        Per-clone execution records.
    intervals:
        Piecewise-constant rate intervals (empty for idle sites).
    """

    site_index: int
    completion_time: float
    analytic_time: float
    traces: list[CloneTrace] = field(default_factory=list)
    intervals: list[RateInterval] = field(default_factory=list)

    @property
    def deviation(self) -> float:
        """Relative excess of simulated over analytic time (0 when idle)."""
        if self.analytic_time <= 0.0:
            return 0.0
        return (self.completion_time - self.analytic_time) / self.analytic_time


@dataclass
class PhaseSimulation:
    """Simulation outcome for one synchronized phase."""

    sites: list[SiteSimulation]
    makespan: float
    analytic_makespan: float


@dataclass
class SimulationResult:
    """Simulation outcome for a full phased schedule.

    Attributes
    ----------
    policy:
        The sharing policy that was simulated.
    phases:
        Per-phase outcomes, in execution order.
    response_time:
        Total simulated response time (sum of phase makespans, since
        phases are globally synchronized).
    analytic_response_time:
        The Equation (3) response time of the same schedule.
    fault_report:
        Per-category fault attribution when the simulation ran under a
        :class:`~repro.sim.faults.FaultPlan`; ``None`` otherwise.
    """

    policy: SharingPolicy
    phases: list[PhaseSimulation]
    response_time: float
    analytic_response_time: float
    fault_report: FaultReport | None = None

    @property
    def slowdown(self) -> float:
        """``simulated / analytic`` response-time ratio (1.0 when equal).

        A degenerate schedule (zero analytic time) with positive
        simulated time is *infinitely* slower, not "in agreement": the
        ratio is ``inf`` in that case, so disagreement on degenerate
        schedules cannot masquerade as a perfect match.
        """
        if self.analytic_response_time <= 0.0:
            return 1.0 if self.response_time <= 0.0 else math.inf
        return self.response_time / self.analytic_response_time


def _clone_states(site: Site) -> list[dict]:
    states = []
    for clone in site.clones:
        t = clone.t_seq
        rates = tuple((c / t if t > 0 else 0.0) for c in clone.work.components)
        states.append(
            {
                "label": f"{clone.operator}#{clone.clone_index}",
                "operator": clone.operator,
                "clone_index": clone.clone_index,
                "t_seq": t,
                "rates": rates,
                "remaining": t,
            }
        )
    return states


def _check_feasible(
    resource_rates: tuple[float, ...], site_index: int, limit: float = 1.0
) -> None:
    for i, r in enumerate(resource_rates):
        if r > limit * (1.0 + 1e-6):
            raise SimulationError(
                f"site {site_index}: resource {i} driven at rate {r:.6f} > "
                f"{limit:g}"
            )


def _simulate_stretch(site: Site) -> SiteSimulation:
    """OPTIMAL_STRETCH: every clone finishes exactly at T* (Equation 2).

    Runs in unit-capacity time; :func:`simulate_site` rescales for
    heterogeneous sites.
    """
    analytic = site.unit_t_site()
    states = _clone_states(site)
    t_star = analytic
    traces = []
    agg = [0.0] * site.d
    for s in states:
        # Stretch factor T_c / T*; a zero-work clone completes immediately.
        factor = (s["t_seq"] / t_star) if t_star > 0 else 0.0
        for i, r in enumerate(s["rates"]):
            agg[i] += r * factor
        traces.append(
            CloneTrace(
                operator=s["operator"],
                clone_index=s["clone_index"],
                start=0.0,
                finish=t_star if s["t_seq"] > 0 else 0.0,
                nominal_t_seq=s["t_seq"],
            )
        )
    rates = tuple(agg)
    _check_feasible(rates, site.index)
    intervals = []
    if states and t_star > 0:
        intervals.append(
            RateInterval(
                start=0.0,
                end=t_star,
                active=tuple(s["label"] for s in states),
                throttle=min(
                    (s["t_seq"] / t_star for s in states if s["t_seq"] > 0),
                    default=1.0,
                ),
                resource_rates=rates,
            )
        )
    return SiteSimulation(
        site_index=site.index,
        completion_time=t_star if states else 0.0,
        analytic_time=analytic,
        traces=traces,
        intervals=intervals,
    )


def _simulate_fair_share(site: Site) -> SiteSimulation:
    """FAIR_SHARE: equal throttle for all active clones, event-driven.

    Runs in unit-capacity time; :func:`simulate_site` rescales for
    heterogeneous sites.
    """
    analytic = site.unit_t_site()
    states = _clone_states(site)
    active = [s for s in states if s["t_seq"] > 0]
    traces = [
        CloneTrace(
            operator=s["operator"],
            clone_index=s["clone_index"],
            start=0.0,
            finish=0.0,
            nominal_t_seq=0.0,
        )
        for s in states
        if s["t_seq"] <= 0
    ]
    intervals: list[RateInterval] = []
    now = 0.0
    guard = 0
    while active:
        guard += 1
        if guard > 10_000 + 10 * len(states):
            raise SimulationError(
                f"site {site.index}: fair-share simulation failed to converge"
            )
        congestion = [0.0] * site.d
        for s in active:
            for i, r in enumerate(s["rates"]):
                congestion[i] += r
        peak = max(congestion, default=0.0)
        throttle = 1.0 if peak <= 1.0 else 1.0 / peak
        # Next completion under the common throttle.
        dt = min(s["remaining"] / throttle for s in active)
        end = now + dt
        rates = tuple(c * throttle for c in congestion)
        _check_feasible(rates, site.index)
        # A zero-length step (a clone whose remaining work rounds to
        # nothing) still completes clones below, but must not emit a
        # degenerate interval: downstream feasibility/duration audits
        # treat intervals as strictly positive spans.
        if dt > 0.0:
            intervals.append(
                RateInterval(
                    start=now,
                    end=end,
                    active=tuple(s["label"] for s in active),
                    throttle=throttle,
                    resource_rates=rates,
                )
            )
        still_active = []
        for s in active:
            s["remaining"] -= throttle * dt
            if s["remaining"] <= _EPS * max(1.0, s["t_seq"]):
                traces.append(
                    CloneTrace(
                        operator=s["operator"],
                        clone_index=s["clone_index"],
                        start=0.0,
                        finish=end,
                        nominal_t_seq=s["t_seq"],
                    )
                )
            else:
                still_active.append(s)
        active = still_active
        now = end
    return SiteSimulation(
        site_index=site.index,
        completion_time=now,
        analytic_time=analytic,
        traces=traces,
        intervals=intervals,
    )


def _simulate_serial(site: Site) -> SiteSimulation:
    """SERIAL: clones run one after another, longest first.

    Runs in unit-capacity time; :func:`simulate_site` rescales for
    heterogeneous sites.
    """
    analytic = site.unit_t_site()
    states = sorted(
        _clone_states(site), key=lambda s: (-s["t_seq"], s["label"])
    )
    traces = []
    intervals = []
    now = 0.0
    for s in states:
        end = now + s["t_seq"]
        traces.append(
            CloneTrace(
                operator=s["operator"],
                clone_index=s["clone_index"],
                start=now,
                finish=end,
                nominal_t_seq=s["t_seq"],
            )
        )
        if s["t_seq"] > 0:
            intervals.append(
                RateInterval(
                    start=now,
                    end=end,
                    active=(s["label"],),
                    throttle=1.0,
                    resource_rates=s["rates"],
                )
            )
        now = end
    return SiteSimulation(
        site_index=site.index,
        completion_time=now,
        analytic_time=analytic,
        traces=traces,
        intervals=intervals,
    )


_POLICY_DISPATCH = {
    SharingPolicy.OPTIMAL_STRETCH: _simulate_stretch,
    SharingPolicy.FAIR_SHARE: _simulate_fair_share,
    SharingPolicy.SERIAL: _simulate_serial,
}


def _scale_site_sim(sim: SiteSimulation, capacity: float) -> SiteSimulation:
    """Rescale a unit-capacity simulation to a site of speed ``capacity``.

    A capacity-``c`` site drives every resource ``c`` times faster, so
    every event lands at ``t / c``.  Recorded ``resource_rates`` stay in
    *utilization* units (fraction of the site's own budget) — running
    ``c``× faster on a ``c``× budget leaves utilization unchanged, so
    :meth:`RateInterval.is_feasible`'s ``<= 1`` audit remains the right
    check.  Callers skip this entirely at ``c == 1.0``, keeping the
    homogeneous simulation byte-identical.
    """
    sim.completion_time /= capacity
    sim.analytic_time /= capacity
    sim.traces = [
        CloneTrace(
            operator=t.operator,
            clone_index=t.clone_index,
            start=t.start / capacity,
            finish=t.finish / capacity,
            nominal_t_seq=t.nominal_t_seq,
        )
        for t in sim.traces
    ]
    sim.intervals = [
        RateInterval(
            start=iv.start / capacity,
            end=iv.end / capacity,
            active=iv.active,
            throttle=iv.throttle,
            resource_rates=iv.resource_rates,
        )
        for iv in sim.intervals
    ]
    return sim


# ----------------------------------------------------------------------
# Fault-perturbed execution
# ----------------------------------------------------------------------
# Faulty sites run a generalized event loop instead of the closed-form
# per-policy simulators above: state is still piecewise constant, but
# events now include straggler releases, the failure instant, and the
# recovery instant in addition to clone completions.  Sites without
# faults never enter this code, which is what keeps the zero-fault path
# byte-identical to the plain simulator.


def _faulty_clone_states(site: Site, faults: SiteFaults) -> list[dict]:
    """Clone states with skewed work applied and release times attached.

    A skewed clone's stand-alone time is re-derived from its *actual*
    work vector under EA2 with the plan's epsilon, which preserves the
    Section 4.1 bound ``l(W) <= T_seq <= sum(W)`` by construction
    (:meth:`OverlapModel.t_seq` validates it).
    """
    overlap = ConvexCombinationOverlap(faults.epsilon)
    states = []
    for clone in site.clones:
        label = f"{clone.operator}#{clone.clone_index}"
        fault = faults.clones.get(label)
        components = clone.work.components
        t_actual = clone.t_seq
        if fault is not None and fault.work_multipliers is not None:
            if len(fault.work_multipliers) != clone.work.d:
                raise SimulationError(
                    f"site {site.index}: skew for {label} has "
                    f"{len(fault.work_multipliers)} components; clone has {clone.work.d}"
                )
            actual = WorkVector(
                [c * m for c, m in zip(components, fault.work_multipliers)]
            )
            t_actual = overlap.t_seq(actual)
            components = actual.components
        rates = tuple((c / t_actual if t_actual > 0 else 0.0) for c in components)
        states.append(
            {
                "label": label,
                "operator": clone.operator,
                "clone_index": clone.clone_index,
                "t_seq": t_actual,
                "scheduled_t_seq": clone.t_seq,
                "rates": rates,
                "remaining": t_actual,
                "release": fault.straggler_delay if fault is not None else 0.0,
                "start": None,
                "done": False,
            }
        )
    return states


def _allocate_rates(
    policy: SharingPolicy,
    active: list[dict],
    capacity: float,
    d: int,
    serial_rank: dict[str, int],
) -> list[float]:
    """Per-clone progress speeds for one piecewise-constant segment.

    ``capacity`` is the (possibly degraded) uniform resource-capacity
    factor: a slowdown ``s`` scales *every* progress speed by ``s``, so
    in isolation it multiplies every duration by exactly ``1/s`` (the
    EA2 stand-alone time models imperfect overlap, which a uniformly
    slower site preserves).  The three policies generalize their
    fault-free definitions: SERIAL runs one clone at the capacity
    factor, FAIR_SHARE applies one common throttle, and OPTIMAL_STRETCH
    finishes every active clone simultaneously at the earliest feasible
    horizon ``max(max_c rem_c, max_i sum_c rate_c[i] * rem_c) /
    capacity`` (the Equation 2 horizon when nothing is degraded).
    """
    if policy is SharingPolicy.SERIAL:
        runner = min(active, key=lambda s: serial_rank[s["label"]])
        return [capacity if s is runner else 0.0 for s in active]
    if policy is SharingPolicy.FAIR_SHARE:
        congestion = [0.0] * d
        for s in active:
            for i, r in enumerate(s["rates"]):
                congestion[i] += r
        throttle = 1.0
        for c in congestion:
            if c > 1.0:
                throttle = min(throttle, 1.0 / c)
        return [throttle * capacity] * len(active)
    horizon = max(s["remaining"] for s in active)
    for i in range(d):
        demand = math.fsum(s["rates"][i] * s["remaining"] for s in active)
        horizon = max(horizon, demand)
    horizon /= capacity
    if horizon <= 0.0:
        return [1.0] * len(active)
    return [s["remaining"] / horizon for s in active]


def _run_site_with_faults(
    site: Site, policy: SharingPolicy, faults: SiteFaults
) -> tuple[SiteSimulation, float]:
    """Event-driven simulation of one site under a fault bundle.

    Returns the site simulation and the stand-alone-seconds of progress
    destroyed (and later re-run) by a failure.

    Failure semantics: at ``fail_at`` every *started, unfinished* clone
    loses its progress (its remaining work resets to the full actual
    stand-alone time); clones that completed at or before the failure
    instant keep their materialized results; the site is down for
    ``restart_delay`` and then re-runs the lost work.
    """
    analytic = site.t_site()
    states = _faulty_clone_states(site, faults)
    slowdown = faults.slowdown if faults.slowdown is not None else 1.0
    if slowdown <= 0.0:
        raise SimulationError(f"site {site.index}: slowdown factor must be > 0")
    # The site's own speed composes with the fault slowdown: a capacity-2
    # site degraded to half speed progresses at factor 1.0.  Multiplying
    # by the default capacity 1.0 is bit-exact, so homogeneous fault runs
    # are unchanged.
    capacity = site.capacity * slowdown
    fail_at = faults.fail_at
    restart_delay = faults.restart_delay
    serial_rank = {
        s["label"]: i
        for i, s in enumerate(
            sorted(states, key=lambda s: (-s["scheduled_t_seq"], s["label"]))
        )
    }
    traces: list[CloneTrace] = []
    intervals: list[RateInterval] = []
    work_rerun = 0.0
    now = 0.0
    # Zero-work clones complete the instant they are released.
    for s in states:
        if s["t_seq"] <= 0.0:
            s["done"] = True
            traces.append(
                CloneTrace(
                    operator=s["operator"],
                    clone_index=s["clone_index"],
                    start=s["release"],
                    finish=s["release"],
                    nominal_t_seq=0.0,
                )
            )
    guard = 0
    limit = 10_000 + 10 * len(states)
    while True:
        guard += 1
        if guard > limit:
            raise SimulationError(
                f"site {site.index}: faulty simulation failed to converge"
            )
        pending = [s for s in states if not s["done"]]
        if not pending:
            break
        if fail_at is not None and now >= fail_at:
            # The failure fires: in-flight progress is lost and re-run.
            for s in pending:
                if s["start"] is not None:
                    lost = s["t_seq"] - s["remaining"]
                    if lost > 0.0:
                        work_rerun += lost
                        s["remaining"] = s["t_seq"]
            recovered = now + restart_delay
            if restart_delay > 0.0:
                intervals.append(
                    RateInterval(
                        start=now,
                        end=recovered,
                        active=(),
                        throttle=0.0,
                        resource_rates=(0.0,) * site.d,
                    )
                )
            now = recovered
            fail_at = None
            continue
        boundaries = [s["release"] for s in pending if s["release"] > now]
        if fail_at is not None and fail_at > now:
            boundaries.append(fail_at)
        active = [s for s in pending if s["release"] <= now]
        if not active:
            if not boundaries:
                raise SimulationError(
                    f"site {site.index}: no runnable clone and no future event"
                )
            now = min(boundaries)
            continue
        for s in active:
            if s["start"] is None:
                s["start"] = now
        speeds = _allocate_rates(policy, active, capacity, site.d, serial_rank)
        dt = min(
            (s["remaining"] / v for s, v in zip(active, speeds) if v > 0.0),
            default=math.inf,
        )
        if boundaries:
            dt = min(dt, min(boundaries) - now)
        if not math.isfinite(dt) or dt <= 0.0:
            raise SimulationError(
                f"site {site.index}: faulty simulation stalled at t={now}"
            )
        end = now + dt
        agg = [0.0] * site.d
        for s, v in zip(active, speeds):
            for i, r in enumerate(s["rates"]):
                agg[i] += r * v
        rates = tuple(agg)
        # Budget is the site's own capacity (the fault slowdown wastes
        # part of it; it does not shrink what feasibility allows).
        _check_feasible(rates, site.index, site.capacity)
        if site.capacity != 1.0:
            # Record utilization (fraction of this site's budget) so the
            # RateInterval <= 1 audit stays meaningful on fast sites.
            rates = tuple(r / site.capacity for r in rates)
        running = tuple(s["label"] for s, v in zip(active, speeds) if v > 0.0)
        if running:
            intervals.append(
                RateInterval(
                    start=now,
                    end=end,
                    active=running,
                    throttle=min(v for v in speeds if v > 0.0),
                    resource_rates=rates,
                )
            )
        for s, v in zip(active, speeds):
            if v <= 0.0:
                continue
            s["remaining"] -= v * dt
            if s["remaining"] <= _EPS * max(1.0, s["t_seq"]):
                s["done"] = True
                s["remaining"] = 0.0
                traces.append(
                    CloneTrace(
                        operator=s["operator"],
                        clone_index=s["clone_index"],
                        start=s["start"],
                        finish=end,
                        nominal_t_seq=s["t_seq"],
                    )
                )
        now = end
    completion = max((t.finish for t in traces), default=now)
    return (
        SiteSimulation(
            site_index=site.index,
            completion_time=completion,
            analytic_time=analytic,
            traces=traces,
            intervals=intervals,
        ),
        work_rerun,
    )


def _attribute_site_faults(
    site: Site, policy: SharingPolicy, faults: SiteFaults
) -> tuple[SiteSimulation, FaultReport]:
    """Simulate a faulty site and split its time lost per fault kind.

    The attribution ladder re-simulates with progressively more fault
    kinds enabled (skew -> slowdown -> stragglers -> failure) and
    charges each kind the site-completion-time delta it causes.  Only
    rungs whose kind is present run, so a skew-only site costs two
    simulations, not five.  Skew deltas can be negative (overestimated
    work finishes early); the remaining deltas are non-negative.
    """
    report = FaultReport()
    sim, _ = _run_site_with_faults(site, policy, faults.restricted())
    prev = sim.completion_time
    if faults.has_skew:
        sim, _ = _run_site_with_faults(site, policy, faults.restricted(skew=True))
        report.time_lost_skew = sim.completion_time - prev
        prev = sim.completion_time
    if faults.slowdown is not None:
        sim, _ = _run_site_with_faults(
            site, policy, faults.restricted(skew=True, slowdown=True)
        )
        report.time_lost_slowdown = sim.completion_time - prev
        prev = sim.completion_time
    if faults.has_stragglers:
        sim, _ = _run_site_with_faults(
            site,
            policy,
            faults.restricted(skew=True, slowdown=True, straggler=True),
        )
        report.time_lost_straggler = sim.completion_time - prev
        prev = sim.completion_time
    if faults.fail_at is not None:
        sim, rerun = _run_site_with_faults(site, policy, faults)
        report.time_lost_failure = sim.completion_time - prev
        report.work_rerun = rerun
    return sim, report


def simulate_site(
    site: Site, policy: SharingPolicy, *, faults: SiteFaults | None = None
) -> SiteSimulation:
    """Simulate one site's clones under ``policy``.

    Checks rate feasibility throughout and work conservation at the end
    (every clone's trace spans enough stretched time to complete its
    nominal work).

    With a non-empty ``faults`` bundle the site runs the perturbed event
    loop instead; the Equation (2) floor check is skipped there because
    downward work skew legitimately finishes below the *scheduled*
    analytic time.
    """
    if faults is not None and not faults.is_empty:
        result, _ = _run_site_with_faults(site, policy, faults)
        if result.completion_time < -_EPS:
            raise SimulationError(f"site {site.index}: negative completion time")
        return result
    result = _POLICY_DISPATCH[policy](site)
    if site.capacity != 1.0:
        result = _scale_site_sim(result, site.capacity)
    # Work conservation: each finished clone ran for >= its nominal time
    # scaled by the throttles it received — guaranteed by construction for
    # these policies; assert the cheap invariant finish >= 0 and
    # completion >= analytic floor for non-ideal policies.
    if result.completion_time < -_EPS:
        raise SimulationError(f"site {site.index}: negative completion time")
    if result.completion_time < result.analytic_time - 1e-6 * max(
        1.0, result.analytic_time
    ):
        raise SimulationError(
            f"site {site.index}: simulated time {result.completion_time} "
            f"below the Equation (2) floor {result.analytic_time}"
        )
    return result


def _simulate_schedule_with_plan(
    schedule: Schedule, policy: SharingPolicy, plan: FaultPlan, phase_index: int
) -> tuple[PhaseSimulation, FaultReport]:
    """One phase under a fault plan, with per-kind time attribution."""
    report = FaultReport()
    sims = []
    for site in schedule.sites:
        faults = plan.for_site(phase_index, site.index)
        if faults is None or faults.is_empty:
            sims.append(simulate_site(site, policy))
        else:
            sim, site_report = _attribute_site_faults(site, policy, faults)
            report.merge(site_report)
            sims.append(sim)
    makespan = max((s.completion_time for s in sims), default=0.0)
    return (
        PhaseSimulation(
            sites=sims, makespan=makespan, analytic_makespan=schedule.makespan()
        ),
        report,
    )


def simulate_schedule(
    schedule: Schedule,
    policy: SharingPolicy,
    *,
    plan: FaultPlan | None = None,
    phase_index: int = 0,
) -> PhaseSimulation:
    """Simulate one phase (all sites run concurrently from time zero).

    Pass a :class:`~repro.sim.faults.FaultPlan` (and the phase's index
    within it) to run the phase under perturbation; fault-free sites
    still take the exact unperturbed code path.
    """
    if plan is not None and not plan.is_empty:
        phase, _ = _simulate_schedule_with_plan(schedule, policy, plan, phase_index)
        return phase
    sites = [simulate_site(site, policy) for site in schedule.sites]
    makespan = max((s.completion_time for s in sites), default=0.0)
    return PhaseSimulation(
        sites=sites, makespan=makespan, analytic_makespan=schedule.makespan()
    )


def simulate_phased(
    phased: PhasedSchedule,
    policy: SharingPolicy = SharingPolicy.OPTIMAL_STRETCH,
    *,
    plan: FaultPlan | None = None,
) -> SimulationResult:
    """Simulate a full phased schedule with a global barrier per phase.

    With a :class:`~repro.sim.faults.FaultPlan`, every phase runs under
    the plan's perturbations and the result carries a
    :class:`~repro.sim.faults.FaultReport` attributing the time lost to
    slowdowns vs. skew vs. stragglers vs. failures.  A zero-fault plan
    produces phases byte-identical to ``plan=None`` (golden-tested),
    plus an all-zero report — the layer is pure extension.
    """
    tracer = current_tracer()
    faulted = plan is not None
    with tracer.span(
        SPAN_SIMULATE_PHASED,
        policy=policy.value,
        num_phases=phased.num_phases,
        faulted=faulted,
    ) as run_span:
        report = None if plan is None else FaultReport.from_counts(plan.counts())
        phases = []
        for k, schedule in enumerate(phased.phases):
            with tracer.span(SPAN_SIMULATE_PHASE, index=k) as phase_span:
                if plan is None:
                    phase = simulate_schedule(schedule, policy)
                else:
                    phase, phase_report = _simulate_schedule_with_plan(
                        schedule, policy, plan, k
                    )
                    assert report is not None
                    report.merge(phase_report)
                if phase_span is not None:
                    phase_span.attributes["makespan"] = phase.makespan
            phases.append(phase)
        response = math.fsum(p.makespan for p in phases)
        if run_span is not None:
            run_span.attributes["response_time"] = response
        return SimulationResult(
            policy=policy,
            phases=phases,
            response_time=response,
            analytic_response_time=phased.response_time(),
            fault_report=report,
        )
