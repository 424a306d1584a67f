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

Every site runs one event loop, :func:`_run_site`, which allocates
progress rates per policy between events.  Its inputs generalize the
idealized site along three axes:

* heterogeneous clusters: a site of capacity ``c``
  (:attr:`~repro.core.site.Site.capacity`) executes every resource ``c``
  times faster.  Recorded rate intervals stay in utilization units
  (fraction of the site's own budget);
* fault injection: every entry point accepts an optional
  :class:`~repro.sim.faults.FaultPlan` (or per-site
  :class:`~repro.sim.faults.SiteFaults`).  A fault-free site is the
  empty-bundle case; faulty sites add capacity slowdowns, work-estimate
  skew, straggler start delays and whole-site failures with
  restart-after-delay recovery, for all three sharing policies;
* partial preemptability (:mod:`repro.sim.preemptability`): FAIR_SHARE
  with a per-resource capacity that shrinks with the number of clones
  sharing the resource.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:
    from repro.sim.preemptability import PreemptabilityModel

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


class _CloneState:
    """Mutable progress of one clone inside :func:`_run_site`."""

    __slots__ = (
        "clone",
        "label",
        "t_seq",
        "work",
        "rates",
        "remaining",
        "tolerance",
        "release",
        "start",
        "done",
    )


def _site_states(site: Site, faults: SiteFaults) -> list[_CloneState]:
    """Clone states with skewed work applied and release times attached.

    A skewed clone's stand-alone time is re-derived from its *actual*
    work vector under EA2 with the plan's epsilon, which preserves the
    Section 4.1 bound ``l(W) <= T_seq <= sum(W)`` by construction
    (:meth:`OverlapModel.t_seq` validates it).
    """
    clone_faults = faults.clones
    overlap = (
        ConvexCombinationOverlap(faults.epsilon)
        if clone_faults and faults.has_skew
        else None
    )
    states = []
    for clone in site.clones:
        s = _CloneState()
        s.clone = clone
        s.label = label = f"{clone.operator}#{clone.clone_index}"
        fault = clone_faults.get(label)
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
        s.t_seq = t_actual
        s.work = components
        s.rates = (
            tuple([c / t_actual for c in components])
            if t_actual > 0
            else (0.0,) * len(components)
        )
        s.remaining = t_actual
        s.tolerance = _EPS * max(1.0, t_actual)
        s.release = fault.straggler_delay if fault is not None else 0.0
        s.start = None
        s.done = False
        states.append(s)
    return states


def _run_site(
    site: Site,
    policy: SharingPolicy,
    faults: SiteFaults,
    model: "PreemptabilityModel | None" = None,
) -> tuple[SiteSimulation, float]:
    """Event-driven fluid simulation of one site: the simulator's one loop.

    Returns the site simulation and the stand-alone-seconds of progress
    destroyed (and later re-run) by a failure.

    State is piecewise constant between events: clone completions,
    straggler releases, the failure instant and the recovery instant.
    ``speed`` is the site's capacity times the fault slowdown: a
    slowdown ``s`` scales *every* progress speed by ``s``, so in
    isolation it multiplies every duration by exactly ``1/s`` (the EA2
    stand-alone time models imperfect overlap, which a uniformly slower
    site preserves).  Per segment the policies allocate:

    * SERIAL runs the released clone of highest rank (longest scheduled
      ``T_seq`` first) at ``speed``;
    * FAIR_SHARE runs every active clone at one common throttle, the
      largest that keeps each resource ``i`` within its capacity
      ``model.effective_capacity(i, users_i)`` (1 without a
      :class:`~repro.sim.preemptability.PreemptabilityModel`);
    * OPTIMAL_STRETCH finishes every active clone together at the
      horizon ``max(max_c rem_c, max_i sum_c W_c[i] * rem_c / T_c) /
      speed``, computed from the remaining work; at zero progress on a
      fault-free site that is exactly Equation (2)'s ``site.t_site()``.

    Failure semantics: at ``fail_at`` every *started, unfinished* clone
    loses its progress (its remaining work resets to the full actual
    stand-alone time); clones that completed at or before the failure
    instant keep their materialized results; the site is down for
    ``restart_delay`` and then re-runs the lost work.  A clone starts
    when it first receives a positive speed.
    """
    if model is not None and model.d != site.d:
        raise SimulationError(
            f"preemptability model covers {model.d} resources; site has {site.d}"
        )
    analytic = site.t_site()
    slowdown = faults.slowdown if faults.slowdown is not None else 1.0
    if slowdown <= 0.0:
        raise SimulationError(f"site {site.index}: slowdown factor must be > 0")
    # The site's own speed composes with the fault slowdown: a capacity-2
    # site degraded to half speed progresses at factor 1.0.  Multiplying
    # by the default capacity 1.0 is bit-exact.
    speed = site.capacity * slowdown
    # Feasibility is judged against the site's own capacity (the fault
    # slowdown wastes part of it; it does not shrink what is allowed).
    budget = site.capacity
    bound = budget * (1.0 + 1e-6)
    d = site.d
    states = _site_states(site, faults)
    fail_at = faults.fail_at
    traces: list[CloneTrace] = []
    intervals: list[RateInterval] = []
    work_rerun = 0.0
    pending = [s for s in states if s.t_seq > 0.0]
    if len(pending) < len(states):
        for s in states:
            if s.t_seq <= 0.0:
                # Zero-work clones complete the instant they are released.
                s.done = True
                traces.append(
                    CloneTrace(
                        operator=s.clone.operator,
                        clone_index=s.clone.clone_index,
                        start=s.release,
                        finish=s.release,
                        nominal_t_seq=0.0,
                    )
                )
    serial = policy is SharingPolicy.SERIAL
    stretch = policy is SharingPolicy.OPTIMAL_STRETCH
    if serial:
        # SERIAL runs the first runnable clone in rank order (longest
        # scheduled T_seq first), so its lists are kept in that order.
        pending.sort(key=lambda s: (-s.clone.t_seq, s.label))
    inf = math.inf
    now = 0.0
    active: list[_CloneState] = []
    next_event = inf
    stale = True
    guard = 0
    limit = 10_000 + 10 * len(states)
    while pending:
        guard += 1
        if guard > limit:
            raise SimulationError(
                f"site {site.index}: {policy.value} simulation failed to converge"
            )
        if fail_at is not None and now >= fail_at:
            # The failure fires: in-flight progress is lost and re-run.
            for s in states:
                if not s.done and s.start is not None:
                    lost = s.t_seq - s.remaining
                    if lost > 0.0:
                        work_rerun += lost
                        s.remaining = s.t_seq
            recovered = now + faults.restart_delay
            if faults.restart_delay > 0.0:
                intervals.append(
                    RateInterval(
                        start=now,
                        end=recovered,
                        active=(),
                        throttle=0.0,
                        resource_rates=(0.0,) * d,
                    )
                )
            now = recovered
            fail_at = None
            stale = True
            continue
        if stale:
            # Only releases and the failure change the runnable set
            # between completions, so it is rebuilt only when one is due.
            active = [s for s in pending if s.release <= now]
            next_event = min(
                [s.release for s in pending if s.release > now], default=inf
            )
            if fail_at is not None and fail_at < next_event:
                next_event = fail_at
            stale = False
        if not active:
            if next_event == inf:
                raise SimulationError(
                    f"site {site.index}: no runnable clone and no future event"
                )
            now = next_event
            stale = True
            continue
        if serial:
            runner = active[0]
            running = [runner]
            speeds = [speed]
            throttle = speed
            dt = runner.remaining / speed
            agg = [r * speed for r in runner.rates]
        elif stretch:
            # Remaining work per resource, summed in placement order: at
            # zero progress this is the site's load vector bit for bit.
            demand = [0.0] * d
            horizon = 0.0
            for s in active:
                remaining = s.remaining
                if remaining > horizon:
                    horizon = remaining
                fraction = remaining / s.t_seq
                for i, w in enumerate(s.work):
                    demand[i] += w * fraction
            for load in demand:
                if load > horizon:
                    horizon = load
            horizon /= speed
            dt = horizon
            running = active
            if horizon > 0.0:
                speeds = [s.remaining / horizon for s in active]
                if 0.0 in speeds:
                    # A numerically exhausted clone gets no share; it
                    # completes in a later zero-length step.
                    running = [s for s, v in zip(active, speeds) if v > 0.0]
                    speeds = [v for v in speeds if v > 0.0]
            else:
                # Only numerically exhausted clones are left.
                speeds = [1.0] * len(active)
            throttle = min(speeds)
            agg = [0.0] * d
            for s, v in zip(running, speeds):
                for i, r in enumerate(s.rates):
                    agg[i] += r * v
        else:
            congestion = [0.0] * d
            for s in active:
                for i, r in enumerate(s.rates):
                    congestion[i] += r
            throttle = 1.0
            for i, c in enumerate(congestion):
                capacity = 1.0
                if model is not None and c > 0.0:
                    users = sum([1 for s in active if s.rates[i] > 0.0])
                    capacity = model.effective_capacity(i, users)
                if c > capacity:
                    throttle = min(throttle, capacity / c)
            throttle = v = throttle * speed
            if v <= 0.0:
                raise SimulationError(f"site {site.index}: zero progress rate")
            running = active
            speeds = [v] * len(active)
            dt = min([s.remaining for s in active]) / v
            agg = [c * v for c in congestion]
        if next_event - now < dt:
            dt = next_event - now
        if not 0.0 <= dt < inf:
            raise SimulationError(f"site {site.index}: simulation stalled at t={now}")
        end = now + dt
        peak = max(agg)
        if peak > bound:
            raise SimulationError(
                f"site {site.index}: resource {agg.index(peak)} driven at rate "
                f"{peak:.6f} > {budget:g}"
            )
        # A zero-length step (a clone whose remaining work rounds to
        # nothing) still completes clones below, but must not emit a
        # degenerate interval: downstream feasibility/duration audits
        # treat intervals as strictly positive spans.
        if dt > 0.0:
            intervals.append(
                RateInterval(
                    start=now,
                    end=end,
                    active=tuple([s.label for s in running]),
                    throttle=throttle,
                    # Utilization: the fraction of this site's budget, so
                    # the RateInterval <= 1 audit holds on fast sites too.
                    resource_rates=tuple(agg)
                    if budget == 1.0
                    else tuple([r / budget for r in agg]),
                )
            )
        finished = []
        for s, v in zip(running, speeds):
            if s.start is None:
                s.start = now
            s.remaining -= v * dt
            if s.remaining <= s.tolerance:
                s.done = True
                s.remaining = 0.0
                finished.append(s)
                traces.append(
                    CloneTrace(
                        operator=s.clone.operator,
                        clone_index=s.clone.clone_index,
                        start=s.start,
                        finish=end,
                        nominal_t_seq=s.t_seq,
                    )
                )
        now = end
        if finished:
            if len(finished) == len(pending):
                break
            for s in finished:
                pending.remove(s)
                active.remove(s)
        if now >= next_event:
            stale = True
    completion = max((t.finish for t in traces), default=now)
    if completion < -_EPS:
        raise SimulationError(f"site {site.index}: negative completion time")
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
    sim, _ = _run_site(site, policy, faults.restricted())
    prev = sim.completion_time
    if faults.has_skew:
        sim, _ = _run_site(site, policy, faults.restricted(skew=True))
        report.time_lost_skew = sim.completion_time - prev
        prev = sim.completion_time
    if faults.slowdown is not None:
        sim, _ = _run_site(
            site, policy, faults.restricted(skew=True, slowdown=True)
        )
        report.time_lost_slowdown = sim.completion_time - prev
        prev = sim.completion_time
    if faults.has_stragglers:
        sim, _ = _run_site(
            site,
            policy,
            faults.restricted(skew=True, slowdown=True, straggler=True),
        )
        report.time_lost_straggler = sim.completion_time - prev
        prev = sim.completion_time
    if faults.fail_at is not None:
        sim, rerun = _run_site(site, policy, faults)
        report.time_lost_failure = sim.completion_time - prev
        report.work_rerun = rerun
    return sim, report


_NO_FAULTS = SiteFaults()


def _fault_free_site(
    site: Site, policy: SharingPolicy, model: "PreemptabilityModel | None" = None
) -> SiteSimulation:
    """One fault-free site, checked against the Equation (2) floor.

    Work conservation holds by construction (every clone's progress is
    integrated segment by segment); what is checked here is the cheap
    invariant that no policy finishes below the analytic site time.
    """
    result, _ = _run_site(site, policy, _NO_FAULTS, model)
    if result.completion_time < result.analytic_time - 1e-6 * max(
        1.0, result.analytic_time
    ):
        raise SimulationError(
            f"site {site.index}: simulated time {result.completion_time} "
            f"below the Equation (2) floor {result.analytic_time}"
        )
    return result


def simulate_site(
    site: Site, policy: SharingPolicy, *, faults: SiteFaults | None = None
) -> SiteSimulation:
    """Simulate one site's clones under ``policy``.

    Checks rate feasibility throughout and, for a fault-free site, that
    the completion time is not below the Equation (2) floor.  A
    non-empty ``faults`` bundle perturbs the same event loop; the floor
    check is skipped there because downward work skew legitimately
    finishes below the *scheduled* analytic time.
    """
    if faults is None or faults.is_empty:
        return _fault_free_site(site, policy)
    result, _ = _run_site(site, policy, faults)
    return result


def _simulate_phase(
    schedule: Schedule,
    policy: SharingPolicy,
    plan: FaultPlan | None,
    phase_index: int,
    model: "PreemptabilityModel | None" = None,
) -> tuple[PhaseSimulation, FaultReport]:
    """One phase; faulty sites also get per-kind time attribution."""
    report = FaultReport()
    sims = []
    for site in schedule.sites:
        faults = None if plan is None else plan.for_site(phase_index, site.index)
        if faults is None or faults.is_empty:
            sims.append(_fault_free_site(site, policy, model))
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
    within it) to run the phase under perturbation.
    """
    phase, _ = _simulate_phase(schedule, policy, plan, phase_index)
    return phase


def _simulate_phases(
    phased: PhasedSchedule,
    policy: SharingPolicy,
    plan: FaultPlan | None,
    model: "PreemptabilityModel | None" = None,
) -> SimulationResult:
    """Every phase in order, with a global barrier between phases."""
    tracer = current_tracer()
    with tracer.span(
        SPAN_SIMULATE_PHASED,
        policy=policy.value,
        num_phases=phased.num_phases,
        faulted=plan is not None,
    ) as run_span:
        report = None if plan is None else FaultReport.from_counts(plan.counts())
        phases = []
        for k, schedule in enumerate(phased.phases):
            with tracer.span(SPAN_SIMULATE_PHASE, index=k) as phase_span:
                phase, phase_report = _simulate_phase(
                    schedule, policy, plan, k, model
                )
                if report is not None:
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
    produces phases identical to ``plan=None`` (every site runs the same
    loop either way), plus an all-zero report.
    """
    return _simulate_phases(phased, policy, plan)
