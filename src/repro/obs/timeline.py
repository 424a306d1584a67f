"""Simulator & schedule timeline export in the Chrome trace-event format.

The fluid simulator already records a complete execution history — per
clone :class:`~repro.sim.events.CloneTrace` records, piecewise-constant
:class:`~repro.sim.events.RateInterval` resource rates, and (under a
fault plan) injection metadata.  This module converts those histories
into the same trace format :mod:`repro.obs.export` produces for spans,
so a *simulated* execution opens in Perfetto next to the span trace of
the run that scheduled it:

* one thread lane per **site**, holding a ``ph:"X"`` event per executed
  clone (``operator#clone``), laid out on the absolute run clock (phase
  ``k`` starts where phase ``k-1``'s slowest site finished — the global
  barrier of TREESCHEDULE);
* a **phases** lane whose per-phase events tile the full timeline: their
  durations sum *exactly* to the simulated response time, which is the
  invariant the test-suite pins;
* ``ph:"C"`` **counter tracks** sampling each site's per-resource
  utilization at every rate-interval boundary;
* ``ph:"i"`` **instant events** marking fault injections (slowdown onset,
  straggler releases, the failure and recovery instants) when the
  simulation ran under a :class:`~repro.sim.faults.FaultPlan`.

An *analytic* :class:`~repro.engine.result.ScheduleResult` has no event
history — only per-shelf/per-site Equation (2) times — but
:func:`schedule_result_events` renders those as a parallel process lane
so the promise and the simulated reality can be diffed visually.

Imports are type-only: the exporter reads plain attributes, so it works
on any objects with the simulator's shape and :mod:`repro.obs` stays
import-light (core and sim modules import it at module load).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.obs.export import (
    counter_event,
    duration_event,
    instant_event,
    process_name_event,
    thread_name_event,
)
from repro.obs.names import (
    INSTANT_SITE_FAILURE,
    INSTANT_SKEW,
    INSTANT_SLOWDOWN,
    INSTANT_STRAGGLER,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.result import ScheduleResult
    from repro.sim.faults import FaultPlan
    from repro.sim.simulator import SimulationResult

__all__ = ["simulation_events", "schedule_result_events", "fleet_events"]

#: Lane 0 of a timeline process is the phase barrier lane; site ``j``
#: occupies lane ``j + 1``.
PHASE_LANE = 0


def _site_lane(site_index: int) -> int:
    return site_index + 1


def _fault_instants(
    plan: "FaultPlan",
    phase_index: int,
    site_index: int,
    phase_start: float,
    pid: int,
) -> list[dict[str, Any]]:
    """Instant events for every fault the plan injects at one site."""
    faults = plan.for_site(phase_index, site_index)
    if faults is None or faults.is_empty:
        return []
    tid = _site_lane(site_index)
    events: list[dict[str, Any]] = []
    if faults.slowdown is not None:
        events.append(
            instant_event(
                INSTANT_SLOWDOWN,
                at=phase_start,
                pid=pid,
                tid=tid,
                args={"factor": faults.slowdown},
            )
        )
    for label, clone_fault in sorted(faults.clones.items()):
        delay = getattr(clone_fault, "straggler_delay", 0.0)
        if delay:
            events.append(
                instant_event(
                    INSTANT_STRAGGLER + label,
                    at=phase_start + delay,
                    pid=pid,
                    tid=tid,
                    args={"delay": delay},
                )
            )
        multipliers = getattr(clone_fault, "work_multipliers", None)
        if multipliers is not None:
            events.append(
                instant_event(
                    INSTANT_SKEW + label,
                    at=phase_start,
                    pid=pid,
                    tid=tid,
                    args={"multipliers": list(multipliers)},
                )
            )
    if faults.fail_at is not None:
        events.append(
            instant_event(
                INSTANT_SITE_FAILURE,
                at=phase_start + faults.fail_at,
                pid=pid,
                tid=tid,
                args={"restart_delay": faults.restart_delay},
            )
        )
    return events


def simulation_events(
    sim: "SimulationResult",
    *,
    plan: "FaultPlan | None" = None,
    pid: int = 1,
    process_name: str = "simulator",
) -> list[dict[str, Any]]:
    """Convert one simulated execution into trace events.

    Invariants (pinned by the test-suite):

    * the phase-lane durations sum exactly to ``sim.response_time``;
    * no clone or counter event extends past the simulated makespan
      (clone finishes are bounded by their phase's makespan, phases are
      tiled end to end).
    """
    events: list[dict[str, Any]] = [process_name_event(pid, process_name)]
    events.append(thread_name_event(pid, PHASE_LANE, "phases"))
    named_sites: set[int] = set()
    phase_start = 0.0
    for k, phase in enumerate(sim.phases):
        events.append(
            duration_event(
                f"phase {k}",
                start=phase_start,
                seconds=phase.makespan,
                pid=pid,
                tid=PHASE_LANE,
                cat="phase",
                args={
                    "analytic_makespan": phase.analytic_makespan,
                    "sites": len(phase.sites),
                },
            )
        )
        for site in phase.sites:
            tid = _site_lane(site.site_index)
            if site.site_index not in named_sites:
                named_sites.add(site.site_index)
                events.append(
                    thread_name_event(pid, tid, f"site {site.site_index}")
                )
            for trace in site.traces:
                events.append(
                    duration_event(
                        f"{trace.operator}#{trace.clone_index}",
                        start=phase_start + trace.start,
                        seconds=trace.finish - trace.start,
                        pid=pid,
                        tid=tid,
                        cat="clone",
                        args={
                            "nominal_t_seq": trace.nominal_t_seq,
                            "stretch": trace.stretch,
                        },
                    )
                )
            counter_name = f"site {site.site_index} utilization"
            for interval in site.intervals:
                events.append(
                    counter_event(
                        counter_name,
                        at=phase_start + interval.start,
                        pid=pid,
                        values={
                            f"r{i}": rate
                            for i, rate in enumerate(interval.resource_rates)
                        },
                    )
                )
            if site.intervals:
                last = site.intervals[-1]
                events.append(
                    counter_event(
                        counter_name,
                        at=phase_start + last.end,
                        pid=pid,
                        values={
                            f"r{i}": 0.0
                            for i in range(len(last.resource_rates))
                        },
                    )
                )
            if plan is not None:
                events.extend(
                    _fault_instants(plan, k, site.site_index, phase_start, pid)
                )
        phase_start += phase.makespan
    return events


def fleet_events(
    residencies: "list[tuple[str, int, float, float, dict[str, Any]]]",
    tracks: "dict[str, list[tuple[float, dict[str, float]]]]",
    instants: "list[tuple[str, float, dict[str, Any]]]" = (),
    *,
    pid: int = 3,
    process_name: str = "fleet",
) -> list[dict[str, Any]]:
    """Render a serve run's fleet view: site lanes + counter tracks.

    Takes plain data so the serve layer stays the only importer of serve
    types (``obs`` must not import ``serve``):

    ``residencies``
        ``(query, site_index, start, seconds, args)`` intervals — one
        per (query, host site), drawn as ``ph:"X"`` events on the site's
        lane (site ``j`` is lane ``j + 1``, matching the simulator
        timeline convention).
    ``tracks``
        Counter-track samples, ``name -> [(at, values), ...]`` — each
        becomes one stacked ``ph:"C"`` track (queue depth, utilization,
        governor pressure in the serve exporter).
    ``instants``
        ``(name, at, args)`` point happenings (SLO breaches), emitted as
        process-scoped ``ph:"i"`` events.
    """
    events: list[dict[str, Any]] = [process_name_event(pid, process_name)]
    named_sites: set[int] = set()
    for query, site_index, start, seconds, args in residencies:
        tid = _site_lane(site_index)
        if site_index not in named_sites:
            named_sites.add(site_index)
            events.append(thread_name_event(pid, tid, f"site {site_index}"))
        events.append(
            duration_event(
                query,
                start=start,
                seconds=seconds,
                pid=pid,
                tid=tid,
                cat="resident",
                args=dict(args) if args else None,
            )
        )
    for track_name, samples in tracks.items():
        for at, values in samples:
            events.append(
                counter_event(track_name, at=at, pid=pid, values=values, cat="serve")
            )
    for name, at, args in instants:
        events.append(
            instant_event(
                name,
                at=at,
                pid=pid,
                tid=PHASE_LANE,
                cat="slo",
                scope="p",
                args=dict(args) if args else None,
            )
        )
    return events


def schedule_result_events(
    result: "ScheduleResult",
    *,
    pid: int = 2,
    process_name: str = "analytic schedule",
) -> list[dict[str, Any]]:
    """Render an analytic result's per-shelf/per-site times as a timeline.

    Every site lane shows one event per shelf spanning the site's
    Equation (2) time ``t_site``; the phases lane tiles the Equation (3)
    makespans, so the process's total extent is the analytic response
    time.  Bound-only results (no schedule) produce only the process
    metadata.
    """
    events: list[dict[str, Any]] = [process_name_event(pid, process_name)]
    events.append(thread_name_event(pid, PHASE_LANE, "phases"))
    named_sites: set[int] = set()
    shelf_start = 0.0
    for k, shelf in enumerate(result.timelines):
        events.append(
            duration_event(
                f"shelf {k} [{shelf.label}]",
                start=shelf_start,
                seconds=shelf.makespan,
                pid=pid,
                tid=PHASE_LANE,
                cat="phase",
                args={"bins_opened": shelf.bins_opened},
            )
        )
        for site in shelf.sites:
            if site.clones == 0:
                continue
            tid = _site_lane(site.site_index)
            if site.site_index not in named_sites:
                named_sites.add(site.site_index)
                events.append(
                    thread_name_event(pid, tid, f"site {site.site_index}")
                )
            events.append(
                duration_event(
                    f"{site.clones} clones",
                    start=shelf_start,
                    seconds=site.t_site,
                    pid=pid,
                    tid=tid,
                    cat="site",
                    args={
                        "t_seq_max": site.t_seq_max,
                        "load": list(site.load),
                    },
                )
            )
        shelf_start += shelf.makespan
    return events
