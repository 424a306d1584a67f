"""Simulator-vs-analytic validation reports.

The OPTIMAL_STRETCH policy is the executable form of the paper's analytic
model; :func:`validate_phased_schedule` asserts the two agree, and
:func:`sharing_policy_report` contrasts all policies on one schedule —
the ``abl-sim`` ablation of DESIGN.md (how much of the analytic response
time depends on the idealized sharing assumptions A2/A3).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from repro.exceptions import ModelValidationError, SimulationError
from repro.core.resource_model import validate_sequential_time
from repro.core.schedule import PhasedSchedule
from repro.engine.result import ScheduleResult
from repro.sim.policies import SharingPolicy
from repro.sim.simulator import SimulationResult, simulate_phased

__all__ = [
    "PolicyComparison",
    "validate_phased_schedule",
    "validate_schedule_result",
    "sharing_policy_report",
]


@dataclass(frozen=True)
class PolicyComparison:
    """Response times of one schedule under every sharing policy.

    Attributes
    ----------
    analytic:
        The Equation (3) response time.
    optimal_stretch:
        Simulated time under ideal stretching (should equal ``analytic``).
    fair_share:
        Simulated time under equal-throttle sharing (``>= analytic``).
    serial:
        Simulated time with no sharing at all (the upper envelope).
    """

    analytic: float
    optimal_stretch: float
    fair_share: float
    serial: float

    @property
    def fair_share_penalty(self) -> float:
        """Relative cost of realistic vs. ideal sharing."""
        if self.analytic <= 0.0:
            return 0.0
        return self.fair_share / self.analytic - 1.0

    @property
    def sharing_benefit(self) -> float:
        """Factor by which ideal sharing beats no sharing."""
        if self.optimal_stretch <= 0.0:
            return 1.0
        return self.serial / self.optimal_stretch


def validate_phased_schedule(
    phased: PhasedSchedule, rel_tolerance: float = 1e-9
) -> SimulationResult:
    """Simulate under OPTIMAL_STRETCH and assert agreement with Equation (3).

    Returns the simulation result for further inspection.

    Raises
    ------
    SimulationError
        If any placed clone's recorded ``T_seq`` violates the fundamental
        Section 4.1 bound ``l(W) <= T_seq <= sum(W)``, or if the simulated
        response time deviates from the analytic model by more than
        ``rel_tolerance`` (relative).
    """
    for schedule in phased.phases:
        for site in schedule.sites:
            for clone in site.clones:
                try:
                    validate_sequential_time(clone.t_seq, clone.work)
                except ModelValidationError as exc:
                    raise SimulationError(
                        f"clone {clone.operator}#{clone.clone_index} at site "
                        f"{site.index}: {exc}"
                    ) from exc
    result = simulate_phased(phased, SharingPolicy.OPTIMAL_STRETCH)
    analytic = result.analytic_response_time
    simulated = result.response_time
    scale = max(1.0, abs(analytic))
    if abs(simulated - analytic) > rel_tolerance * scale:
        raise SimulationError(
            f"OPTIMAL_STRETCH simulation ({simulated}) disagrees with the "
            f"analytic response time ({analytic})"
        )
    return result


def validate_schedule_result(
    result: ScheduleResult, rel_tolerance: float = 1e-9
) -> SimulationResult | None:
    """Validate a registered algorithm's result end to end.

    Checks the structural constraints of every phase (Definition 5.1),
    that the recorded ``response_time`` matches the attached schedule,
    and that the fluid simulator reproduces the analytic response time
    under OPTIMAL_STRETCH.  Bound-only results (``phased_schedule is
    None``) have nothing to simulate and return ``None``.

    Additionally warns (``UserWarning``) when the result's
    instrumentation references counter, timer or span names outside the
    vocabulary of :mod:`repro.obs.names` — a deserialized result may
    come from another version of the program.

    Raises
    ------
    SchedulingError
        On a structural violation.
    SimulationError
        On analytic/simulated disagreement beyond ``rel_tolerance``.
    """
    from repro.obs.names import unknown_metric_names, unknown_span_names

    unknown = unknown_metric_names(
        result.instrumentation.counters, result.instrumentation.timers
    )
    if unknown:
        warnings.warn(
            f"{result.algorithm or 'schedule'}: instrumentation references "
            f"metric names outside the known vocabulary: {sorted(unknown)} "
            "(written by another version?)",
            stacklevel=2,
        )
    if result.instrumentation.spans:
        unknown_spans = unknown_span_names(result.instrumentation.spans)
        if unknown_spans:
            warnings.warn(
                f"{result.algorithm or 'schedule'}: recorded spans reference "
                f"names outside the known vocabulary: {sorted(unknown_spans)}",
                stacklevel=2,
            )
    if result.phased_schedule is None:
        return None
    result.validate()
    recorded = result.makespan
    analytic = result.phased_schedule.response_time()
    scale = max(1.0, abs(analytic))
    if abs(recorded - analytic) > rel_tolerance * scale:
        raise SimulationError(
            f"{result.algorithm or 'schedule'}: recorded response time "
            f"({recorded}) disagrees with its own schedule ({analytic})"
        )
    return validate_phased_schedule(result.phased_schedule, rel_tolerance)


def sharing_policy_report(phased: PhasedSchedule) -> PolicyComparison:
    """Simulate one schedule under all three policies and summarize."""
    stretch = simulate_phased(phased, SharingPolicy.OPTIMAL_STRETCH)
    fair = simulate_phased(phased, SharingPolicy.FAIR_SHARE)
    serial = simulate_phased(phased, SharingPolicy.SERIAL)
    return PolicyComparison(
        analytic=phased.response_time(),
        optimal_stretch=stretch.response_time,
        fair_share=fair.response_time,
        serial=serial.response_time,
    )
