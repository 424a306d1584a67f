"""Execution-simulator substrate: fluid simulation of multi-resource sites.

Executes schedules under explicit resource-sharing policies instead of
merely evaluating Equation (3), validating the paper's analytic model
(OPTIMAL_STRETCH reproduces it exactly) and quantifying its idealization
(FAIR_SHARE, SERIAL).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".policies": ("SharingPolicy",),
        ".events": ("CloneTrace", "RateInterval"),
        ".faults": ("FaultSpec", "CloneFault", "SiteFaults", "FaultPlan", "FaultReport"),
        ".simulator": (
            "SiteSimulation",
            "PhaseSimulation",
            "SimulationResult",
            "simulate_site",
            "simulate_schedule",
            "simulate_phased",
        ),
        ".validate": (
            "PolicyComparison",
            "validate_phased_schedule",
            "validate_schedule_result",
            "sharing_policy_report",
        ),
        ".preemptability": (
            "PreemptabilityModel",
            "simulate_site_degraded",
            "simulate_phased_degraded",
        ),
    },
)
