"""Reproduction harness for the Section 6 experimental evaluation.

Builders for every figure of the paper, the experiment runner and
configuration, and ASCII rendering.  See ``repro-experiments --help`` for
the command-line interface.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".config": ("ExperimentConfig", "PAPER_CONFIG", "quick_config"),
        ".figures": (
            "Series",
            "FigureData",
            "figure5a",
            "figure5b",
            "figure6a",
            "figure6b",
            "FIGURES",
        ),
        ".report": ("render_figure", "render_parameters", "improvement_summary"),
        ".runner": (
            "ALGORITHMS",
            "prepare_workload",
            "schedule_query",
            "response_time",
            "average_response_time",
        ),
        ".parallel": ("ParallelRunner", "SweepPoint"),
        ".sensitivity": (
            "SWEEPABLE_FIELDS",
            "parameter_sensitivity",
            "overlap_robustness",
        ),
        ".plan_selection": ("PlanCandidate", "PlanSelectionResult", "select_best_plan"),
        ".robustness": (
            "RobustnessPoint",
            "evaluate_robustness_point",
            "robustness_sweep",
            "simulate_result_under_faults",
        ),
    },
)
