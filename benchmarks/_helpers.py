"""Shared utilities for the benchmark harness.

Each benchmark module regenerates one paper table/figure (printing the
series exactly as EXPERIMENTS.md records them) and times the core
computation with ``pytest-benchmark``.  Regenerated reports are also
written under ``benchmarks/results/`` so they survive non-verbose runs.
"""

from __future__ import annotations

import pathlib

from repro.experiments import PAPER_CONFIG
from repro.plans.physical_ops import use_annotation

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Reduced sweep used by the benchmarks: the paper's parameter values with
#: fewer samples so every figure regenerates in seconds.  Shapes (who
#: wins, where the curves bend) are preserved; EXPERIMENTS.md records the
#: correspondence.
BENCH_CONFIG = PAPER_CONFIG.with_overrides(
    n_queries=3,
    site_counts=(10, 40, 80, 140),
    query_sizes=(10, 20, 40),
    f_values=(0.05, 0.2, 0.7),
    epsilon_values=(0.1, 0.4, 0.7),
)


def publish(name: str, text: str) -> None:
    """Print a regenerated report and persist it under results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def run_annotated(scheduler, query, **kwargs):
    """Run ``scheduler`` on ``query``'s shared plan under its own annotation.

    The prepared queries share one unannotated operator tree per cohort;
    their cost annotation is a separate view that must be active while a
    scheduler reads the operators' specs.
    """
    with use_annotation(query.annotation):
        return scheduler(query.operator_tree, query.task_tree, **kwargs)
