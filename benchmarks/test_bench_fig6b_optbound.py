"""Experiment fig6b — Figure 6(b): TREESCHEDULE vs. the optimal lower bound.

Regenerates TREESCHEDULE and OPTBOUND curves for 20- and 40-join queries
(f = 0.7, eps = 0.5), prints them, asserts that the average performance is
far inside the worst-case Theorem 5.1 factor, and times the OPTBOUND
computation.
"""

from __future__ import annotations

import pytest

from repro import ConvexCombinationOverlap, opt_bound, theorem51_fixed_degree_bound
from repro.experiments import figure6b, prepare_workload, render_figure

from _helpers import BENCH_CONFIG, publish, run_annotated

QUERY_SIZES = (20, 40)


@pytest.fixture(scope="module")
def figure():
    return figure6b(BENCH_CONFIG, query_sizes=QUERY_SIZES)


def test_bench_fig6b_regenerate(figure, benchmark):
    """Regenerate and print Figure 6(b); benchmark one OPTBOUND call."""
    publish("fig6b", render_figure(figure))

    queries = prepare_workload(QUERY_SIZES[-1], BENCH_CONFIG.n_queries, BENCH_CONFIG.seed)
    comm = BENCH_CONFIG.params.communication_model()
    overlap = ConvexCombinationOverlap(BENCH_CONFIG.default_epsilon)
    query = queries[0]

    benchmark(
        lambda: run_annotated(
            opt_bound, query, p=80, f=BENCH_CONFIG.default_f,
            comm=comm, overlap=overlap,
        )
    )


def test_fig6b_shape_bound_respected_pointwise(figure):
    for size in QUERY_SIZES:
        ts = figure.series_by_label(f"TreeSchedule {size} joins")
        lb = figure.series_by_label(f"OptBound {size} joins")
        assert all(t >= b - 1e-9 for t, b in zip(ts.ys, lb.ys))


def test_fig6b_shape_average_far_inside_worst_case(figure):
    """Paper: 'the average performance of TREESCHEDULE is much closer to
    optimal than what we would expect from the worst-case bound' (2d+1 = 7
    per phase at d = 3).  We assert the average ratio stays under 2.5 and
    the small-P ratio under 1.3."""
    guarantee = theorem51_fixed_degree_bound(3)
    for size in QUERY_SIZES:
        ts = figure.series_by_label(f"TreeSchedule {size} joins")
        lb = figure.series_by_label(f"OptBound {size} joins")
        ratios = [t / b for t, b in zip(ts.ys, lb.ys)]
        assert ratios[0] < 1.3
        assert sum(ratios) / len(ratios) < 2.5
        assert max(ratios) < guarantee


def test_fig6b_shape_bound_tightest_when_resource_limited(figure):
    """At small P the congestion term l(S)/P dominates both the bound and
    the schedule, so the gap is smallest there."""
    for size in QUERY_SIZES:
        ts = figure.series_by_label(f"TreeSchedule {size} joins")
        lb = figure.series_by_label(f"OptBound {size} joins")
        ratios = [t / b for t, b in zip(ts.ys, lb.ys)]
        assert ratios[0] <= ratios[-1]
