"""Experiment fig5a — Figure 5(a): effect of the granularity parameter f.

Regenerates the paper's series (TREESCHEDULE for each f, SYNCHRONOUS as
the horizontal reference) over the number of sites, prints them in the
paper's layout, asserts the reported shape, and times one full
TREESCHEDULE invocation on the Figure 5 workload (40-join bushy plans).
"""

from __future__ import annotations

import pytest

from repro import ConvexCombinationOverlap, tree_schedule
from repro.experiments import figure5a, improvement_summary, prepare_workload, render_figure

from _helpers import BENCH_CONFIG, publish, run_annotated

EPSILON = 0.3
N_JOINS = 40


@pytest.fixture(scope="module")
def figure():
    return figure5a(BENCH_CONFIG, n_joins=N_JOINS, epsilon=EPSILON)


def test_bench_fig5a_regenerate(figure, benchmark):
    """Regenerate and print Figure 5(a); benchmark one scheduler call."""
    text = render_figure(figure)
    text += "\n" + improvement_summary(
        figure, better=f"TreeSchedule f={BENCH_CONFIG.f_values[-1]:g}", worse="Synchronous"
    )
    publish("fig5a", text)

    queries = prepare_workload(N_JOINS, BENCH_CONFIG.n_queries, BENCH_CONFIG.seed)
    comm = BENCH_CONFIG.params.communication_model()
    overlap = ConvexCombinationOverlap(EPSILON)
    query = queries[0]

    benchmark(
        lambda: run_annotated(
            tree_schedule, query, p=80,
            comm=comm, overlap=overlap, f=0.7,
        )
    )


def test_fig5a_shape_small_f_restrictive(figure):
    """Paper: 'for small values of f the coarse granularity condition is
    too restrictive' — the smallest-f curve lies above the largest-f one."""
    smallest = figure.series_by_label(f"TreeSchedule f={BENCH_CONFIG.f_values[0]:g}")
    largest = figure.series_by_label(f"TreeSchedule f={BENCH_CONFIG.f_values[-1]:g}")
    assert all(a >= b - 1e-9 for a, b in zip(smallest.ys, largest.ys))
    assert smallest.ys[-1] > largest.ys[-1]


def test_fig5a_shape_treeschedule_wins_at_large_f(figure):
    """Paper: 'for sufficiently large values of f, our algorithm
    outperformed its one-dimensional adversary in the entire range of
    system sizes'."""
    ts = figure.series_by_label(f"TreeSchedule f={BENCH_CONFIG.f_values[-1]:g}")
    sy = figure.series_by_label("Synchronous")
    assert all(t < s for t, s in zip(ts.ys, sy.ys))


def test_fig5a_shape_substantial_gains_when_resource_limited(figure):
    """Paper: 'the advantages of resource sharing are most evident for
    resource-limited situations'.  Robust form on the reduced cohort: the
    improvement over SYNCHRONOUS is substantial (>25%) in the
    resource-limited half of the sweep and positive everywhere."""
    ts = figure.series_by_label(f"TreeSchedule f={BENCH_CONFIG.f_values[-1]:g}")
    sy = figure.series_by_label("Synchronous")
    gains = [(s - t) / s for t, s in zip(ts.ys, sy.ys)]
    assert all(g > 0 for g in gains)
    limited = gains[: max(1, len(gains) // 2)]
    assert max(limited) > 0.25
