"""Experiment fig5b — Figure 5(b): effect of the resource-overlap parameter.

Regenerates both algorithms' curves for each epsilon (f fixed at 0.7),
prints them, asserts the paper's shapes, and times the SYNCHRONOUS
adversary on the same workload (so both schedulers' costs appear in the
benchmark table).
"""

from __future__ import annotations

import pytest

from repro import ConvexCombinationOverlap, synchronous_schedule
from repro.experiments import figure5b, prepare_workload, render_figure

from _helpers import BENCH_CONFIG, publish, run_annotated

N_JOINS = 40


@pytest.fixture(scope="module")
def figure():
    return figure5b(BENCH_CONFIG, n_joins=N_JOINS)


def test_bench_fig5b_regenerate(figure, benchmark):
    """Regenerate and print Figure 5(b); benchmark one SYNCHRONOUS call."""
    publish("fig5b", render_figure(figure))

    queries = prepare_workload(N_JOINS, BENCH_CONFIG.n_queries, BENCH_CONFIG.seed)
    comm = BENCH_CONFIG.params.communication_model()
    overlap = ConvexCombinationOverlap(0.4)
    query = queries[0]

    benchmark(
        lambda: run_annotated(
            synchronous_schedule, query, p=80, comm=comm, overlap=overlap
        )
    )


def test_fig5b_shape_treeschedule_wins_for_every_epsilon(figure):
    """Paper: 'TREESCHEDULE consistently outperformed the Synchronous
    algorithm' across overlap values."""
    for eps in BENCH_CONFIG.epsilon_values:
        ts = figure.series_by_label(f"TreeSchedule eps={eps:g}")
        sy = figure.series_by_label(f"Synchronous eps={eps:g}")
        assert all(t < s for t, s in zip(ts.ys, sy.ys)), f"lost at eps={eps}"


def test_fig5b_shape_benefit_larger_at_low_overlap(figure):
    """Paper: 'the benefits of multi-dimensional scheduling are more
    significant for smaller values of the overlap parameter' — lower
    overlap leaves longer idle periods to exploit via time-sharing."""
    def mean_gain(eps):
        ts = figure.series_by_label(f"TreeSchedule eps={eps:g}")
        sy = figure.series_by_label(f"Synchronous eps={eps:g}")
        gains = [(s - t) / s for t, s in zip(ts.ys, sy.ys)]
        return sum(gains) / len(gains)

    low = mean_gain(BENCH_CONFIG.epsilon_values[0])
    high = mean_gain(BENCH_CONFIG.epsilon_values[-1])
    assert low > high


def test_fig5b_shape_more_overlap_never_hurts(figure):
    """T_seq is non-increasing in epsilon, so each algorithm's curve for
    higher overlap lies at or below its lower-overlap curve."""
    for algo in ("TreeSchedule", "Synchronous"):
        lo = figure.series_by_label(f"{algo} eps={BENCH_CONFIG.epsilon_values[0]:g}")
        hi = figure.series_by_label(f"{algo} eps={BENCH_CONFIG.epsilon_values[-1]:g}")
        assert all(h <= l * 1.02 for h, l in zip(hi.ys, lo.ys))
