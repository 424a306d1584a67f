"""Experiment abl-skew — execution-skew sensitivity (EA1 relaxation).

Plans are produced under EA1 (perfect distribution), then *evaluated*
under Zipf(theta) clone weights: clone 0 of each operator receives the
largest share at its planned site.  Prints the degradation of both
TREESCHEDULE and SYNCHRONOUS plans and checks the trends.
"""

from __future__ import annotations

import math

import pytest

from repro import (
    ConvexCombinationOverlap,
    skewed_response_time,
    synchronous_schedule,
    tree_schedule,
)
from repro.experiments import prepare_workload

from _helpers import BENCH_CONFIG, publish, run_annotated

N_JOINS = 15
P = 24
THETAS = (0.0, 0.3, 0.6, 1.0, 1.5)


@pytest.fixture(scope="module")
def sweep():
    queries = prepare_workload(N_JOINS, BENCH_CONFIG.n_queries, BENCH_CONFIG.seed)
    comm = BENCH_CONFIG.params.communication_model()
    overlap = ConvexCombinationOverlap(BENCH_CONFIG.default_epsilon)

    def mean(xs):
        xs = list(xs)
        return math.fsum(xs) / len(xs)

    plans = []
    for q in queries:
        specs = dict(q.annotation)
        ts = run_annotated(
            tree_schedule, q, p=P, comm=comm, overlap=overlap,
            f=BENCH_CONFIG.default_f,
        ).phased_schedule
        sy = run_annotated(
            synchronous_schedule, q, p=P, comm=comm, overlap=overlap
        ).phased_schedule
        plans.append((specs, ts, sy))

    rows = []
    for theta in THETAS:
        ts_avg = mean(
            skewed_response_time(ts, specs, theta, comm, overlap)
            for specs, ts, _ in plans
        )
        sy_avg = mean(
            skewed_response_time(sy, specs, theta, comm, overlap)
            for specs, _, sy in plans
        )
        rows.append((theta, ts_avg, sy_avg))
    return rows


def test_bench_ablskew_regenerate(sweep, benchmark):
    """Print the skew sweep; benchmark one skewed evaluation."""
    lines = [
        "== abl-skew: execution-skew sensitivity (EA1 relaxation) ==",
        f"{BENCH_CONFIG.n_queries} x {N_JOINS}-join plans on P={P}; "
        "plans made under EA1, evaluated under Zipf(theta) clone weights",
        f"{'theta':>6s} {'TreeSchedule':>13s} {'Synchronous':>12s} {'TS/SY':>7s}",
    ]
    for theta, ts, sy in sweep:
        lines.append(f"{theta:6.1f} {ts:11.3f} s {sy:10.3f} s {ts / sy:7.3f}")
    lines.append(
        "note: skew inflates every plan; the multi-dimensional plan keeps"
    )
    lines.append("its advantage across the sweep.")
    publish("abl_skew", "\n".join(lines))

    queries = prepare_workload(N_JOINS, BENCH_CONFIG.n_queries, BENCH_CONFIG.seed)
    comm = BENCH_CONFIG.params.communication_model()
    overlap = ConvexCombinationOverlap(BENCH_CONFIG.default_epsilon)
    q = queries[0]
    specs = dict(q.annotation)
    phased = run_annotated(
        tree_schedule, q, p=P, comm=comm, overlap=overlap,
        f=BENCH_CONFIG.default_f,
    ).phased_schedule
    benchmark(lambda: skewed_response_time(phased, specs, 1.0, comm, overlap))


def test_ablskew_monotone_degradation(sweep):
    ts_times = [ts for _, ts, _ in sweep]
    sy_times = [sy for _, _, sy in sweep]
    assert all(b >= a - 1e-9 for a, b in zip(ts_times, ts_times[1:]))
    assert all(b >= a - 1e-9 for a, b in zip(sy_times, sy_times[1:]))


def test_ablskew_advantage_survives_skew(sweep):
    for theta, ts, sy in sweep:
        assert ts < sy, f"TreeSchedule lost under skew theta={theta}"
