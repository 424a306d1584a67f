"""Experiment abl-hong — pairwise (XPRS-style) vs. global resource sharing.

Section 2 credits Hong's XPRS method [Hon92] as the one prior approach
exploiting resource sharing (pairing one I/O-bound with one CPU-bound
pipeline).  This ablation decomposes TREESCHEDULE's advantage over the
1-D baseline into a pairwise-sharing part (captured by the static XPRS
analog) and a global-sharing part (the remainder).
"""

from __future__ import annotations

import math

import pytest

from repro import (
    ConvexCombinationOverlap,
    hong_schedule,
    synchronous_schedule,
    tree_schedule,
)
from repro.experiments import prepare_workload

from _helpers import BENCH_CONFIG, publish, run_annotated

N_JOINS = 15
P_VALUES = (10, 40, 80)


@pytest.fixture(scope="module")
def comparison():
    queries = prepare_workload(N_JOINS, BENCH_CONFIG.n_queries, BENCH_CONFIG.seed)
    comm = BENCH_CONFIG.params.communication_model()
    overlap = ConvexCombinationOverlap(0.3)

    def mean(xs):
        xs = list(xs)
        return math.fsum(xs) / len(xs)

    rows = []
    for p in P_VALUES:
        ts = mean(
            run_annotated(
                tree_schedule, q, p=p, comm=comm, overlap=overlap,
                f=BENCH_CONFIG.default_f,
            ).response_time
            for q in queries
        )
        hg = mean(
            run_annotated(
                hong_schedule, q, p=p, comm=comm, overlap=overlap,
                f=BENCH_CONFIG.default_f,
            ).response_time
            for q in queries
        )
        sy = mean(
            run_annotated(
                synchronous_schedule, q, p=p, comm=comm, overlap=overlap
            ).response_time
            for q in queries
        )
        rows.append((p, ts, hg, sy))
    return rows


def test_bench_ablhong_regenerate(comparison, benchmark):
    """Print the three-way comparison; benchmark one Hong call."""
    lines = [
        "== abl-hong: pairwise (XPRS [Hon92]) vs global sharing ==",
        f"{BENCH_CONFIG.n_queries} x {N_JOINS}-join plans (eps=0.3); avg response (s)",
        f"{'P':>4s} {'TreeSchedule':>13s} {'Hong-pair':>10s} {'Synchronous':>12s} "
        f"{'pair share of gain':>19s}",
    ]
    for p, ts, hg, sy in comparison:
        captured = (sy - hg) / (sy - ts) if sy > ts else float("nan")
        lines.append(
            f"{p:4d} {ts:11.3f} s {hg:8.3f} s {sy:10.3f} s {captured * 100:17.0f}%"
        )
    lines.append(
        "note: pairing one IO-bound with one CPU-bound task recovers part"
    )
    lines.append(
        "of the sharing benefit; global multi-dimensional packing the rest."
    )
    publish("abl_hong", "\n".join(lines))

    queries = prepare_workload(N_JOINS, BENCH_CONFIG.n_queries, BENCH_CONFIG.seed)
    comm = BENCH_CONFIG.params.communication_model()
    overlap = ConvexCombinationOverlap(0.3)
    q = queries[0]
    benchmark(
        lambda: run_annotated(
            hong_schedule, q, p=40, comm=comm, overlap=overlap,
            f=BENCH_CONFIG.default_f,
        )
    )


def test_ablhong_strict_ordering(comparison):
    for p, ts, hg, sy in comparison:
        assert ts < hg < sy, f"ordering broken at P={p}"


def test_ablhong_pairing_captures_meaningful_share(comparison):
    shares = [(sy - hg) / (sy - ts) for _, ts, hg, sy in comparison]
    assert all(0.0 < s < 1.0 for s in shares)
    assert max(shares) > 0.3
