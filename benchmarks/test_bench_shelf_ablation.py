"""Experiment abl-shelf — MinShelf vs. eager shelf policy ([TL93], §5.4).

The paper adopts Tan & Lu's MinShelf policy (each task as late as its
precedence constraints allow).  This ablation compares it against the
as-early-as-possible alternative on the same workloads and checks that
MinShelf is the right default.
"""

from __future__ import annotations

import math

import pytest

from repro import ConvexCombinationOverlap, tree_schedule
from repro.experiments import prepare_workload

from _helpers import BENCH_CONFIG, publish, run_annotated

N_JOINS = 20
P_VALUES = (10, 40, 140)


@pytest.fixture(scope="module")
def comparison():
    queries = prepare_workload(N_JOINS, BENCH_CONFIG.n_queries, BENCH_CONFIG.seed)
    comm = BENCH_CONFIG.params.communication_model()
    overlap = ConvexCombinationOverlap(BENCH_CONFIG.default_epsilon)

    def mean(xs):
        xs = list(xs)
        return math.fsum(xs) / len(xs)

    rows = []
    for p in P_VALUES:
        lazy = mean(
            run_annotated(
                tree_schedule, q, p=p, comm=comm, overlap=overlap,
                f=BENCH_CONFIG.default_f, shelf="min",
            ).response_time
            for q in queries
        )
        eager = mean(
            run_annotated(
                tree_schedule, q, p=p, comm=comm, overlap=overlap,
                f=BENCH_CONFIG.default_f, shelf="eager",
            ).response_time
            for q in queries
        )
        rows.append((p, lazy, eager))
    return rows


def test_bench_ablshelf_regenerate(comparison, benchmark):
    """Print the shelf-policy comparison; benchmark the eager variant."""
    lines = [
        "== abl-shelf: MinShelf vs eager shelf policy ([TL93]) ==",
        f"{BENCH_CONFIG.n_queries} x {N_JOINS}-join plans; avg response (s)",
        f"{'P':>4s} {'MinShelf':>10s} {'eager':>10s} {'eager/min':>10s}",
    ]
    for p, lazy, eager in comparison:
        lines.append(f"{p:4d} {lazy:8.3f} s {eager:8.3f} s {eager / lazy:9.3f}x")
    lines.append(
        "note: eager front-loads shallow tasks into crowded early phases;"
    )
    lines.append(
        "MinShelf keeps each task next to its parent, balancing the shelves."
    )
    publish("abl_shelf", "\n".join(lines))

    queries = prepare_workload(N_JOINS, BENCH_CONFIG.n_queries, BENCH_CONFIG.seed)
    comm = BENCH_CONFIG.params.communication_model()
    overlap = ConvexCombinationOverlap(BENCH_CONFIG.default_epsilon)
    q = queries[0]
    benchmark(
        lambda: run_annotated(
            tree_schedule, q, p=40, comm=comm, overlap=overlap,
            f=BENCH_CONFIG.default_f, shelf="eager",
        )
    )


def test_ablshelf_minshelf_no_worse_on_average(comparison):
    """MinShelf should match or beat eager on average across the sweep."""
    mean_ratio = math.fsum(eager / lazy for _, lazy, eager in comparison) / len(
        comparison
    )
    assert mean_ratio >= 0.98  # eager should not be meaningfully better
