"""Experiment prop52 — empirical complexity scaling (Propositions 5.1/5.2).

Proposition 5.2 bounds TREESCHEDULE at ``O(J P (J + log P))`` for a
``J``-node plan on ``P`` sites.  This benchmark measures wall-clock
scaling along both axes and checks that growth stays comfortably inside
the quadratic envelope (superlinear blow-ups would indicate an
implementation regression, not a model property).
"""

from __future__ import annotations

import time

import pytest

from repro import ConvexCombinationOverlap, tree_schedule
from repro.experiments import prepare_workload

from _helpers import BENCH_CONFIG, publish, run_annotated

JOIN_SIZES = (10, 20, 40)
SITE_SIZES = (20, 40, 80, 160)


def _time_once(query, p, comm, overlap):
    start = time.perf_counter()
    run_annotated(
        tree_schedule, query, p=p, comm=comm, overlap=overlap,
        f=BENCH_CONFIG.default_f,
    )
    return time.perf_counter() - start


@pytest.fixture(scope="module")
def scaling():
    comm = BENCH_CONFIG.params.communication_model()
    overlap = ConvexCombinationOverlap(BENCH_CONFIG.default_epsilon)
    by_joins = []
    for j in JOIN_SIZES:
        query = prepare_workload(j, 1, BENCH_CONFIG.seed)[0]
        elapsed = min(_time_once(query, 40, comm, overlap) for _ in range(3))
        by_joins.append((j, elapsed))
    by_sites = []
    query = prepare_workload(20, 1, BENCH_CONFIG.seed)[0]
    for p in SITE_SIZES:
        elapsed = min(_time_once(query, p, comm, overlap) for _ in range(3))
        by_sites.append((p, elapsed))
    return by_joins, by_sites


def test_bench_prop52_regenerate(scaling, benchmark):
    """Print the scaling table; benchmark the largest configuration."""
    by_joins, by_sites = scaling
    lines = [
        "== prop52: TREESCHEDULE runtime scaling (O(J P (J + log P))) ==",
        "joins axis (P=40):",
    ]
    for j, t in by_joins:
        lines.append(f"  J={j:3d}  {t * 1e3:8.2f} ms")
    lines.append("sites axis (J=20):")
    for p, t in by_sites:
        lines.append(f"  P={p:3d}  {t * 1e3:8.2f} ms")
    publish("prop52", "\n".join(lines))

    comm = BENCH_CONFIG.params.communication_model()
    overlap = ConvexCombinationOverlap(BENCH_CONFIG.default_epsilon)
    query = prepare_workload(JOIN_SIZES[-1], 1, BENCH_CONFIG.seed)[0]
    benchmark(
        lambda: run_annotated(
            tree_schedule, query, p=SITE_SIZES[-1],
            comm=comm, overlap=overlap, f=BENCH_CONFIG.default_f,
        )
    )


def test_prop52_join_axis_within_quadratic_envelope(scaling):
    by_joins, _ = scaling
    (j1, t1), (_, _), (j3, t3) = by_joins
    observed = t3 / t1
    # Proposition 5.2 predicts ~ (J3/J1)^2 here; allow generous headroom
    # for constant factors and timer noise.
    envelope = 3.0 * (j3 / j1) ** 2
    assert observed < envelope, f"join-axis growth {observed:.1f}x exceeds envelope"


def test_prop52_site_axis_within_superlinear_envelope(scaling):
    _, by_sites = scaling
    (p1, t1), *_, (p4, t4) = by_sites
    observed = t4 / t1
    envelope = 3.0 * (p4 / p1) ** 1.5  # O(P log P)-ish with headroom
    assert observed < envelope, f"site-axis growth {observed:.1f}x exceeds envelope"
