"""Experiment mem — memory-constrained scheduling (Section 8 future work).

Sweeps per-site buffer capacity on a fixed workload and prints the
response-time degradation curve (spread first, spill second), then
benchmarks one memory-aware scheduling call.
"""

from __future__ import annotations

import pytest

from repro import (
    ConvexCombinationOverlap,
    MemoryModel,
    memory_aware_tree_schedule,
    tree_schedule,
)
from repro.experiments import prepare_workload

from _helpers import BENCH_CONFIG, publish, run_annotated

N_JOINS = 10
P = 16
CAPACITIES_MB = (1000.0, 10.0, 1.0, 0.5, 0.2, 0.1)


@pytest.fixture(scope="module")
def sweep():
    queries = prepare_workload(N_JOINS, BENCH_CONFIG.n_queries, BENCH_CONFIG.seed)
    comm = BENCH_CONFIG.params.communication_model()
    overlap = ConvexCombinationOverlap(BENCH_CONFIG.default_epsilon)
    rows = []
    for cap_mb in CAPACITIES_MB:
        times = []
        spilled = 0
        for q in queries:
            result = run_annotated(
                memory_aware_tree_schedule, q, p=P, comm=comm, overlap=overlap,
                memory=MemoryModel(capacity_bytes=cap_mb * 1e6),
                params=BENCH_CONFIG.params, f=BENCH_CONFIG.default_f,
            )
            times.append(result.response_time)
            spilled += result.total_spilled_joins
        rows.append((cap_mb, sum(times) / len(times), spilled))
    baseline = sum(
        run_annotated(
            tree_schedule, q, p=P, comm=comm, overlap=overlap,
            f=BENCH_CONFIG.default_f,
        ).response_time
        for q in queries
    ) / len(queries)
    return rows, baseline


def test_bench_mem_regenerate(sweep, benchmark):
    """Print the capacity sweep; benchmark one constrained call."""
    rows, baseline = sweep
    lines = [
        "== mem: memory-constrained scheduling (Section 8 extension) ==",
        f"workload: {BENCH_CONFIG.n_queries} x {N_JOINS}-join plans on P={P}; "
        f"A1 (unconstrained) baseline {baseline:.3f} s",
        f"{'capacity/site':>14s} {'avg response':>13s} {'spilled joins':>14s}",
    ]
    for cap_mb, avg_time, spilled in rows:
        lines.append(f"{cap_mb:11.1f} MB {avg_time:11.3f} s {spilled:14d}")
    lines.append(
        "note: ample memory reproduces TREESCHEDULE exactly; shrinking"
    )
    lines.append(
        "capacity first widens build degrees, then spills hybrid-hash style."
    )
    publish("mem", "\n".join(lines))

    queries = prepare_workload(N_JOINS, BENCH_CONFIG.n_queries, BENCH_CONFIG.seed)
    comm = BENCH_CONFIG.params.communication_model()
    overlap = ConvexCombinationOverlap(BENCH_CONFIG.default_epsilon)
    query = queries[0]
    benchmark(
        lambda: run_annotated(
            memory_aware_tree_schedule, query, p=P, comm=comm,
            overlap=overlap, memory=MemoryModel(capacity_bytes=0.5e6),
            params=BENCH_CONFIG.params, f=BENCH_CONFIG.default_f,
        )
    )


def test_mem_ample_equals_baseline(sweep):
    rows, baseline = sweep
    assert rows[0][1] == pytest.approx(baseline)
    assert rows[0][2] == 0


def test_mem_degradation_monotone(sweep):
    rows, _ = sweep
    times = [t for _, t, _ in rows]
    assert all(t2 >= t1 - 1e-9 for t1, t2 in zip(times, times[1:]))
    assert times[-1] > times[0]


def test_mem_spills_increase_under_pressure(sweep):
    rows, _ = sweep
    spilled = [s for _, _, s in rows]
    assert spilled[-1] > 0
    assert spilled == sorted(spilled)
