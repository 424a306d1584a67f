"""Experiment abl-preempt — degrees of preemptability (Section 8 concern).

Quantifies the paper's closing caveat — "slicing a disk among many tasks
can reduce the disk's effective bandwidth" — by simulating TREESCHEDULE's
output under progressively less preemptable disks, and contrasts how the
multi-dimensional schedule (which co-locates many operators per site) and
the SYNCHRONOUS schedule (disjoint sites, few users per disk) degrade.
"""

from __future__ import annotations

import math

import pytest

from repro import (
    ConvexCombinationOverlap,
    PreemptabilityModel,
    simulate_phased_degraded,
    synchronous_schedule,
    tree_schedule,
)
from repro.experiments import prepare_workload

from _helpers import BENCH_CONFIG, publish, run_annotated

N_JOINS = 15
P = 24
SIGMAS = (1.0, 0.8, 0.5, 0.2, 0.0)


@pytest.fixture(scope="module")
def degradation():
    queries = prepare_workload(N_JOINS, BENCH_CONFIG.n_queries, BENCH_CONFIG.seed)
    comm = BENCH_CONFIG.params.communication_model()
    overlap = ConvexCombinationOverlap(BENCH_CONFIG.default_epsilon)

    def mean(xs):
        xs = list(xs)
        return math.fsum(xs) / len(xs)

    rows = []
    ts_scheds = [
        run_annotated(
            tree_schedule, q, p=P, comm=comm, overlap=overlap,
            f=BENCH_CONFIG.default_f,
        ).phased_schedule
        for q in queries
    ]
    sy_scheds = [
        run_annotated(
            synchronous_schedule, q, p=P, comm=comm, overlap=overlap
        ).phased_schedule
        for q in queries
    ]
    for sigma in SIGMAS:
        model = PreemptabilityModel.sticky_disk(3, sigma_disk=sigma)
        ts = mean(
            simulate_phased_degraded(s, model).response_time for s in ts_scheds
        )
        sy = mean(
            simulate_phased_degraded(s, model).response_time for s in sy_scheds
        )
        rows.append((sigma, ts, sy))
    return rows


def test_bench_ablpreempt_regenerate(degradation, benchmark):
    """Print the preemptability sweep; benchmark one degraded simulation."""
    lines = [
        "== abl-preempt: disk preemptability sweep (Section 8 concern) ==",
        f"{BENCH_CONFIG.n_queries} x {N_JOINS}-join plans on P={P}; simulated "
        "response times (s)",
        f"{'sigma(disk)':>12s} {'TreeSchedule':>13s} {'Synchronous':>12s} {'TS/SY':>7s}",
    ]
    for sigma, ts, sy in degradation:
        lines.append(f"{sigma:12.1f} {ts:11.3f} s {sy:10.3f} s {ts / sy:7.3f}")
    lines.append(
        "note: sigma=1 is assumption A2; lower sigma penalizes co-locating"
    )
    lines.append(
        "disk users, eroding (but, here, not erasing) the sharing advantage."
    )
    publish("abl_preempt", "\n".join(lines))

    queries = prepare_workload(N_JOINS, BENCH_CONFIG.n_queries, BENCH_CONFIG.seed)
    comm = BENCH_CONFIG.params.communication_model()
    overlap = ConvexCombinationOverlap(BENCH_CONFIG.default_epsilon)
    sched = run_annotated(
        tree_schedule, queries[0], p=P, comm=comm,
        overlap=overlap, f=BENCH_CONFIG.default_f,
    ).phased_schedule
    model = PreemptabilityModel.sticky_disk(3, sigma_disk=0.5)
    benchmark(lambda: simulate_phased_degraded(sched, model))


def test_ablpreempt_monotone_in_sigma(degradation):
    ts_times = [ts for _, ts, _ in degradation]
    sy_times = [sy for _, _, sy in degradation]
    assert all(b >= a - 1e-9 for a, b in zip(ts_times, ts_times[1:]))
    assert all(b >= a - 1e-9 for a, b in zip(sy_times, sy_times[1:]))


def test_ablpreempt_sharing_schedule_hit_harder(degradation):
    """TreeSchedule co-locates more disk users per site, so its relative
    degradation from sigma=1 to sigma=0 is at least Synchronous's."""
    sigma1 = degradation[0]
    sigma0 = degradation[-1]
    ts_hit = sigma0[1] / sigma1[1]
    sy_hit = sigma0[2] / sigma1[2]
    assert ts_hit >= sy_hit * 0.95  # allow a little noise, document trend
