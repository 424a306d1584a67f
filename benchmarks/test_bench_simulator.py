"""Experiment abl-sim — sharing-policy ablation on the execution simulator.

Runs the Figure 6(b) workload through the fluid simulator under all three
sharing policies, prints the analytic-vs-simulated comparison (how
optimistic are assumptions A2/A3, and how much is resource sharing worth),
and benchmarks a FAIR_SHARE simulation of a full phased schedule.
"""

from __future__ import annotations

import math

import pytest

from repro import (
    ConvexCombinationOverlap,
    SharingPolicy,
    sharing_policy_report,
    simulate_phased,
    tree_schedule,
)
from repro.experiments import prepare_workload

from _helpers import BENCH_CONFIG, publish, run_annotated

N_JOINS = 20
P = 40


@pytest.fixture(scope="module")
def schedules():
    queries = prepare_workload(N_JOINS, BENCH_CONFIG.n_queries, BENCH_CONFIG.seed)
    comm = BENCH_CONFIG.params.communication_model()
    overlap = ConvexCombinationOverlap(BENCH_CONFIG.default_epsilon)
    return [
        run_annotated(
            tree_schedule, q, p=P, comm=comm, overlap=overlap,
            f=BENCH_CONFIG.default_f,
        ).phased_schedule
        for q in queries
    ]


@pytest.fixture(scope="module")
def reports(schedules):
    return [sharing_policy_report(s) for s in schedules]


def test_bench_ablsim_regenerate(reports, schedules, benchmark):
    """Print the policy ablation; benchmark one FAIR_SHARE simulation."""
    def mean(xs):
        xs = list(xs)
        return math.fsum(xs) / len(xs)

    lines = [
        "== abl-sim: sharing-policy ablation (A2/A3 realism) ==",
        f"workload: {len(reports)} x {N_JOINS}-join plans on P={P} "
        f"(eps={BENCH_CONFIG.default_epsilon}, f={BENCH_CONFIG.default_f})",
        f"analytic (Eq.3) response  : {mean(r.analytic for r in reports):9.3f} s",
        f"OPTIMAL_STRETCH simulated : {mean(r.optimal_stretch for r in reports):9.3f} s  (== analytic)",
        f"FAIR_SHARE simulated      : {mean(r.fair_share for r in reports):9.3f} s  "
        f"(penalty {mean(r.fair_share_penalty for r in reports) * 100:.1f}%)",
        f"SERIAL (no sharing)       : {mean(r.serial for r in reports):9.3f} s  "
        f"(sharing buys {mean(r.sharing_benefit for r in reports):.2f}x)",
        "note: the analytic model is exact under ideal stretching; a",
        "realistic equal-throttle scheduler costs only a modest premium,",
        "while forgoing time-sharing entirely forfeits the paper's gains.",
    ]
    publish("abl_sim", "\n".join(lines))

    benchmark(lambda: simulate_phased(schedules[0], SharingPolicy.FAIR_SHARE))


def test_ablsim_stretch_matches_analytic(reports):
    for r in reports:
        assert r.optimal_stretch == pytest.approx(r.analytic, rel=1e-9)


def test_ablsim_policy_ordering(reports):
    for r in reports:
        assert r.analytic <= r.fair_share * (1 + 1e-9)
        assert r.fair_share <= r.serial * (1 + 1e-9)


def test_ablsim_sharing_is_worth_something(reports):
    assert all(r.sharing_benefit > 1.0 for r in reports)
