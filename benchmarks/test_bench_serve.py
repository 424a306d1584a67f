"""Experiment serve — online scheduler service throughput/latency vs load.

Runs :class:`~repro.serve.SchedulerService` six times on a 20-site pool
(open Poisson arrivals with a diurnal curve, granularity f = 0.1):

* three offered-load levels under the adaptive degree governor;
* the high level with the governor pinned to ``FIXED`` max degree, the
  baseline the adaptive governor must beat: at f = 0.1 total work
  ``k·T0(k)`` grows with the degree k, so scheduling narrow under
  pressure sustains strictly more throughput than always scheduling wide;
* the high level with an elastic capacity script (quadruple four sites
  a quarter in, return them at three quarters), applied mid-run through
  :meth:`~repro.serve.pool.SitePool.set_capacity` repair deltas;
* the high level with the telemetry plane attached (sampler task, SLO
  monitor, fleet accumulators), which is read-only observation.

Everything runs in virtual time on one event loop, so every published
field is an exact function of the seed; ``benchmarks/results/serve.txt``
is diffed in CI.  Host wall time is measured by perfbench's ``serve``
workload, not here.
"""

from __future__ import annotations

import pytest

from repro.serve import (
    GovernorConfig,
    GovernorPolicy,
    SchedulerService,
    ServeConfig,
    TelemetryConfig,
    WorkloadSpec,
)

from _helpers import publish

P = 20
MAX_CORESIDENT = 3
F = 0.1
SEED = 42
DURATION = 600.0
#: Offered-load levels in queries per virtual second: roughly 15%, 45%,
#: and well past 100% of what the pool drains at max degree.
LOAD_LEVELS = {"low": 0.02, "mid": 0.06, "high": 0.15}
HIGH = LOAD_LEVELS["high"]
ELASTIC_EVENTS = tuple(
    (DURATION * 0.25, site, 4.0) for site in range(4)
) + tuple((DURATION * 0.75, site, 1.0) for site in range(4))
#: The telemetry run's deterministic sampler and SLO-monitor counts.
TELEMETRY_COUNTS = {"telemetry_samples": 390, "slo_breaches": 87}


def run_service(
    rate: float,
    policy: GovernorPolicy = GovernorPolicy.ADAPTIVE,
    capacity_events: tuple = (),
    telemetry: bool = False,
) -> tuple[dict, SchedulerService]:
    """One service run: its published virtual-time fields, and the service."""
    service = SchedulerService(
        ServeConfig(
            p=P,
            f=F,
            max_coresident=MAX_CORESIDENT,
            workload=WorkloadSpec(
                duration=DURATION,
                rate=rate,
                seed=SEED,
                template_pool=6,
                query_sizes=(4, 6, 8),
                diurnal_amplitude=0.3,
            ),
            governor=GovernorConfig(
                policy=policy, max_degree=8, min_degree=1, pressure_step=4
            ),
            capacity_events=capacity_events,
            telemetry=TelemetryConfig() if telemetry else None,
        )
    )
    summary = service.run().summary()
    lat = summary["latency"]["all"]
    entry = {
        "rate": rate,
        "offered": summary["offered"],
        "completed": lat["completed"],
        "qps": summary["qps"],
        "p50": lat["p50"],
        "p95": lat["p95"],
        "p99": lat["p99"],
        "mean_wait": lat["mean_wait"],
        "mean_slowdown": summary["mean_slowdown"],
        "site_utilization": summary["pool"]["site_utilization"],
        "mean_degree": summary["degrees"]["mean"],
        "sites_resized": summary["pool"].get("sites_resized", 0),
    }
    return entry, service


@pytest.fixture(scope="module")
def runs():
    entries = {name: run_service(rate)[0] for name, rate in LOAD_LEVELS.items()}
    entries["fixed_high"] = run_service(HIGH, GovernorPolicy.FIXED)[0]
    entries["elastic_high"] = run_service(HIGH, capacity_events=ELASTIC_EVENTS)[0]
    entries["telemetry_high"], service = run_service(HIGH, telemetry=True)
    counts = {
        name: int(service.metrics.counters.get(name, 0)) for name in TELEMETRY_COUNTS
    }
    return entries, counts


def test_bench_serve_regenerate(runs):
    entries, counts = runs
    width = max(len(name) for name in entries)
    lines = [
        "== serve: SchedulerService virtual-time results ==",
        f"p={P}, f={F}, max_coresident={MAX_CORESIDENT}, seed={SEED}, "
        f"duration={DURATION}, governor adaptive(max=8, min=1, step=4)",
        "open Poisson, diurnal 0.3, 6 templates of 4/6/8 joins",
        f"{'field':17s} " + " ".join(f"{name:>{width}s}" for name in entries),
    ]
    for field in entries["low"]:
        lines.append(
            f"{field:17s} "
            + " ".join(f"{entry[field]!r:>{width}}" for entry in entries.values())
        )
    lines.append(
        f"telemetry_high: {counts['telemetry_samples']} samples, "
        f"{counts['slo_breaches']} SLO breaches"
    )
    publish("serve", "\n".join(lines))


def test_serve_is_deterministic(runs):
    entries, _ = runs
    assert run_service(HIGH)[0] == entries["high"]


def test_adaptive_governor_beats_fixed_degree(runs):
    entries, _ = runs
    assert entries["high"]["qps"] > entries["fixed_high"]["qps"]


def test_elastic_script_reaches_the_pool(runs):
    entries, _ = runs
    assert entries["elastic_high"]["sites_resized"] == len(ELASTIC_EVENTS) == 8


def test_telemetry_is_read_only(runs):
    entries, counts = runs
    assert entries["telemetry_high"] == entries["high"]
    assert counts == TELEMETRY_COUNTS
