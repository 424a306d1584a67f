"""Online scheduler service benchmark: throughput/latency vs offered load.

Runs the serve layer's :class:`~repro.serve.SchedulerService` at three
offered-load levels (open Poisson arrivals with the default diurnal
curve) on a 20-site pool and records, per level, the completed
throughput (queries per virtual second) and the end-to-end latency
percentiles p50/p95/p99.  A fourth run repeats the high-load level with
the degree governor pinned to ``FIXED`` max degree — the baseline the
adaptive governor must beat: at granularity ``f = 0.1`` total work
``k·T0(k)`` grows with the clone degree ``k``, so scheduling narrow
under pressure sustains strictly more throughput than always scheduling
wide.  A fifth run repeats the high-load level with a mid-run elastic
capacity script (quadruple four sites a quarter in, drop them back at
three quarters) — the PR 9 elasticity primitive driven end-to-end
through :class:`~repro.serve.pool.SitePool.set_capacity` repair deltas,
recorded with the same exact virtual-time fields.  A sixth run repeats
the high-load level with the PR 10 telemetry plane attached (sampler
task, SLO monitor, fleet accumulators) — its virtual-time fields must
be *byte-identical* to the plain high-load run, because telemetry is
read-only observation, and its wall time must stay within a loose
multiple of the uninstrumented run (the overhead gate).

Everything executes in virtual time on a single event loop, so the
recorded throughput/latency figures are deterministic functions of the
seed — byte-stable across machines and worker counts.  Only the
``wall_s`` fields (how long the simulation itself took) vary per host,
and the ``--check`` gate guards them loosely.

Usage::

    python benchmarks/serve_bench.py --write            # refresh BENCH_serve.json
    python benchmarks/serve_bench.py --check [--wall-budget 120.0]
        # CI gate: re-runs the bench fresh and fails when
        #   (a) two fresh high-load runs disagree (determinism broke),
        #   (b) adaptive throughput at high load does not strictly beat
        #       the fixed-max-degree baseline (the governor claim),
        #   (c) the elastic run applies fewer capacity changes than its
        #       script (mid-run resizes stopped reaching the pool),
        #   (d) qps/percentiles diverge from the committed baseline
        #       (the virtual-time results are exact, not timing-based),
        #   (e) total bench wall time exceeds --wall-budget seconds,
        #   (f) the telemetry run's virtual-time fields differ from the
        #       plain high-load run (observation perturbed the service)
        #       or its wall time blows past the overhead multiple.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serve import (  # noqa: E402
    GovernorConfig,
    GovernorPolicy,
    SchedulerService,
    ServeConfig,
    TelemetryConfig,
    WorkloadSpec,
)

BENCH_PATH = REPO_ROOT / "BENCH_serve.json"
SCHEMA = "repro-bench-serve/3"

P = 20
MAX_CORESIDENT = 3
F = 0.1
SEED = 42
DURATION = 600.0
#: Offered-load levels in queries per virtual second: roughly 15%, 45%,
#: and well past 100% of what the pool drains at max degree.
LOAD_LEVELS = {"low": 0.02, "mid": 0.06, "high": 0.15}

#: Elastic script for the fifth run: quadruple sites 0-3 a quarter of
#: the way in, return them to unit capacity at three quarters.
ELASTIC_EVENTS = tuple(
    (DURATION * 0.25, site, 4.0) for site in range(4)
) + tuple((DURATION * 0.75, site, 1.0) for site in range(4))

#: Loose wall-overhead gate for the telemetry run: sampling every 5
#: virtual seconds must not multiply the simulation's wall cost.
TELEMETRY_WALL_FACTOR = 2.5
TELEMETRY_WALL_SLACK_S = 1.0


def _service(
    rate: float,
    policy: GovernorPolicy,
    capacity_events: tuple = (),
    telemetry: bool = False,
) -> SchedulerService:
    return SchedulerService(
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


def run_level(
    rate: float,
    policy: GovernorPolicy,
    capacity_events: tuple = (),
    telemetry: bool = False,
) -> dict:
    """One service run; virtual-time results plus host wall time."""
    start = time.perf_counter()
    service = _service(rate, policy, capacity_events, telemetry)
    summary = service.run().summary()
    wall = time.perf_counter() - start
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
        "wall_s": round(wall, 4),
    }
    if telemetry:
        entry["telemetry_samples"] = int(
            service.metrics.counters.get("telemetry_samples", 0)
        )
        entry["slo_breaches"] = int(service.metrics.counters.get("slo_breaches", 0))
    return entry


def run_bench() -> dict:
    levels = {
        name: run_level(rate, GovernorPolicy.ADAPTIVE)
        for name, rate in LOAD_LEVELS.items()
    }
    fixed_high = run_level(LOAD_LEVELS["high"], GovernorPolicy.FIXED)
    elastic_high = run_level(
        LOAD_LEVELS["high"], GovernorPolicy.ADAPTIVE, ELASTIC_EVENTS
    )
    telemetry_high = run_level(
        LOAD_LEVELS["high"], GovernorPolicy.ADAPTIVE, telemetry=True
    )
    return {
        "schema": SCHEMA,
        "config": {
            "p": P,
            "f": F,
            "max_coresident": MAX_CORESIDENT,
            "seed": SEED,
            "duration": DURATION,
            "governor": "adaptive(max=8, min=1, step=4)",
            "workload": "open Poisson, diurnal 0.3, 6 templates of 4/6/8 joins",
        },
        "generated_by": "benchmarks/serve_bench.py --write",
        "levels": levels,
        "fixed_baseline_high": fixed_high,
        "elastic_high": elastic_high,
        "telemetry_high": telemetry_high,
        "governor_speedup_high": round(
            levels["high"]["qps"] / fixed_high["qps"], 4
        ),
    }


#: Virtual-time fields that must match the committed baseline exactly
#: (the simulation is deterministic; only wall_s is host-dependent).
EXACT_FIELDS = (
    "rate",
    "offered",
    "completed",
    "qps",
    "p50",
    "p95",
    "p99",
    "mean_wait",
    "mean_slowdown",
    "site_utilization",
    "mean_degree",
    "sites_resized",
)


def _virtual(entry: dict) -> dict:
    return {k: entry[k] for k in EXACT_FIELDS}


def check_regression(
    wall_budget: float, path: pathlib.Path = BENCH_PATH
) -> tuple[bool, str]:
    """Re-run fresh and compare against the committed baseline."""
    try:
        committed = json.loads(path.read_text())
    except FileNotFoundError:
        return False, f"no committed baseline at {path}; run --write first"
    ok = True
    lines = []

    start = time.perf_counter()
    fresh = run_bench()

    # (a) determinism: a second fresh high-load run must agree exactly.
    repeat = run_level(LOAD_LEVELS["high"], GovernorPolicy.ADAPTIVE)
    deterministic = _virtual(repeat) == _virtual(fresh["levels"]["high"])
    ok &= deterministic
    lines.append(f"high-load determinism (two fresh runs): {'OK' if deterministic else 'FAIL'}")

    # (b) the governor claim: adaptive strictly out-throughputs fixed.
    adaptive_qps = fresh["levels"]["high"]["qps"]
    fixed_qps = fresh["fixed_baseline_high"]["qps"]
    governed = adaptive_qps > fixed_qps
    ok &= governed
    lines.append(
        f"governor at high load: adaptive {adaptive_qps:.6g} qps vs fixed "
        f"{fixed_qps:.6g} qps ({adaptive_qps / fixed_qps:.2f}x, must be > 1)"
    )

    # (c) the elastic script really reached the pool: every scripted
    # capacity event applied, mid-run, through a repair delta.
    resized = fresh["elastic_high"]["sites_resized"]
    elastic_ok = resized == len(ELASTIC_EVENTS)
    ok &= elastic_ok
    lines.append(
        f"elastic high load: {resized} capacity changes applied "
        f"(expected {len(ELASTIC_EVENTS)}) "
        f"{'OK' if elastic_ok else 'FAIL'}"
    )

    # (d) virtual-time results match the committed file exactly.
    for name in (*LOAD_LEVELS, "fixed_baseline_high", "elastic_high", "telemetry_high"):
        fresh_entry = (
            fresh[name] if name in fresh else fresh["levels"][name]
        )
        committed_entry = (
            committed[name] if name in committed else committed["levels"][name]
        )
        match = _virtual(fresh_entry) == _virtual(committed_entry)
        ok &= match
        lines.append(
            f"level {name}: qps={fresh_entry['qps']:.6g} "
            f"p95={fresh_entry['p95']:.6g} "
            f"{'matches baseline' if match else 'DIVERGES from baseline'}"
        )

    # (f) telemetry is a pure observer: the instrumented high-load run
    # reports the exact same virtual-time results as the plain one, its
    # deterministic sample/breach counts match the committed file, and
    # the sampler's wall overhead stays inside the loose multiple.
    telemetry = fresh["telemetry_high"]
    plain = fresh["levels"]["high"]
    readonly = _virtual(telemetry) == _virtual(plain)
    ok &= readonly
    lines.append(
        "telemetry high load: virtual-time fields "
        + ("identical to plain run" if readonly else "DIVERGE from plain run")
    )
    committed_telemetry = committed["telemetry_high"]
    counts_match = (
        telemetry["telemetry_samples"] == committed_telemetry["telemetry_samples"]
        and telemetry["slo_breaches"] == committed_telemetry["slo_breaches"]
    )
    ok &= counts_match
    lines.append(
        f"telemetry high load: {telemetry['telemetry_samples']} samples, "
        f"{telemetry['slo_breaches']} breaches "
        f"{'match baseline' if counts_match else 'DIVERGE from baseline'}"
    )
    wall_cap = plain["wall_s"] * TELEMETRY_WALL_FACTOR + TELEMETRY_WALL_SLACK_S
    overhead_ok = telemetry["wall_s"] <= wall_cap
    ok &= overhead_ok
    lines.append(
        f"telemetry overhead: {telemetry['wall_s']:.2f}s vs plain "
        f"{plain['wall_s']:.2f}s (cap {wall_cap:.2f}s)"
        + ("" if overhead_ok else " EXCEEDED")
    )

    # (e) the whole bench stays inside the wall budget.
    wall = time.perf_counter() - start
    in_budget = wall <= wall_budget
    ok &= in_budget
    lines.append(
        f"bench wall time {wall:.2f}s (budget {wall_budget:.0f}s)"
        + ("" if in_budget else " EXCEEDED")
    )
    return ok, "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", help="refresh BENCH_serve.json"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail on lost determinism, a beaten governor, or drifted results",
    )
    parser.add_argument(
        "--wall-budget",
        type=float,
        default=120.0,
        help="maximum acceptable --check wall time in seconds",
    )
    args = parser.parse_args(argv)
    if not (args.write or args.check):
        parser.error("choose --write and/or --check")
    status = 0
    if args.write:
        payload = run_bench()
        BENCH_PATH.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        for name in LOAD_LEVELS:
            entry = payload["levels"][name]
            print(
                f"{name:5s} rate={entry['rate']:.3g}: qps={entry['qps']:.6g} "
                f"p50={entry['p50']:.6g} p95={entry['p95']:.6g} "
                f"p99={entry['p99']:.6g} ({entry['wall_s']:.2f}s wall)"
            )
        fixed = payload["fixed_baseline_high"]
        print(
            f"fixed baseline at high load: qps={fixed['qps']:.6g} "
            f"-> adaptive speedup {payload['governor_speedup_high']:.2f}x"
        )
        elastic = payload["elastic_high"]
        print(
            f"elastic high load: qps={elastic['qps']:.6g} "
            f"p95={elastic['p95']:.6g} "
            f"({elastic['sites_resized']} capacity changes)"
        )
        telemetry = payload["telemetry_high"]
        print(
            f"telemetry high load: qps={telemetry['qps']:.6g} "
            f"({telemetry['telemetry_samples']} samples, "
            f"{telemetry['slo_breaches']} breaches, "
            f"{telemetry['wall_s']:.2f}s wall)"
        )
        print(f"wrote {BENCH_PATH}")
    if args.check:
        ok, message = check_regression(args.wall_budget)
        print(message)
        if not ok:
            print(
                "PERF REGRESSION: serve bench failed its gate", file=sys.stderr
            )
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
