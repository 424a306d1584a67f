"""The repository benchmark: one command, three workloads, two modes.

Usage (from the repository root)::

    python3 perfbench/run.py --workload plansearch --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats untraced passes of the workload for ``--seconds``
and reports the end-to-end metrics.  ``--trace 1`` alternates untraced
and traced passes and reports the per-layer table: self time and calls
per layer, ``unattributed_s`` and the tracing overhead (traced pass wall
over untraced pass wall).  Either way the run checks every output, prints
a readable report, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The program under test is built from ``src/`` of the same checkout; the
run exits with status 2, printing no result, when it is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import COUNTERS, LayerTracer, find_wrappers
from speed import SpeedProbe, normalized_ms

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 7
#: A fresh interpreter importing what the benchmark imports: the import
#: half of each set-up.
IMPORT_PROBE = "import sys; sys.path[:0] = sys.argv[1:]; import layers, speed, workloads"
#: Per-layer metrics a workload derives from its own results; a workload
#: that does not exercise the layer reports 0.
WORKLOAD_LAYER_METRICS = {
    "search.scored_ratio": "ratio",
    "obs.telemetry.samples": "count",
    "serve.admission.deferred": "count",
    "serve.admission.shed": "count",
    "serve.admission.wait_p99_s": "s",
    "serve.mean_degree": "clones",
    "serve.schedule_misses": "count",
}
#: Environment variables that would let the host change a result.
PINNED_ENV = ("REPRO_CACHE_DIR", "REPRO_WORKLOAD_CACHE_SIZE")


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _import_seconds() -> float:
    """CPU seconds of a fresh interpreter importing the benchmark."""
    started = _children_cpu_s()
    subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)], check=True
    )
    return _children_cpu_s() - started


def _conditions(seed: int, workload) -> dict:
    from repro.core.batch import HAVE_NUMPY

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "HAVE_NUMPY": HAVE_NUMPY,
        "nproc": os.cpu_count(),
        "workers": 1,
        "seed": seed,
        "shape": workload.shape(),
    }


def _ms_per_op(samples: list[list[float]]) -> float:
    """Host CPU ms per operation: each operation's fastest time over the
    passes, averaged over the operations of a pass.

    Every pass repeats the same deterministic work, so a slower sample
    of one operation is the cost of sharing caches and cores with
    other tenants, which the CPU clock still counts.
    """
    per_op = [min(column) for column in zip(*samples)]
    return sum(per_op) / len(per_op)


def end_to_end(setup_s: float, passes, probe: SpeedProbe) -> dict:
    first = passes[0]
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
        "norm_ms_per_op": (
            normalized_ms(_ms_per_op([p.op_ms for p in passes]), probe),
            "ms",
        ),
        "norm_ms_per_aux_op": (
            normalized_ms(_ms_per_op([p.aux_ms for p in passes]), probe),
            "ms",
        ),
        "response_s": (first.virtual["response_s"], "s"),
    }


def per_layer(tracer, setup_tracer, traced, untraced, workload) -> dict:
    """Per-pass averages over the traced passes, plus the overhead and
    the input preparation of one traced set-up."""
    n = len(traced)
    metrics = {
        "setup.prepare_workload.self_s": (
            setup_tracer.self_s["experiments.prepare_workload"],
            "s",
        )
    }
    for layer in tracer.layers:
        metrics[f"{layer.name}.calls"] = (tracer.calls[layer.name] / n, "count")
        metrics[f"{layer.name}.self_s"] = (tracer.self_s[layer.name] / n, "s")
    wall = sum(w for _, w in traced)
    metrics["unattributed_s"] = ((wall - tracer.attributed_s) / n, "s")
    metrics["tracing_overhead"] = (
        min(w for _, w in traced) / min(w for _, w in untraced),
        "x",
    )
    for name, unit in COUNTERS.items():
        metrics[name] = (tracer.counters[name] / n, unit)
    gets = tracer.calls["store.get"]
    metrics["store.hit_ratio"] = (
        tracer.counters["store.hits"] / gets if gets else 0.0,
        "ratio",
    )
    stats = workload.layer_stats([p for p, _ in traced])
    for name, unit in WORKLOAD_LAYER_METRICS.items():
        metrics[name] = (float(stats.get(name, 0.0)), unit)
    return metrics


def _print_table(title: str, rows) -> None:
    print(title)
    for name, (value, unit) in rows.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")


def _print_layers(tracer, traced) -> None:
    n = len(traced)
    wall = sum(w for _, w in traced)
    print(f"layer self time per traced pass ({n} passes, {wall / n:.4f} s wall each)")
    print(f"  {'layer':<32} {'calls':>10} {'self_s':>12} {'share':>8}")
    for name, calls, self_s in tracer.rows(wall):
        print(
            f"  {name:<32} {calls / n:>10.1f} {self_s / n:>12.6f} "
            f"{100.0 * self_s / wall:>7.2f}%"
        )


def run(args) -> int:
    for var in PINNED_ENV:
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))
    from workloads import CLOCK, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, ROOT)
    setups = []
    for _ in range(SETUP_REPEATS):
        import_s = _import_seconds()
        started = CLOCK()
        inputs = workload.setup()
        setups.append(import_s + CLOCK() - started)
    setup_s = statistics.median(setups)

    tracer = setup_tracer = None
    if args.trace:
        tracer = LayerTracer()
        # One more set-up, traced apart from the passes: its cost is paid
        # once per run, not once per pass.
        with LayerTracer() as setup_tracer:
            inputs = workload.setup()
    untraced, traced = [], []
    probe = SpeedProbe()
    deadline = time.perf_counter() + args.seconds
    while True:
        # Every pass starts from the same heap: the previous pass's
        # garbage is not collected on this pass's clock.
        gc.collect()
        probe.sample()
        if tracer is not None and len(traced) < len(untraced):
            with tracer:
                started = time.perf_counter()
                result = workload.run_pass(inputs)
                traced.append((result, time.perf_counter() - started))
        else:
            started = time.perf_counter()
            result = workload.run_pass(inputs)
            untraced.append((result, time.perf_counter() - started))
        if time.perf_counter() >= deadline and (tracer is None or traced):
            break

    passes = [p for p, _ in untraced] + [p for p, _ in traced]
    failures = [f for p in passes for f in p.failures]
    for index, p in enumerate(passes[1:], start=1):
        if p.virtual != passes[0].virtual:
            failures.append(f"pass {index} virtual-time results differ from pass 0")
    leftover = find_wrappers()
    if leftover:
        failures.append(f"wrappers left installed: {leftover}")
    attempted = sum(p.attempted for p in passes)
    failed = min(attempted, len(failures))

    conditions = _conditions(args.seed, workload)
    print(f"workload {args.workload}: {len(untraced)} untraced, {len(traced)} traced passes")
    print("conditions " + json.dumps(conditions, sort_keys=True))
    plain = [p for p, _ in untraced]
    e2e = end_to_end(setup_s, plain, probe)
    _print_table("end-to-end", e2e)
    _print_table(
        "workload metrics",
        {
            "cpu_ms_per_op": (_ms_per_op([p.op_ms for p in plain]), "ms"),
            "cpu_ms_per_aux_op": (_ms_per_op([p.aux_ms for p in plain]), "ms"),
            "reference_loop_ms": (probe.fastest_ms, "ms"),
            **workload.report(plain),
            "fail_ratio": (failed / attempted, "ratio"),
        },
    )
    if tracer is not None:
        _print_layers(tracer, traced)
        metrics = per_layer(tracer, setup_tracer, traced, untraced, workload)
        _print_table("per-layer metrics", metrics)
    else:
        metrics = e2e
    for failure in failures[:20]:
        print(f"FAILED: {failure}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("plansearch", "batch", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
