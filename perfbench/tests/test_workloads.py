"""Workload checks, traced/untraced agreement and the run's contract."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from layers import COUNTERS, LayerTracer, find_wrappers
from speed import REFERENCE_MS, SpeedProbe, normalized_ms
from workloads import Batch, PlanSearch, Serve

ROOT = Path(__file__).resolve().parent.parent.parent


class SmallPlanSearch(PlanSearch):
    EXHAUSTIVE_VARIANTS = 0
    LOCAL_QUERIES = 1


class SmallBatch(Batch):
    N_JOINS = 6
    N_QUERIES = 2
    SITES = (8,)


class SmallServe(Serve):
    P = 32
    CLIENTS = 8
    DURATION = 200.0
    MAX_DEGREE = 8
    TEMPLATES = 3
    QUERY_SIZES = (3, 4)


@pytest.mark.parametrize("cls", [SmallPlanSearch, SmallBatch, SmallServe])
def test_traced_and_untraced_passes_agree(cls, tmp_path):
    workload = cls(seed=5, root=tmp_path)
    inputs = workload.setup()
    plain = workload.run_pass(inputs)
    tracer = LayerTracer()
    with tracer:
        traced = workload.run_pass(inputs)
    assert find_wrappers() == []
    assert plain.failures == [] and traced.failures == []
    assert plain.virtual == traced.virtual
    assert plain.attempted == traced.attempted > 0
    assert sum(tracer.calls.values()) > 0


def test_seed_changes_the_inputs(tmp_path):
    a = SmallPlanSearch(seed=1, root=tmp_path).run_pass(
        SmallPlanSearch(seed=1, root=tmp_path).setup()
    )
    b = SmallPlanSearch(seed=2, root=tmp_path).run_pass(
        SmallPlanSearch(seed=2, root=tmp_path).setup()
    )
    # The recorded chain is fixed; the seeded local-search query is not.
    assert a.virtual["winner_key.chain8"] == b.virtual["winner_key.chain8"]
    assert a.virtual["response_s"] != b.virtual["response_s"]


def test_traced_run_reports_layers_and_removes_wrappers(capsys):
    assert run.main(
        ["--workload", "plansearch", "--seed", "3", "--seconds", "0", "--trace", "1"]
    ) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["search.screen.self_s"]["value"] > 0
    assert metrics["serve.loop.self_s"]["value"] == 0
    assert "tracing_overhead" in metrics and "unattributed_s" in metrics
    assert find_wrappers() == []


def test_normalized_time_scales_by_the_fastest_probe_sample():
    probe = SpeedProbe()
    probe.samples = [3.0 * REFERENCE_MS / 1000.0, 2.0 * REFERENCE_MS / 1000.0]
    # The host ran the reference loop at half the tuning machine's speed.
    assert normalized_ms(100.0, probe) == pytest.approx(50.0)
    probe.sample()
    assert len(probe.samples) == 2 + SpeedProbe.REPEATS
    assert min(probe.samples) > 0


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "peak_rss_mb", "norm_ms_per_op", "norm_ms_per_aux_op", "response_s",
    }
    names = {m["name"] for m in spec["per_layer"]}
    tracer = LayerTracer()
    expected = {f"{layer.name}.{kind}" for layer in tracer.layers for kind in ("calls", "self_s")}
    expected |= set(run.WORKLOAD_LAYER_METRICS)
    expected |= set(COUNTERS)
    expected |= {
        "unattributed_s", "tracing_overhead", "store.hit_ratio", "setup.prepare_workload.self_s",
    }
    assert names == expected


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
