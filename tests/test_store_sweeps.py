"""Store-backed sweeps: cache keys across processes, byte-identical
outputs, resume-after-kill, and the CLI cache flags."""

from __future__ import annotations

import json
import re
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.engine.metrics import MetricsRecorder
from repro.experiments import prepare_workload
from repro.experiments.cli import main
from repro.experiments.config import PAPER_CONFIG
from repro.experiments.figures import figure6a
from repro.experiments.parallel import ParallelRunner, SweepPoint, evaluate_point
from repro.experiments.runner import schedule_query
from repro.serialization import figure_to_dict
from repro.store import (
    ENV_CACHE_DIR,
    KIND_POINT,
    NO_STORE,
    ArtifactStore,
    content_key,
    point_key_payload,
)

TINY = PAPER_CONFIG.with_overrides(
    n_queries=2,
    site_counts=(4, 16),
    query_sizes=(4, 8),
    f_values=(0.1, 0.7),
    epsilon_values=(0.1, 0.7),
)

GRID = [
    SweepPoint("treeschedule", 6, 2, 3, p, 0.7, 0.5)
    for p in (4, 8, 16, 32)
]


def _point_key(point: SweepPoint) -> str:
    """Module-level so it pickles into pool workers by reference."""
    return content_key(KIND_POINT, point_key_payload(point, evaluate_point))


@pytest.fixture(autouse=True)
def _no_env_store(monkeypatch):
    """Isolate every test from an ambient REPRO_CACHE_DIR (and restore
    it afterwards even if the CLI rewrites the variable)."""
    monkeypatch.delenv(ENV_CACHE_DIR, raising=False)


class TestKeyDeterminism:
    def test_same_key_in_parent_and_pool_worker(self):
        """Resume only works if a forked worker addresses the same entry
        as the parent for the same sweep point."""
        parent_keys = [_point_key(point) for point in GRID]
        with ProcessPoolExecutor(max_workers=2) as pool:
            worker_keys = list(pool.map(_point_key, GRID))
        assert worker_keys == parent_keys

    def test_distinct_points_distinct_keys(self):
        assert len({_point_key(point) for point in GRID}) == len(GRID)


def _figure_bytes(store) -> str:
    fig = figure6a(TINY, p_values=(4, 16), store=store)
    return json.dumps(figure_to_dict(fig), sort_keys=True)


class TestByteIdenticalOutputs:
    def test_disabled_cold_warm_and_workers_agree(self, tmp_path):
        """The acceptance bar: sweep outputs are byte-identical whether
        the cache is disabled, cold, or warm, at any worker count."""
        baseline = _figure_bytes(NO_STORE)
        store = ArtifactStore(tmp_path / "cache")
        cold = _figure_bytes(store)
        assert store.stats.writes > 0
        warm = _figure_bytes(store)
        fig_parallel = figure6a(TINY, p_values=(4, 16), workers=2, store=store)
        parallel = json.dumps(figure_to_dict(fig_parallel), sort_keys=True)
        assert cold == baseline
        assert warm == baseline
        assert parallel == baseline

    def test_warm_run_hits_every_point(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        ParallelRunner(store=store).run(GRID)
        metrics = MetricsRecorder()
        values = ParallelRunner(metrics=metrics, store=store).run(GRID)
        assert metrics.counters["point_store_hits"] == float(len(GRID))
        assert metrics.counters["points_evaluated"] == 0.0
        assert values == ParallelRunner(store=NO_STORE).run(GRID)


class TestResume:
    def test_restarted_sweep_completes_only_missing_points(self, tmp_path):
        """A sweep killed partway leaves its completed points in the
        store (they are persisted as they finish); rerunning the full
        grid against the same cache directory evaluates only the rest."""
        store = ArtifactStore(tmp_path / "cache")
        done = len(GRID) // 2
        ParallelRunner(store=store).run(GRID[:done])  # the "killed" run

        resumed = ArtifactStore(tmp_path / "cache")  # fresh process, same dir
        metrics = MetricsRecorder()
        values = ParallelRunner(metrics=metrics, store=resumed).run(GRID)
        assert metrics.counters["point_store_hits"] == float(done)
        assert metrics.counters["point_store_misses"] == float(len(GRID) - done)
        assert metrics.counters["points_evaluated"] == float(len(GRID) - done)
        assert values == ParallelRunner(store=NO_STORE).run(GRID)

    def test_pool_workers_persist_points_as_they_complete(self, tmp_path):
        """With workers > 1, each point must land on disk when its future
        completes, not when the sweep ends — count the entries."""
        store = ArtifactStore(tmp_path / "cache")
        ParallelRunner(workers=2, store=store).run(GRID)
        entries = list((tmp_path / "cache" / KIND_POINT).rglob("*.json"))
        assert len(entries) == len(GRID)


class TestScheduleResultCache:
    def test_result_roundtrip_and_counters(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        (query, _) = prepare_workload(4, 2, seed=1, store=NO_STORE)
        kwargs = dict(p=8, f=0.7, epsilon=0.5, store=store)
        cache_key = {"workload": {"n_joins": 4, "n_queries": 2, "seed": 1}, "index": 0}

        cold_metrics = MetricsRecorder()
        cold = schedule_query(
            "treeschedule", query, metrics=cold_metrics,
            cache_key=cache_key, **kwargs,
        )
        assert cold_metrics.counters["store_misses"] == 1.0
        assert cold.instrumentation.counters["store_misses"] == 1.0

        warm_metrics = MetricsRecorder()
        warm = schedule_query(
            "treeschedule", query, metrics=warm_metrics,
            cache_key=cache_key, **kwargs,
        )
        assert warm_metrics.counters["store_hits"] == 1.0
        assert warm.instrumentation.counters["store_hits"] == 1.0
        assert warm.makespan == cold.makespan
        assert warm.algorithm == cold.algorithm
        # The store keeps no host time: a hit reports none, keeps the
        # deterministic counters, and is tagged as a hit only.
        assert warm.instrumentation.wall_clock_seconds == 0.0
        assert warm.instrumentation.timers == {}
        assert warm.instrumentation.spans == []
        deterministic = {
            name: value
            for name, value in cold.instrumentation.counters.items()
            if name != "store_misses"
        }
        assert warm.instrumentation.counters == {**deterministic, "store_hits": 1.0}

    def test_different_cache_key_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        (query, _) = prepare_workload(4, 2, seed=1, store=NO_STORE)
        kwargs = dict(p=8, f=0.7, epsilon=0.5, store=store)
        schedule_query(
            "treeschedule", query, cache_key={"index": 0}, **kwargs
        )
        metrics = MetricsRecorder()
        schedule_query(
            "treeschedule", query, metrics=metrics,
            cache_key={"index": 1}, **kwargs,
        )
        assert metrics.counters["store_misses"] == 1.0


CLI_ARGS = ["fig6b", "--quick", "--queries", "1", "--sites", "4", "8", "--json"]


class TestCliCaching:
    def test_rerun_is_byte_identical_with_high_hit_rate(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cli-cache")
        assert main([*CLI_ARGS, "--cache-dir", cache_dir]) == 0
        first = capsys.readouterr()
        assert main([*CLI_ARGS, "--cache-dir", cache_dir]) == 0
        second = capsys.readouterr()
        # stdout (the figure JSON) must be byte-identical; all cache
        # chatter is on stderr.
        assert second.out == first.out
        assert "[cache]" not in first.out
        match = re.search(
            r"\[cache\] (\d+) hits, (\d+) misses", second.err
        )
        assert match, second.err
        hits, misses = int(match.group(1)), int(match.group(2))
        assert hits / (hits + misses) >= 0.95

    def test_no_cache_matches_cached_output(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cli-cache")
        assert main([*CLI_ARGS, "--cache-dir", cache_dir]) == 0
        cached = capsys.readouterr()
        assert main([*CLI_ARGS, "--no-cache"]) == 0
        uncached = capsys.readouterr()
        assert uncached.out == cached.out
        assert "[cache]" not in uncached.err

    def test_cold_runs_write_identical_result_entries(self, tmp_path, capsys):
        """Stored results hold no host time, so two cold runs of a sweep
        that caches schedule results write the same bytes."""
        args = ["robustness", "--quick", "--queries", "1", "--intensities", "0",
                "1.0", "--json"]
        entries = []
        for name in ("first", "second"):
            cache_dir = tmp_path / name
            assert main([*args, "--cache-dir", str(cache_dir)]) == 0
            root = cache_dir / "result"
            entries.append(
                {p.relative_to(root): p.read_bytes() for p in root.rglob("*.json")}
            )
        capsys.readouterr()
        assert entries[0]
        assert entries[0] == entries[1]

    def test_cache_flags_mutually_exclusive(self, tmp_path, capsys):
        rc = main([*CLI_ARGS, "--cache-dir", str(tmp_path), "--no-cache"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "mutually exclusive" in captured.err
