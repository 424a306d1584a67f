"""Crash-path regression tests for the parallel runner's pool-death salvage.

Covers the salvage loop that runs when a worker dies and the pool
breaks: control-flow exceptions must escape it, dropped points must be
logged and retried, the inline-retry counter must reflect retries that
actually completed, and the traced retry path must neither lose nor
double-count spans.  Numpy-free: every test drives the runner with a
custom module-level evaluate function.
"""

from __future__ import annotations

import logging
import os
import signal
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import pytest

from repro.engine import MetricsRecorder
from repro.experiments import ParallelRunner
from repro.experiments import parallel as parallel_mod
from repro.obs.tracer import Tracer, use_tracer
from repro.store import ArtifactStore


def _evaluate_or_die(point: dict) -> float:
    """Die with SIGKILL in any pool worker; succeed in the parent."""
    if os.getpid() != point["parent_pid"]:
        os.kill(os.getpid(), signal.SIGKILL)
    return float(point["value"])


def _evaluate_die_then_raise(point: dict) -> float:
    """Kill every worker; inline, raise on one specific point."""
    if os.getpid() != point["parent_pid"]:
        os.kill(os.getpid(), signal.SIGKILL)
    if point["value"] == 2:
        raise ValueError("inline retry boom")
    return float(point["value"])


@dataclass(frozen=True)
class CrashPoint:
    """A cacheable (frozen-dataclass) point for store-persistence tests."""

    parent_pid: int
    value: int


def _evaluate_crash_point(point: CrashPoint) -> float:
    if os.getpid() != point.parent_pid:
        os.kill(os.getpid(), signal.SIGKILL)
    return float(point.value)


def _points(n: int = 4) -> list[dict]:
    return [{"parent_pid": os.getpid(), "value": v} for v in range(n)]


# ----------------------------------------------------------------------
# Salvage-loop exception discipline (fake pool: no forking needed)
# ----------------------------------------------------------------------
class _SalvageFuture:
    """A finished future whose result is a value or a raised exception."""

    def __init__(self, exc: BaseException | None = None, value=None):
        self._exc = exc
        self._value = value

    def done(self) -> bool:
        return True

    def cancelled(self) -> bool:
        return False

    def result(self):
        if self._exc is not None:
            raise self._exc
        return self._value


def _install_broken_pool(monkeypatch, futures: list[_SalvageFuture]) -> None:
    """Make the runner's pool hand out ``futures`` and then break.

    ``as_completed`` raising ``BrokenProcessPool`` drops the runner
    straight into its salvage loop with the fabricated futures, which is
    exactly the state after a worker death — minus the forking, so the
    test can plant any exception inside ``future.result()``.
    """
    handout = list(futures)

    class _FakePool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            return handout.pop(0)

    def _broken(futures_map):
        raise BrokenProcessPool("fake pool died")

    monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(parallel_mod, "as_completed", _broken)


class TestSalvageExceptionDiscipline:
    def test_keyboard_interrupt_escapes_salvage(self, monkeypatch):
        # Regression: the salvage loop used to catch BaseException and
        # continue, silently absorbing a ^C delivered while collecting
        # finished futures.
        _install_broken_pool(
            monkeypatch,
            [_SalvageFuture(exc=KeyboardInterrupt()), _SalvageFuture(value=(1.0, 0.0))],
        )
        with pytest.raises(KeyboardInterrupt):
            ParallelRunner(2).run(_points(2), evaluate=_evaluate_or_die)

    def test_system_exit_escapes_salvage(self, monkeypatch):
        _install_broken_pool(
            monkeypatch,
            [_SalvageFuture(exc=SystemExit(3)), _SalvageFuture(value=(1.0, 0.0))],
        )
        with pytest.raises(SystemExit):
            ParallelRunner(2).run(_points(2), evaluate=_evaluate_or_die)

    def test_failed_salvage_logged_and_retried(self, monkeypatch, caplog):
        # An ordinary exception in a salvaged future means that point
        # died with the pool: it is dropped (at warning level) and the
        # inline pass re-evaluates it.
        _install_broken_pool(
            monkeypatch,
            [
                _SalvageFuture(exc=RuntimeError("worker died mid-point")),
                _SalvageFuture(value=(41.0, 0.0)),
            ],
        )
        metrics = MetricsRecorder()
        with caplog.at_level(logging.WARNING, logger="repro.experiments.parallel"):
            values = ParallelRunner(2, metrics=metrics).run(
                _points(2), evaluate=_evaluate_or_die
            )
        # Point 0 re-evaluated inline, point 1 salvaged from its future.
        assert values == [0.0, 41.0]
        assert metrics.counters["points_retried_inline"] == 1.0
        assert any(
            "no salvageable result" in rec.message for rec in caplog.records
        )


# ----------------------------------------------------------------------
# Inline-retry accounting (real pool, workers genuinely SIGKILLed)
# ----------------------------------------------------------------------
class TestRetryCounter:
    def test_counter_equals_retries_performed(self):
        # Every worker dies before finishing anything, so all 4 points
        # are retried inline and all 4 succeed.
        metrics = MetricsRecorder()
        values = ParallelRunner(2, metrics=metrics).run(
            _points(4), evaluate=_evaluate_or_die
        )
        assert values == [0.0, 1.0, 2.0, 3.0]
        assert metrics.counters["points_retried_inline"] == 4.0

    def test_counter_excludes_failed_retry(self):
        # Regression: the counter used to be bumped by len(remaining)
        # *before* the retries ran, overstating completed retries when
        # one of them raised.  Points 0 and 1 retry fine, point 2 raises
        # — the counter must say 2, not 4.
        metrics = MetricsRecorder()
        with pytest.raises(ValueError, match="inline retry boom"):
            ParallelRunner(2, metrics=metrics).run(
                _points(4), evaluate=_evaluate_die_then_raise
            )
        assert metrics.counters["points_retried_inline"] == 2.0


# ----------------------------------------------------------------------
# Traced pool death (satellites: double-count audit + salvage coverage)
# ----------------------------------------------------------------------
def _iter_spans(span):
    yield span
    for child in span.children:
        yield from _iter_spans(child)


class TestTracedPoolDeath:
    def test_spans_stitched_once_in_input_order(self):
        # Inline retries run _timed_traced in the *parent* process under
        # a fresh local tracer; the spans reach the ambient tracer only
        # via the shipped dicts that _stitch_spans adopts.  If the local
        # tracer ever leaked into the ambient contextvar (the PR 5
        # double-count), each point would appear twice here.
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            values = ParallelRunner(2).run(_points(4), evaluate=_evaluate_or_die)
        assert values == [0.0, 1.0, 2.0, 3.0]
        assert len(tracer.roots) == 1
        sweep = tracer.roots[0]
        assert sweep.name == "sweep"
        point_spans = [
            s for root in tracer.roots for s in _iter_spans(root) if s.name == "point"
        ]
        assert [s.attributes["index"] for s in point_spans] == [0, 1, 2, 3]
        # All four live directly under the sweep span (slot layout).
        assert [c.attributes["index"] for c in sweep.children] == [0, 1, 2, 3]
        # Logical sequential timeline: each point starts where the
        # previous one ended.
        for before, after in zip(sweep.children, sweep.children[1:]):
            assert after.start == pytest.approx(before.end)

    def test_traced_salvage_matches_undisturbed_run(self, capsys):
        # A pool-death run must be externally indistinguishable from an
        # undisturbed serial run: same values, same (empty) stdout.
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            killed = ParallelRunner(2).run(_points(4), evaluate=_evaluate_or_die)
        killed_out = capsys.readouterr().out
        undisturbed = ParallelRunner(1).run(_points(4), evaluate=_evaluate_or_die)
        undisturbed_out = capsys.readouterr().out
        assert killed == undisturbed
        assert killed_out == undisturbed_out == ""

    def test_salvaged_points_persisted_to_store(self, tmp_path):
        # Points completed via the inline-retry path must land in the
        # artifact store exactly like undisturbed ones: a rerun against
        # the same store is all hits, no retries.
        store = ArtifactStore(tmp_path / "cache")
        points = [CrashPoint(parent_pid=os.getpid(), value=v) for v in range(4)]
        first = MetricsRecorder()
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            values = ParallelRunner(2, metrics=first, store=store).run(
                points, evaluate=_evaluate_crash_point
            )
        assert values == [0.0, 1.0, 2.0, 3.0]
        assert first.counters["points_retried_inline"] == 4.0

        second = MetricsRecorder()
        rerun = ParallelRunner(2, metrics=second, store=store).run(
            points, evaluate=_evaluate_crash_point
        )
        assert rerun == values
        assert second.counters["point_store_hits"] == 4.0
        assert "points_retried_inline" not in second.counters


# ----------------------------------------------------------------------
# One pool across runs (real pool)
# ----------------------------------------------------------------------
def _evaluate_pid(point: dict) -> int:
    """The pid of the process that evaluated the point."""
    return os.getpid()


class _CountingPools:
    """Replace the runner's executor class with one that records each pool."""

    def __init__(self, monkeypatch):
        self.made: list = []
        base = parallel_mod.ProcessPoolExecutor
        made = self.made

        class Counting(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", Counting)


class TestSharedPool:
    def test_runs_outside_the_block_start_a_pool_each(self, monkeypatch):
        pools = _CountingPools(monkeypatch)
        runner = ParallelRunner(2)
        for _ in range(2):
            assert runner.run(_points(2), evaluate=_evaluate_or_die) == [0.0, 1.0]
        assert len(pools.made) == 2

    def test_runs_inside_the_block_share_one_pool(self, monkeypatch):
        pools = _CountingPools(monkeypatch)
        runner = ParallelRunner(2)
        with runner.shared_pool():
            first = runner.run(_points(4), evaluate=_evaluate_pid)
            second = runner.run(_points(4), evaluate=_evaluate_pid)
            assert len(pools.made) == 1
        assert os.getpid() not in first + second
        # The block's end shuts the pool down: nothing more can be run on it.
        with pytest.raises(RuntimeError):
            pools.made[0].submit(_evaluate_pid, {})

    def test_broken_shared_pool_is_replaced(self, monkeypatch):
        # The first run kills its workers and is salvaged inline as
        # without the block; the next run gets a fresh, working pool.
        pools = _CountingPools(monkeypatch)
        metrics = MetricsRecorder()
        runner = ParallelRunner(2, metrics=metrics)
        with runner.shared_pool():
            killed = runner.run(_points(4), evaluate=_evaluate_or_die)
            after = runner.run(_points(4), evaluate=_evaluate_pid)
        assert killed == [0.0, 1.0, 2.0, 3.0]
        assert metrics.counters["points_retried_inline"] == 4.0
        assert len(pools.made) == 2
        assert os.getpid() not in after
