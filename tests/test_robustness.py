"""Tests for the fault-intensity robustness experiment."""

from __future__ import annotations

import pytest

from repro import ConfigurationError
from repro.engine import MetricsRecorder, ScheduleResult
from repro.experiments import prepare_workload, robustness_sweep, schedule_query
from repro.experiments.config import quick_config
from repro.experiments.robustness import (
    RobustnessPoint,
    evaluate_robustness_point,
    simulate_result_under_faults,
)
from repro.obs.names import COUNTER_FAULTS_INJECTED, COUNTER_WORK_RERUN
from repro.sim.faults import FaultSpec
from repro.sim.policies import SharingPolicy

CONFIG = quick_config(n_queries=2)


def small_sweep(workers, metrics=None):
    return robustness_sweep(
        CONFIG,
        n_joins=8,
        p=8,
        intensities=(0.0, 1.0),
        workers=workers,
        metrics=metrics,
    )


class TestDeterminism:
    def test_identical_for_any_worker_count(self):
        serial = small_sweep(1)
        parallel = small_sweep(2)
        # Fault plans are pure functions of (spec, schedule, seed), so
        # the whole report must be bit-identical, not just approximate.
        assert parallel == serial

    def test_point_is_reproducible(self):
        point = RobustnessPoint(
            algorithm="treeschedule",
            n_joins=8,
            n_queries=2,
            seed=CONFIG.seed,
            p=8,
            f=0.7,
            epsilon=0.5,
            intensity=0.75,
            fault_seed=1996,
        )
        assert evaluate_robustness_point(point) == evaluate_robustness_point(point)


class TestShape:
    def test_series_per_algorithm(self):
        fig = small_sweep(1)
        assert fig.figure_id == "robustness"
        assert {s.label for s in fig.series} == {"treeschedule", "synchronous"}
        for s in fig.series:
            assert s.xs == (0.0, 1.0)
            assert len(s.ys) == 2

    def test_zero_intensity_is_benign(self):
        fig = small_sweep(1)
        for s in fig.series:
            # No faults: degradation is just the fair-share penalty,
            # which is small, and faults can only make things worse
            # on average for this workload.
            assert 1.0 - 1e-9 <= s.ys[0] < 1.5
            assert s.ys[1] > s.ys[0]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            robustness_sweep(CONFIG, algorithms=())
        with pytest.raises(ConfigurationError):
            robustness_sweep(CONFIG, intensities=())
        with pytest.raises(ConfigurationError):
            robustness_sweep(CONFIG, intensities=(0.5, 1.7))


class TestCounterFlow:
    def _scheduled_result(self) -> ScheduleResult:
        (query,) = prepare_workload(6, 1, 42, CONFIG.params)
        return schedule_query("treeschedule", query, p=6, f=0.7, epsilon=0.5)

    def test_counters_reach_schedule_result(self):
        result = self._scheduled_result()
        metrics = MetricsRecorder()
        sim = simulate_result_under_faults(
            result, FaultSpec.at_intensity(1.0), seed=7, metrics=metrics
        )
        report = sim.fault_report
        assert report is not None and report.faults_injected > 0
        counters = result.instrumentation.counters
        assert counters[COUNTER_FAULTS_INJECTED] == report.faults_injected
        assert counters[COUNTER_WORK_RERUN] == report.work_rerun
        assert metrics.counters[COUNTER_FAULTS_INJECTED] == report.faults_injected

    def test_zero_fault_counters_are_zero(self):
        result = self._scheduled_result()
        simulate_result_under_faults(result, FaultSpec.none(), seed=7)
        counters = result.instrumentation.counters
        assert counters[COUNTER_FAULTS_INJECTED] == 0
        assert counters[COUNTER_WORK_RERUN] == 0.0

    def test_bound_only_rejected(self):
        bound = ScheduleResult.from_value("optbound", 3.0)
        with pytest.raises(ConfigurationError):
            simulate_result_under_faults(bound, FaultSpec.at_intensity(0.5), seed=1)


class TestPolicies:
    @pytest.mark.parametrize("policy", list(SharingPolicy))
    def test_every_policy_simulates(self, policy):
        point = RobustnessPoint(
            algorithm="treeschedule",
            n_joins=6,
            n_queries=1,
            seed=42,
            p=6,
            f=0.7,
            epsilon=0.5,
            intensity=0.5,
            fault_seed=3,
            policy=policy.value,
        )
        value = evaluate_robustness_point(point)
        assert value >= 1.0 - 1e-9
