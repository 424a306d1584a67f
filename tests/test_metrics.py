"""Tests for the MetricsRecorder observability hooks."""

from __future__ import annotations

from repro.engine import MetricsRecorder


class TestCounters:
    def test_count_accumulates(self):
        m = MetricsRecorder()
        m.count("clones")
        m.count("clones", 2.5)
        assert m.counters["clones"] == 3.5

    def test_independent_names(self):
        m = MetricsRecorder()
        m.count("a")
        m.count("b", 7)
        assert m.counters == {"a": 1.0, "b": 7.0}


class TestTimers:
    def test_timer_accumulates(self):
        m = MetricsRecorder()
        with m.timer("pack"):
            pass
        first = m.timers["pack"]
        assert first >= 0.0
        with m.timer("pack"):
            pass
        assert m.timers["pack"] >= first

    def test_timer_records_on_exception(self):
        m = MetricsRecorder()
        try:
            with m.timer("boom"):
                raise ValueError("x")
        except ValueError:
            pass
        assert "boom" in m.timers


class TestMergeAndExport:
    def test_merge(self):
        a = MetricsRecorder()
        a.count("n", 1)
        a.timers["t"] = 0.5
        b = MetricsRecorder()
        b.count("n", 2)
        b.count("m", 4)
        b.timers["t"] = 0.25
        a.merge(b)
        assert a.counters == {"n": 3.0, "m": 4.0}
        assert a.timers["t"] == 0.75

    def test_snapshot_is_a_copy(self):
        m = MetricsRecorder()
        m.count("n")
        snap = m.snapshot()
        snap["counters"]["n"] = 99.0
        assert m.counters["n"] == 1.0

    def test_repr(self):
        m = MetricsRecorder()
        m.count("n")
        assert "counters=1" in repr(m)


class TestKernelInstrumentation:
    """The PR 2 placement-scan counters and kernel timers."""

    @staticmethod
    def _packed_recorder(n=30, p=6):
        import random

        from repro import CloneItem, ConvexCombinationOverlap, WorkVector, pack_vectors

        rng = random.Random(3)
        items = [
            CloneItem(
                operator=f"op{i}",
                clone_index=0,
                work=WorkVector([rng.uniform(0.1, 5.0) for _ in range(3)]),
            )
            for i in range(n)
        ]
        m = MetricsRecorder()
        pack_vectors(items, p=p, overlap=ConvexCombinationOverlap(0.5), metrics=m)
        return m, n

    def test_pack_vectors_records_counters_and_timer(self):
        from repro.obs.names import (
            COUNTER_CLONES_PACKED,
            COUNTER_PLACEMENT_SCANS,
            TIMER_PACK_VECTORS,
        )

        m, n = self._packed_recorder()
        assert m.counters[COUNTER_CLONES_PACKED] == n
        assert m.counters[COUNTER_PLACEMENT_SCANS] > 0
        assert m.timers[TIMER_PACK_VECTORS] > 0.0

    def test_heap_scans_far_below_linear_rescan(self):
        """The lazy heap examines far fewer entries than n*p."""
        from repro.obs.names import COUNTER_PLACEMENT_SCANS

        n, p = 200, 32
        m, _ = self._packed_recorder(n=n, p=p)
        assert m.counters[COUNTER_PLACEMENT_SCANS] < 0.25 * n * p

    def test_operator_schedule_records_counters(self):
        import random

        from repro import ConvexCombinationOverlap, OperatorSpec, WorkVector, operator_schedule
        from repro.core.granularity import CommunicationModel
        from repro.obs.names import (
            COUNTER_CLONES_PLACED,
            COUNTER_PLACEMENT_SCANS,
            TIMER_LIST_SCHEDULE,
        )

        rng = random.Random(1)
        floating = [
            OperatorSpec(
                name=f"op{i}",
                work=WorkVector([rng.uniform(1.0, 40.0) for _ in range(3)]),
                data_volume=rng.uniform(10.0, 200.0),
            )
            for i in range(8)
        ]
        m = MetricsRecorder()
        operator_schedule(
            floating,
            p=8,
            comm=CommunicationModel(alpha=1.0, beta=0.01),
            overlap=ConvexCombinationOverlap(0.5),
            metrics=m,
        )
        assert m.counters[COUNTER_CLONES_PLACED] > 0
        assert m.counters[COUNTER_PLACEMENT_SCANS] > 0
        assert m.timers[TIMER_LIST_SCHEDULE] >= 0.0


class TestMergeTimerModes:
    def _pair(self):
        a = MetricsRecorder()
        a.count("n", 1)
        a.timers["t"] = 0.5
        b = MetricsRecorder()
        b.count("n", 2)
        b.timers["t"] = 0.75
        b.timers["u"] = 0.1
        return a, b

    def test_sum_mode_is_additive(self):
        a, b = self._pair()
        a.merge(b)
        assert a.timers == {"t": 1.25, "u": 0.1}


class TestMetricVocabulary:
    def test_known_names_pass(self):
        from repro.obs.names import unknown_metric_names

        m = MetricsRecorder()
        m.count("clones_placed")
        m.count("placement_scans", 5)
        with m.timer("pack_vectors"):
            pass
        assert unknown_metric_names(m.counters, m.timers) == set()

    def test_typo_surfaces(self):
        from repro.obs.names import unknown_metric_names

        m = MetricsRecorder()
        m.count("clones_plcaed")  # the typo this check exists for
        with m.timer("pack_vectors"):
            pass
        assert unknown_metric_names(m.counters, m.timers) == {"clones_plcaed"}

    def test_accepts_bare_iterables(self):
        from repro.obs.names import unknown_metric_names

        assert unknown_metric_names(["phases"], ["run"]) == set()
        assert unknown_metric_names((), ("mystery",)) == {"mystery"}

    def test_kernel_constants_are_in_vocabulary(self):
        from repro.obs import names

        constants = {
            value
            for key, value in vars(names).items()
            if key.startswith(("COUNTER_", "TIMER_")) and isinstance(value, str)
        }
        assert constants == names.KNOWN_COUNTER_NAMES | names.KNOWN_TIMER_NAMES
