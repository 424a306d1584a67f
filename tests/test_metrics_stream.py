"""Unit tests of the zero-dependency metrics stream (obs.metrics_stream).

Numpy-free by design: the instruments, the log-bucket sketch, the two
exposition writers, and the payload validator are all pure stdlib.
"""

import json
import math
from pathlib import Path

import pytest

from repro.obs.metrics_stream import (
    METRICS_SCHEMA,
    CounterInstrument,
    GaugeInstrument,
    HistogramInstrument,
    LogBucketSketch,
    TimeSeriesRegistry,
    parse_metrics_jsonl,
    validate_metrics_payload,
)


class TestLogBucketSketch:
    def test_empty_quantile_is_zero(self):
        sketch = LogBucketSketch()
        assert sketch.quantile(50.0) == 0.0
        assert sketch.quantile(99.0) == 0.0
        assert sketch.count == 0

    def test_quantile_brackets_exact_nearest_rank(self):
        # The sketch promise: for any sample set, the reported quantile
        # is the upper boundary of the bucket holding the exact
        # nearest-rank order statistic — within one growth factor above.
        import random

        rng = random.Random(7)
        values = [rng.uniform(0.01, 500.0) for _ in range(500)]
        sketch = LogBucketSketch()
        for v in values:
            sketch.observe(v)
        ordered = sorted(values)
        for q in (50.0, 95.0, 99.0):
            rank = max(1, math.ceil(q / 100.0 * len(ordered)))
            exact = ordered[rank - 1]
            reported = sketch.quantile(q)
            assert exact <= reported <= exact * sketch.growth * (1 + 1e-12)

    def test_boundary_values_map_to_own_bucket(self):
        sketch = LogBucketSketch(lo=1.0, growth=2.0, buckets=8)
        # Exactly on a boundary: bucket i covers (lo*g^(i-1), lo*g^i].
        assert sketch._bucket_index(1.0) == 0
        assert sketch._bucket_index(2.0) == 1
        assert sketch._bucket_index(2.0000001) == 2
        assert sketch._bucket_index(128.0) == 7
        # Past the top finite boundary: the overflow bucket.
        assert sketch._bucket_index(129.0) == 8

    def test_overflow_saturates_at_top_boundary(self):
        sketch = LogBucketSketch(lo=1.0, growth=2.0, buckets=4)
        sketch.observe(10_000.0)
        assert sketch.quantile(50.0) == sketch.boundaries[-1]

    def test_non_positive_observations_land_in_bucket_zero(self):
        sketch = LogBucketSketch(lo=1.0, growth=2.0, buckets=4)
        sketch.observe(0.0)
        sketch.observe(-3.0)
        assert sketch.counts[0] == 2
        assert sketch.quantile(99.0) == sketch.lo

    def test_window_resets_cumulative_does_not(self):
        sketch = LogBucketSketch()
        sketch.observe(1.0)
        sketch.observe(2.0)
        assert sketch.window_count == 2
        sketch.mark_window()
        assert sketch.window_count == 0
        assert sketch.count == 2
        sketch.observe(4.0)
        assert sketch.window_quantile(50.0) >= 4.0
        assert sketch.quantile(10.0) <= 2.0

    def test_bucket_pairs_are_cumulative_and_end_at_inf(self):
        sketch = LogBucketSketch(lo=1.0, growth=2.0, buckets=4)
        for v in (0.5, 3.0, 100.0):
            sketch.observe(v)
        pairs = sketch.bucket_pairs()
        assert pairs[-1][0] == math.inf
        assert pairs[-1][1] == 3
        counts = [c for _, c in pairs]
        assert counts == sorted(counts)

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            LogBucketSketch(lo=0.0)
        with pytest.raises(ValueError):
            LogBucketSketch(growth=1.0)
        with pytest.raises(ValueError):
            LogBucketSketch(buckets=0)


class TestInstruments:
    def test_counter_is_monotone(self):
        counter = CounterInstrument("c")
        counter.add(2.0)
        counter.set_total(5.0)
        with pytest.raises(ValueError):
            counter.add(-1.0)
        with pytest.raises(ValueError):
            counter.set_total(4.0)
        assert counter.value == 5.0

    def test_gauge_goes_both_ways(self):
        gauge = GaugeInstrument("g")
        gauge.set(3.0)
        gauge.set(-1.5)
        assert gauge.value == -1.5

    def test_histogram_sample_record_closes_window(self):
        histogram = HistogramInstrument("h")
        histogram.observe(1.0)
        first = histogram.sample_record(10.0)
        assert first["count"] == 1 and first["window_count"] == 1
        second = histogram.sample_record(20.0)
        assert second["count"] == 1 and second["window_count"] == 0


class TestTimeSeriesRegistry:
    def test_get_or_create_and_type_conflict(self):
        registry = TimeSeriesRegistry()
        counter = registry.counter("x")
        assert registry.counter("x") is counter
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.counter("")

    def test_sample_appends_one_record_per_instrument(self):
        registry = TimeSeriesRegistry()
        registry.counter("c").add()
        registry.gauge("g").set(2.0)
        registry.histogram("h").observe(0.5)
        assert registry.sample(1.0) == 3
        assert registry.sample(2.0) == 3
        assert len(registry.samples) == 6
        assert [r["t"] for r in registry.series("g")] == [1.0, 2.0]
        assert registry.last_sample_at == 2.0

    def test_sample_times_must_not_decrease(self):
        registry = TimeSeriesRegistry()
        registry.gauge("g")
        registry.sample(5.0)
        registry.sample(5.0)  # equal is fine
        with pytest.raises(ValueError):
            registry.sample(4.0)

    def test_prometheus_text_shape(self):
        registry = TimeSeriesRegistry()
        registry.counter("b_total", "help text").add(3)
        registry.gauge("a_gauge").set(1.5)
        registry.histogram("lat", lo=1.0, growth=2.0, buckets=2).observe(1.5)
        text = registry.prometheus_text()
        lines = text.splitlines()
        # Sorted by instrument name; HELP only when given.
        assert lines[0] == "# TYPE a_gauge gauge"
        assert "# HELP b_total help text" in lines
        assert "b_total 3" in lines
        assert 'lat_bucket{le="1"} 0' in lines
        assert 'lat_bucket{le="2"} 1' in lines
        assert 'lat_bucket{le="+Inf"} 1' in lines
        assert "lat_sum 1.5" in lines
        assert "lat_count 1" in lines
        assert text.endswith("\n")

    def test_jsonl_round_trip_validates(self):
        registry = TimeSeriesRegistry()
        registry.counter("c").add(1)
        registry.gauge("g").set(0.25)
        registry.histogram("h").observe(2.0)
        registry.sample(0.0)
        registry.counter("c").add(2)
        registry.sample(7.5)
        records = parse_metrics_jsonl(registry.jsonl().splitlines())
        assert all(r["schema"] == METRICS_SCHEMA for r in records)
        assert validate_metrics_payload(records) == []
        # The dict-container form validates identically.
        assert validate_metrics_payload({"samples": records}) == []

    def test_write_files(self, tmp_path):
        registry = TimeSeriesRegistry()
        registry.gauge("g").set(1.0)
        registry.sample(0.0)
        prom = tmp_path / "m.prom"
        jsonl = tmp_path / "m.jsonl"
        registry.write_prometheus(str(prom))
        registry.write_jsonl(str(jsonl))
        assert "g 1" in prom.read_text()
        assert validate_metrics_payload(parse_metrics_jsonl(jsonl.open())) == []


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: LogBucketSketch().observe(NAN), "observation must be finite"),
        (lambda: LogBucketSketch().observe(INF), "observation must be finite"),
        (lambda: LogBucketSketch().observe(-INF), "observation must be finite"),
        (lambda: HistogramInstrument("lat").observe(NAN), "histogram 'lat'"),
        (lambda: HistogramInstrument("lat").observe(INF), "histogram 'lat'"),
        (lambda: GaugeInstrument("depth").set(NAN), "gauge 'depth'"),
        (lambda: GaugeInstrument("depth").set(-INF), "gauge 'depth'"),
        (lambda: CounterInstrument("done").add(NAN), "counter 'done'"),
        (lambda: CounterInstrument("done").add(INF), "counter 'done'"),
        (lambda: CounterInstrument("done").set_total(NAN), "counter 'done'"),
        (lambda: CounterInstrument("done").set_total(INF), "counter 'done'"),
        (lambda: TimeSeriesRegistry().sample(NAN), "sample time must be finite"),
        (lambda: TimeSeriesRegistry().sample(INF), "sample time must be finite"),
    ],
)
def test_non_finite_values_are_rejected_at_the_call(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_rejected_values_leave_no_trace():
    registry = TimeSeriesRegistry()
    histogram = registry.histogram("lat")
    histogram.observe(0.0)  # non-positive finite values stay legal
    histogram.observe(-2.0)
    with pytest.raises(ValueError):
        histogram.observe(NAN)
    registry.sample(1.0)
    with pytest.raises(ValueError):
        registry.sample(NAN)
    registry.sample(2.0)
    with pytest.raises(ValueError):
        registry.sample(1.5)  # the time guard still holds after a NaN
    assert histogram.sketch.count == 2 and histogram.sketch.total == -2.0
    assert validate_metrics_payload(parse_metrics_jsonl(registry.jsonl().splitlines())) == []


def test_jsonl_refuses_non_finite_numbers():
    registry = TimeSeriesRegistry()
    gauge = registry.gauge("g")
    registry.sample(0.0)
    gauge.value = INF  # bypassing set(): the exporter is the last line
    registry.sample(1.0)
    with pytest.raises(ValueError):
        registry.jsonl()


class TestValidateMetricsPayload:
    def _sample(self, **over):
        record = {"t": 1.0, "name": "g", "type": "gauge", "value": 2.0}
        record.update(over)
        return record

    def test_container_errors(self):
        assert validate_metrics_payload(42) == [
            "metrics payload is neither a list nor a {'samples': ...} object"
        ]
        assert validate_metrics_payload({}) == [
            "metrics payload has no 'samples' array"
        ]

    def test_per_record_errors(self):
        problems = validate_metrics_payload(
            [
                "not a dict",
                self._sample(name=""),
                self._sample(t=-1.0),
                self._sample(type="summary"),
                self._sample(value="high"),
                self._sample(schema="bogus/9"),
            ]
        )
        joined = "\n".join(problems)
        assert "sample[0]: not an object" in joined
        assert "sample[1]: missing or empty 'name'" in joined
        assert "sample[2]: missing non-negative numeric 't'" in joined
        assert "sample[3]: unknown instrument type 'summary'" in joined
        assert "sample[4]: gauge missing finite numeric 'value'" in joined
        assert "sample[5]: unknown schema tag 'bogus/9'" in joined

    def test_decreasing_timestamps_flagged(self):
        problems = validate_metrics_payload(
            [self._sample(t=5.0), self._sample(t=3.0)]
        )
        assert any("timestamp 3.0 decreases" in p for p in problems)

    def test_counter_monotonicity_flagged(self):
        counter = {"t": 0.0, "name": "c", "type": "counter", "value": 5}
        problems = validate_metrics_payload(
            [counter, {**counter, "t": 1.0, "value": 3}]
        )
        assert any("counter 'c' decreases 5.0 -> 3" in p for p in problems)

    def test_type_flip_flagged(self):
        problems = validate_metrics_payload(
            [
                self._sample(name="x", type="counter"),
                self._sample(name="x", type="gauge", t=2.0),
            ]
        )
        assert any("'x' changes type counter -> gauge" in p for p in problems)

    def test_histogram_shape_checked(self):
        good = {
            "t": 0.0,
            "name": "h",
            "type": "histogram",
            "count": 2,
            "sum": 3.0,
            "quantiles": {"p50": 1.0, "p95": 2.0},
            "window_count": 2,
            "window_quantiles": {"p50": 1.0, "p95": 2.0},
        }
        assert validate_metrics_payload([good]) == []
        problems = validate_metrics_payload(
            [
                {**good, "count": -1},
                {**good, "t": 1.0, "sum": float("nan")},
                {**good, "t": 2.0, "quantiles": {}},
                {**good, "t": 3.0, "quantiles": {"p50": "fast"}},
            ]
        )
        joined = "\n".join(problems)
        assert "integer 'count'" in joined
        assert "finite numeric 'sum'" in joined
        assert "'quantiles' object" in joined
        assert "quantile 'p50' is not a finite number" in joined

    def _histogram_series(self):
        registry = TimeSeriesRegistry()
        histogram = registry.histogram("h")
        registry.sample(0.0)
        for t, values in enumerate(([0.5, 2.0, 9.0], [], [0.1]), start=1):
            for value in values:
                histogram.observe(value)
            registry.sample(float(t))
        return json.loads(json.dumps(parse_metrics_jsonl(registry.jsonl().splitlines())))

    @pytest.mark.parametrize(
        "index, corrupt, message",
        [
            (2, {"count": 2}, "histogram 'h' count decreases 3 -> 2"),
            (1, {"count": 4}, "histogram 'h' window_count 3 != count 4 - previous count 0"),
            (3, {"window_count": 0}, "window_count 0 != count 4 - previous count 3"),
            (0, {"window_count": 1}, "window_count 1 != count 0 - previous count 0"),
            (1, {"window_count": -1}, "histogram missing integer 'window_count' >= 0"),
            (1, {"count": 3.0}, "histogram missing integer 'count' >= 0"),
            (1, {"window_quantiles": None}, "histogram missing 'window_quantiles' object"),
            (
                1,
                {"window_quantiles": {"p50": 1.0, "p95": float("inf"), "p99": 9.0}},
                "window quantile 'p95' is not a finite number",
            ),
            (
                2,
                {"window_quantiles": {"p50": 0.0, "p95": 0.0, "p99": 0.5}},
                "window quantiles of an empty window are not 0",
            ),
            (
                1,
                {"quantiles": {"p50": 2.0, "p95": 1.0, "p99": 9.0}},
                "quantile p95 1.0 is below p50 2.0",
            ),
            (
                1,
                {"window_quantiles": {"p50": 2.0, "p95": 9.0, "p99": 8.0}},
                "window quantile p99 8.0 is below p95 9.0",
            ),
            (1, {"quantiles": {"median": 1.0}}, "quantile key 'median' is not 'p<percent>'"),
        ],
    )
    def test_histogram_series_invariants(self, index, corrupt, message):
        records = self._histogram_series()
        assert validate_metrics_payload(records) == []
        records[index].update(corrupt)
        problems = validate_metrics_payload(records)
        assert any(message in p for p in problems), problems

    def test_histogram_series_are_tracked_per_name(self):
        records = self._histogram_series()
        other = [{**record, "name": "h2"} for record in records]
        merged = [r for pair in zip(records, other) for r in pair]
        assert validate_metrics_payload(merged) == []

    def test_golden_serve_stream_meets_the_series_invariants(self):
        path = Path(__file__).parent / "data" / "golden_serve" / "telemetry" / "metrics.jsonl"
        with path.open(encoding="utf-8") as fh:
            records = parse_metrics_jsonl(fh)
        assert sum(r["type"] == "histogram" for r in records) > 0
        assert validate_metrics_payload(records) == []

    def test_booleans_are_not_numbers(self):
        problems = validate_metrics_payload([self._sample(value=True)])
        assert any("finite numeric 'value'" in p for p in problems)

    def test_exported_registry_stream_is_valid(self):
        registry = TimeSeriesRegistry()
        registry.counter("done").add()
        registry.histogram("lat").observe(0.3)
        for t in (0.0, 1.0, 2.0):
            registry.counter("done").add()
            registry.sample(t)
        payload = json.loads(json.dumps(parse_metrics_jsonl(registry.jsonl().splitlines())))
        assert validate_metrics_payload(payload) == []
