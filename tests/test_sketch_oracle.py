"""Differential oracle for the incremental telemetry plane.

:class:`~repro.obs.metrics_stream.LogBucketSketch` answers a sample in
O(log B + window): a Fenwick tree serves cumulative quantiles, the
window keeps the buckets it touched, and the counts are running totals.
The reference below is the plain O(B) sketch: it sums every bucket for
each population and scans every bucket for each quantile.  Driven by the
same random observation streams, the two must emit the same sample
records and ``bucket_pairs()`` at every tick, float for float
(``float.hex``).

The SLO monitor's running window hit count is checked the same way
against ``sum(window) / len(window)`` over the last ``window``
completions.
"""

from __future__ import annotations

import math
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.metrics import MetricsRecorder
from repro.obs.metrics_stream import SKETCH_QUANTILES, HistogramInstrument
from repro.serve.telemetry import ServiceTelemetry, SLOTarget, TelemetryConfig


class ReferenceSketch:
    """The O(B) log-bucket sketch: full sums and full scans."""

    def __init__(self, *, lo: float, growth: float, buckets: int) -> None:
        self.lo = lo
        self.growth = growth
        self.boundaries = tuple(lo * growth ** i for i in range(buckets))
        self.counts = [0] * (buckets + 1)
        self.window_counts = [0] * (buckets + 1)
        self.total = 0.0

    def _bucket_index(self, value: float) -> int:
        # Linear search: the first finite boundary at or above the value.
        for i, boundary in enumerate(self.boundaries):
            if value <= boundary:
                return i
        return len(self.boundaries)

    def observe(self, value: float) -> None:
        i = self._bucket_index(value)
        self.counts[i] += 1
        self.window_counts[i] += 1
        self.total += value

    def _quantile_over(self, counts: list[int], q: float) -> float:
        population = sum(counts)
        if population == 0:
            return 0.0
        rank = min(population, max(1, math.ceil(q / 100.0 * population)))
        seen = 0
        for i, bucket_count in enumerate(counts):
            seen += bucket_count
            if seen >= rank:
                return self.boundaries[min(i, len(self.boundaries) - 1)]
        raise AssertionError("rank past the population")

    def record(self) -> dict:
        """The fields of one histogram sample record, then a window mark."""
        out = {
            "count": sum(self.counts),
            "sum": self.total,
            "quantiles": {
                f"p{q:g}": self._quantile_over(self.counts, q) for q in SKETCH_QUANTILES
            },
            "window_count": sum(self.window_counts),
            "window_quantiles": {
                f"p{q:g}": self._quantile_over(self.window_counts, q)
                for q in SKETCH_QUANTILES
            },
        }
        self.window_counts = [0] * len(self.window_counts)
        return out

    def bucket_pairs(self) -> list[tuple[float, int]]:
        pairs = []
        running = 0
        for boundary, bucket_count in zip(self.boundaries, self.counts):
            running += bucket_count
            pairs.append((boundary, running))
        pairs.append((math.inf, running + self.counts[-1]))
        return pairs


def hexed(value):
    """Floats as ``float.hex`` (recursively), so equality is bitwise."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: hexed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [hexed(item) for item in value]
    return value


SKETCH_SHAPES = st.tuples(
    st.sampled_from([1e-3, 0.5, 1.0, 3.0]),
    st.sampled_from([2.0 ** 0.25, 1.1, 2.0, 10.0]),
    st.sampled_from([1, 2, 3, 8, 96]),
)


def observations(boundaries: tuple[float, ...]):
    """Values at or below ``lo``, on boundaries, inside and past the range."""
    lo, top = boundaries[0], boundaries[-1]
    return st.one_of(
        st.floats(min_value=-5.0, max_value=lo),
        st.sampled_from(boundaries),
        st.floats(min_value=lo, max_value=top),
        st.floats(min_value=top, max_value=top * 50.0),
    )


@settings(max_examples=150, deadline=None)
@given(shape=SKETCH_SHAPES, data=st.data())
def test_sketch_records_match_the_full_scan(shape, data):
    lo, growth, buckets = shape
    instrument = HistogramInstrument("h", lo=lo, growth=growth, buckets=buckets)
    sketch = instrument.sketch
    reference = ReferenceSketch(lo=lo, growth=growth, buckets=buckets)
    assert sketch.boundaries == reference.boundaries
    values = observations(sketch.boundaries)
    ticks = data.draw(st.lists(st.lists(values, max_size=12), min_size=1, max_size=12))
    for t, batch in enumerate(ticks):
        for value in batch:
            instrument.observe(value)
            reference.observe(value)
        assert hexed(sketch.bucket_pairs()) == hexed(reference.bucket_pairs())
        # Quantiles in any order, before the sample closes the window.
        qs = data.draw(st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=4))
        assert hexed(sketch.quantiles(qs)) == hexed(
            [reference._quantile_over(reference.counts, q) for q in qs]
        )
        assert hexed(sketch.window_quantiles(qs)) == hexed(
            [reference._quantile_over(reference.window_counts, q) for q in qs]
        )
        record = instrument.sample_record(float(t))
        expected = reference.record()
        assert hexed({key: record[key] for key in expected}) == hexed(expected)
        assert sketch.window_count == 0
        assert sketch.window_counts == [0] * (buckets + 1)


def bare_telemetry(window: int, objective: float) -> ServiceTelemetry:
    """A telemetry plane with no service behind it: only the SLO hooks run."""
    slo = SLOTarget(target=10.0, objective=objective)
    config = TelemetryConfig(window=window, latency_slo=slo, batch_slo=slo)
    return ServiceTelemetry(
        config,
        p=1,
        admission=None,
        pool=None,
        governor=None,
        executor=None,
        metrics=MetricsRecorder(),
    )


@settings(max_examples=150, deadline=None)
@given(
    window=st.integers(min_value=1, max_value=8),
    objective=st.sampled_from([0.5, 0.8, 0.9, 0.99]),
    completions=st.lists(
        st.tuples(st.sampled_from(["latency", "batch"]), st.sampled_from([1.0, 10.0, 10.5])),
        max_size=40,
    ),
)
def test_attainment_matches_the_window_sum(window, objective, completions):
    telemetry = bare_telemetry(window, objective)
    outcomes = {"latency": deque(maxlen=window), "batch": deque(maxlen=window)}
    for at, (slo, latency) in enumerate(completions):
        telemetry.on_completed(f"q{at}", slo, latency, float(at))
        outcomes[slo].append(latency <= 10.0)
        for cls, last in outcomes.items():
            expected = sum(last) / len(last) if last else 1.0
            assert telemetry.attainment(cls).hex() == expected.hex()
            burn = (1.0 - expected) / (1.0 - objective)
            assert telemetry.burn_rate(cls).hex() == burn.hex()
