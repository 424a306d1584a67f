"""Zero-dependency time-series metrics: instruments, sketches, exposition.

The tracing subsystem (PR 5) captures *spans* — one timed region per
event.  The serve layer additionally needs *continuous* signals: queue
depths, pool utilization, governor pressure, per-class latency
percentiles, each sampled on the service's **virtual** clock so the
stream is a deterministic function of the run config.  This module is
the storage and exposition layer for those signals; the sampling policy
itself lives in :mod:`repro.serve.telemetry`.

Three instrument kinds, mirroring the Prometheus data model:

:class:`CounterInstrument`
    Monotone non-decreasing total (completions, sheds).  Attempting to
    move one backwards raises — the validator re-checks monotonicity on
    the exported stream.
:class:`GaugeInstrument`
    A value that goes both ways (queue depth, pressure, utilization).
:class:`HistogramInstrument`
    A deterministic fixed-boundary **log-bucket sketch**
    (:class:`LogBucketSketch`): bucket ``i`` covers
    ``(lo·growth^(i-1), lo·growth^i]``, so a quantile query returns the
    upper boundary of the bucket holding the exact nearest-rank order
    statistic — never more than one ``growth`` factor above the true
    value.  No stored samples, no randomness, O(buckets) memory.
    Supports both cumulative and *windowed* quantiles (observations
    since the previous sample tick).  One sample of a histogram costs
    O(log B + w) for ``B`` buckets and ``w`` observations in the window:
    a Fenwick tree over the bucket counts serves each cumulative
    quantile, and the window walks and clears only the buckets it
    touched.

Every instrument rejects NaN and infinite values at the call, and
:meth:`TimeSeriesRegistry.jsonl` refuses to write a non-finite number,
so the JSONL stream stays valid JSON.

A :class:`TimeSeriesRegistry` owns the instruments and the sample
stream: :meth:`TimeSeriesRegistry.sample` appends one plain-dict record
per instrument at an explicit timestamp (the caller's virtual clock).
Two exposition formats are built in:

* :meth:`TimeSeriesRegistry.prometheus_text` — the Prometheus text
  snapshot of final instrument states (``# HELP``/``# TYPE``,
  cumulative ``_bucket{le=...}`` lines for histograms);
* :meth:`TimeSeriesRegistry.jsonl` — the full sample stream, one JSON
  object per line, schema-checked by :func:`validate_metrics_payload`
  exactly as :func:`repro.obs.export.validate_trace_events` checks
  trace files.

Import-weight contract: stdlib only (this module is reachable from
``import repro.obs``).
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable

__all__ = [
    "METRICS_SCHEMA",
    "INSTRUMENT_TYPES",
    "LogBucketSketch",
    "CounterInstrument",
    "GaugeInstrument",
    "HistogramInstrument",
    "TimeSeriesRegistry",
    "validate_metrics_payload",
]

#: Schema tag stamped on every exported sample record.
METRICS_SCHEMA = "repro-metrics/1"

#: Instrument kinds the registry (and the validator) know.
INSTRUMENT_TYPES = ("counter", "gauge", "histogram")

#: Quantiles recorded per histogram sample (cumulative and windowed).
SKETCH_QUANTILES = (50.0, 95.0, 99.0)

#: Record keys of :data:`SKETCH_QUANTILES` (``"p50"``, ``"p95"``, ``"p99"``).
_QUANTILE_KEYS = tuple(f"p{q:g}" for q in SKETCH_QUANTILES)


def _finite_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _fmt(value: float) -> str:
    """Deterministic Prometheus-text number rendering."""
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _fenwick_path(k: int, size: int) -> Iterable[int]:
    while k < size:
        yield k
        k += k & -k


class LogBucketSketch:
    """Deterministic log-bucket histogram sketch.

    Finite bucket ``i`` (``0 <= i < buckets``) has upper boundary
    ``lo * growth**i``; bucket 0 additionally absorbs everything in
    ``(0, lo]`` (and any non-positive observation), and one overflow
    bucket catches values past the largest finite boundary.  With the
    defaults (``lo=1e-3``, ``growth=2**0.25``, 96 buckets) the finite
    range tops out at ``1e-3 * 2**23.75`` ≈ 1.4e4 seconds with a
    guaranteed relative quantile error of at most ``growth - 1`` ≈ 19%.
    Observations must be finite; NaN and infinities raise ``ValueError``.

    :meth:`quantile` uses the same nearest-rank rule as
    ``ServiceReport`` (``rank = max(1, ceil(q/100 · count))``), so the
    exact order statistic lands in the bucket whose upper boundary the
    sketch returns: ``exact <= sketch <= exact * growth`` for any
    observation above ``lo``.  The overflow bucket reports the largest
    finite boundary.

    Cost, with ``B`` buckets and ``w`` observations in the current
    window: :meth:`observe` is O(log B) (one Fenwick-tree update over the
    cumulative counts); :attr:`count` and :attr:`window_count` are O(1);
    a cumulative quantile is one O(log B) Fenwick descent; the window
    quantiles walk only the buckets the window touched, in index order
    (O(w log w) for any number of quantiles); and :meth:`mark_window`
    clears only those buckets.  One sample of all
    :data:`SKETCH_QUANTILES` therefore costs O(log B + w), not O(B) per
    quantile.
    """

    __slots__ = (
        "lo",
        "growth",
        "boundaries",
        "counts",
        "window_counts",
        "count",
        "total",
        "_upper",
        "_tree",
        "_tree_paths",
        "_log_growth",
        "_touched",
        "_window_count",
    )

    def __init__(self, *, lo: float = 1e-3, growth: float = 2.0 ** 0.25, buckets: int = 96) -> None:
        if not lo > 0.0 or not math.isfinite(lo):
            raise ValueError(f"lo must be a positive finite number, got {lo!r}")
        if not growth > 1.0 or not math.isfinite(growth):
            raise ValueError(f"growth must be > 1, got {growth!r}")
        if buckets < 1:
            raise ValueError(f"need at least one bucket, got {buckets}")
        self.lo = float(lo)
        self.growth = float(growth)
        #: Upper boundaries of the finite buckets, strictly increasing.
        self.boundaries: tuple[float, ...] = tuple(
            self.lo * self.growth ** i for i in range(buckets)
        )
        # One extra slot is the overflow (+Inf) bucket.
        self.counts = [0] * (buckets + 1)
        self.window_counts = [0] * (buckets + 1)
        self.count = 0
        self.total = 0.0
        # The value a quantile reports per bucket: its upper boundary,
        # and the largest finite one for the overflow bucket.
        self._upper = self.boundaries + (self.boundaries[-1],)
        # Fenwick tree over ``counts``, 1-based: node k holds the count
        # of buckets (k - lowbit(k), k].  Padding it to a power of two
        # spares the descent a bounds check: every prefix past the last
        # bucket counts all observations, which no rank exceeds.
        self._tree = [0] * (1 << (buckets + 1).bit_length())
        # The nodes an observation in bucket i increments: i+1, then up
        # by the lowest set bit.
        self._tree_paths = tuple(
            tuple(_fenwick_path(i + 1, len(self._tree))) for i in range(buckets + 1)
        )
        self._log_growth = math.log(self.growth)
        # Buckets the current window has touched, each listed once.
        self._touched: list[int] = []
        self._window_count = 0

    def _bucket_index(self, value: float) -> int:
        boundaries = self.boundaries
        top = len(boundaries) - 1
        if value <= self.lo:
            return 0
        if value > boundaries[top]:
            return top + 1
        # ceil(log_growth(value / lo)), nudged so exact boundaries map to
        # their own bucket; the linear confirm step keeps float log noise
        # from ever crossing a boundary.
        i = math.ceil(math.log(value / self.lo) / self._log_growth - 1e-12)
        if i > top:
            i = top
        elif i < 0:
            i = 0
        while i > 0 and value <= boundaries[i - 1]:
            i -= 1
        while value > boundaries[i]:
            i += 1
        return i

    def observe(self, value: float) -> None:
        """Record one observation (cumulative and current window)."""
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"observation must be finite, got {value!r}")
        i = self._bucket_index(value)
        self.counts[i] += 1
        if not self.window_counts[i]:
            self._touched.append(i)
        self.window_counts[i] += 1
        self._window_count += 1
        self.count += 1
        self.total += value
        tree = self._tree
        for k in self._tree_paths[i]:
            tree[k] += 1

    def mark_window(self) -> None:
        """Close the current window (called at each sample tick)."""
        window_counts = self.window_counts
        for i in self._touched:
            window_counts[i] = 0
        self._touched.clear()
        self._window_count = 0

    @staticmethod
    def _ranks(qs: Iterable[float], population: int) -> list[int]:
        """Nearest ranks ``min(population, max(1, ceil(q/100 · population)))``."""
        ranks = []
        for q in qs:
            rank = math.ceil(q / 100.0 * population)
            # Comparisons, not min()/max(): the same value at a third of the cost.
            ranks.append(population if rank > population else rank if rank > 1 else 1)
        return ranks

    def quantiles(self, qs: Iterable[float] = SKETCH_QUANTILES) -> list[float]:
        """Cumulative nearest-rank quantiles (``qs`` in percent).

        One Fenwick descent per quantile: the answer is the first bucket
        whose prefix count reaches the rank.
        """
        if not self.count:
            return [0.0 for _ in qs]
        tree = self._tree
        upper = self._upper
        out = []
        for rank in self._ranks(qs, self.count):
            # Find the largest ``pos`` whose prefix count is below the
            # rank; bucket ``pos`` (0-based) then holds the rank.
            pos = 0
            step = len(tree) >> 1
            while step:
                below = tree[pos + step]
                if below < rank:
                    pos += step
                    rank -= below
                step >>= 1
            out.append(upper[pos])
        return out

    def window_quantiles(self, qs: Iterable[float] = SKETCH_QUANTILES) -> list[float]:
        """Quantiles over the observations since the last window mark.

        One walk over the touched buckets, in index order, answers
        ascending ``qs``; a rank below the walk's position restarts it.
        """
        if not self._window_count:
            return [0.0 for _ in qs]
        touched = self._touched
        touched.sort()
        window_counts = self.window_counts
        upper = self._upper
        out = []
        seen = 0
        j = 0
        i = touched[0]
        for rank in self._ranks(qs, self._window_count):
            if rank <= seen - window_counts[i]:
                seen = j = 0
            while seen < rank:
                i = touched[j]
                seen += window_counts[i]
                j += 1
            out.append(upper[i])
        return out

    def quantile(self, q: float) -> float:
        """Cumulative nearest-rank quantile (``q`` in percent)."""
        return self.quantiles((q,))[0]

    def window_quantile(self, q: float) -> float:
        """Quantile over the observations since the last window mark."""
        return self.window_quantiles((q,))[0]

    @property
    def window_count(self) -> int:
        """Observations recorded since the last window mark."""
        return self._window_count

    def bucket_pairs(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_boundary, count)`` pairs, +Inf last."""
        pairs: list[tuple[float, int]] = []
        running = 0
        for boundary, bucket_count in zip(self.boundaries, self.counts):
            running += bucket_count
            pairs.append((boundary, running))
        pairs.append((math.inf, running + self.counts[-1]))
        return pairs


class _Instrument:
    """Shared naming/help plumbing of the three instrument kinds."""

    kind = ""

    def __init__(self, name: str, help_text: str) -> None:
        self.name = name
        self.help = help_text

    def sample_record(self, at: float) -> dict[str, Any]:
        raise NotImplementedError

    def prometheus_lines(self) -> list[str]:
        raise NotImplementedError

    def _header(self) -> list[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines


class CounterInstrument(_Instrument):
    """Monotone non-decreasing total."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = "") -> None:
        super().__init__(name, help_text)
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        """Increase the total (negative amounts are a caller bug)."""
        if not math.isfinite(amount):
            raise ValueError(f"counter {self.name!r} needs a finite amount, got {amount!r}")
        if amount < 0.0:
            raise ValueError(f"counter {self.name!r} cannot decrease (add {amount})")
        self.value += float(amount)

    def set_total(self, total: float) -> None:
        """Jump to an externally tracked total (mirroring a recorder).

        Still monotone: totals below the current value raise.
        """
        if not math.isfinite(total):
            raise ValueError(f"counter {self.name!r} needs a finite total, got {total!r}")
        if total < self.value:
            raise ValueError(
                f"counter {self.name!r} cannot go from {self.value} back to {total}"
            )
        self.value = float(total)

    def sample_record(self, at: float) -> dict[str, Any]:
        return {"t": at, "name": self.name, "type": self.kind, "value": self.value}

    def prometheus_lines(self) -> list[str]:
        return [*self._header(), f"{self.name} {_fmt(self.value)}"]


class GaugeInstrument(_Instrument):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str = "") -> None:
        super().__init__(name, help_text)
        self.value = 0.0

    def set(self, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError(f"gauge {self.name!r} needs a finite value, got {value!r}")
        self.value = float(value)

    def sample_record(self, at: float) -> dict[str, Any]:
        return {"t": at, "name": self.name, "type": self.kind, "value": self.value}

    def prometheus_lines(self) -> list[str]:
        return [*self._header(), f"{self.name} {_fmt(self.value)}"]


class HistogramInstrument(_Instrument):
    """A :class:`LogBucketSketch` with instrument naming on top."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        *,
        lo: float = 1e-3,
        growth: float = 2.0 ** 0.25,
        buckets: int = 96,
    ) -> None:
        super().__init__(name, help_text)
        self.sketch = LogBucketSketch(lo=lo, growth=growth, buckets=buckets)
        # The last cumulative quantiles and the count they were taken at:
        # they move only when the count does.
        self._quantiles = dict.fromkeys(_QUANTILE_KEYS, 0.0)
        self._quantiles_count = 0

    def observe(self, value: float) -> None:
        try:
            self.sketch.observe(value)
        except ValueError as exc:
            raise ValueError(f"histogram {self.name!r}: {exc}") from None

    def quantile(self, q: float) -> float:
        return self.sketch.quantile(q)

    def sample_record(self, at: float) -> dict[str, Any]:
        sketch = self.sketch
        count = sketch.count
        if count != self._quantiles_count:
            self._quantiles = dict(zip(_QUANTILE_KEYS, sketch.quantiles()))
            self._quantiles_count = count
        window_count = sketch.window_count
        record: dict[str, Any] = {
            "t": at,
            "name": self.name,
            "type": self.kind,
            "count": count,
            "sum": sketch.total,
            "quantiles": self._quantiles.copy(),
            "window_count": window_count,
            "window_quantiles": (
                dict(zip(_QUANTILE_KEYS, sketch.window_quantiles()))
                if window_count
                else dict.fromkeys(_QUANTILE_KEYS, 0.0)
            ),
        }
        sketch.mark_window()
        return record

    def prometheus_lines(self) -> list[str]:
        lines = self._header()
        for boundary, cumulative in self.sketch.bucket_pairs():
            le = "+Inf" if math.isinf(boundary) else _fmt(boundary)
            lines.append(f'{self.name}_bucket{{le="{le}"}} {cumulative}')
        lines.append(f"{self.name}_sum {_fmt(self.sketch.total)}")
        lines.append(f"{self.name}_count {self.sketch.count}")
        return lines


class TimeSeriesRegistry:
    """Named instruments plus the timestamped sample stream they feed.

    Instruments register on first use (``counter``/``gauge``/
    ``histogram`` are get-or-create; re-registering a name as a
    different kind raises).  :meth:`sample` appends one record per
    instrument, in registration order, at the caller-supplied timestamp
    — virtual seconds in the serve layer, so two identical runs produce
    byte-identical streams.  Timestamps must be non-decreasing.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}
        self.samples: list[dict[str, Any]] = []
        self._last_at: float | None = None

    def _get(self, name: str, factory, kind: str, help_text: str, **kwargs) -> Any:
        instrument = self._instruments.get(name)
        if instrument is None:
            if not name:
                raise ValueError("instrument name must be non-empty")
            instrument = factory(name, help_text, **kwargs)
            self._instruments[name] = instrument
        elif instrument.kind != kind:
            raise ValueError(
                f"instrument {name!r} is a {instrument.kind}, not a {kind}"
            )
        return instrument

    def counter(self, name: str, help_text: str = "") -> CounterInstrument:
        return self._get(name, CounterInstrument, "counter", help_text)

    def gauge(self, name: str, help_text: str = "") -> GaugeInstrument:
        return self._get(name, GaugeInstrument, "gauge", help_text)

    def histogram(self, name: str, help_text: str = "", **kwargs) -> HistogramInstrument:
        return self._get(name, HistogramInstrument, "histogram", help_text, **kwargs)

    @property
    def instruments(self) -> tuple[_Instrument, ...]:
        """Registered instruments, in registration order."""
        return tuple(self._instruments.values())

    @property
    def last_sample_at(self) -> float | None:
        """Timestamp of the most recent sample (``None`` before any)."""
        return self._last_at

    def sample(self, at: float) -> int:
        """Record one sample per instrument at time ``at``; returns count.

        Histogram windows close at each call, so the next sample's
        ``window_*`` fields cover exactly the observations in between.
        """
        at = float(at)
        if not math.isfinite(at):
            raise ValueError(f"metrics registry sample time must be finite, got {at!r}")
        if self._last_at is not None and at < self._last_at:
            raise ValueError(
                f"sample times must be non-decreasing ({at} after {self._last_at})"
            )
        self._last_at = at
        self.samples += [instrument.sample_record(at) for instrument in self._instruments.values()]
        return len(self._instruments)

    def series(self, name: str) -> list[dict[str, Any]]:
        """All recorded samples of one instrument, in time order."""
        return [record for record in self.samples if record["name"] == name]

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------
    def prometheus_text(self) -> str:
        """Prometheus text snapshot of the final instrument states."""
        lines: list[str] = []
        for name in sorted(self._instruments):
            lines.extend(self._instruments[name].prometheus_lines())
        return "\n".join(lines) + ("\n" if lines else "")

    def jsonl(self) -> str:
        """The whole sample stream, one schema-tagged JSON object per line."""
        return "".join(
            json.dumps({"schema": METRICS_SCHEMA, **record}, sort_keys=True, allow_nan=False)
            + "\n"
            for record in self.samples
        )

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.jsonl())

    def write_prometheus(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.prometheus_text())

    def __repr__(self) -> str:
        return (
            f"TimeSeriesRegistry({len(self._instruments)} instruments, "
            f"{len(self.samples)} samples)"
        )


# ----------------------------------------------------------------------
# Schema validation (the metrics analogue of validate_trace_events)
# ----------------------------------------------------------------------
def _problem(problems: list[str], index: int, message: str) -> None:
    problems.append(f"sample[{index}]: {message}")


def validate_metrics_payload(payload: Any) -> list[str]:
    """Check an exported metrics stream against the sample schema.

    Accepts either a list of sample records (parsed JSONL lines) or a
    ``{"samples": [...]}`` container.  Returns human-readable problems
    (empty when valid).  Per record: schema tag (when present), a
    non-negative numeric ``t``, a non-empty ``name``, a known ``type``,
    a finite ``value`` for counters/gauges, and for histograms an integer
    ``count`` and ``window_count``, a finite ``sum``, and ``quantiles``
    and ``window_quantiles`` maps of finite values, non-decreasing from
    p50 to p99, all 0 when the window is empty.  Across the stream:
    timestamps are non-decreasing, every counter series is monotone,
    every histogram ``count`` series never decreases, and each
    ``window_count`` is the growth of ``count`` since the series'
    previous sample (its whole ``count`` in the first) — the invariants
    the virtual-clock sampler guarantees by construction.
    """
    problems: list[str] = []
    if isinstance(payload, dict):
        samples = payload.get("samples")
        if not isinstance(samples, list):
            return ["metrics payload has no 'samples' array"]
    elif isinstance(payload, list):
        samples = payload
    else:
        return ["metrics payload is neither a list nor a {'samples': ...} object"]

    last_t: float | None = None
    counter_totals: dict[str, float] = {}
    histogram_counts: dict[str, int] = {}
    declared_types: dict[str, str] = {}
    for i, record in enumerate(samples):
        if not isinstance(record, dict):
            _problem(problems, i, "not an object")
            continue
        schema = record.get("schema")
        if schema is not None and schema != METRICS_SCHEMA:
            _problem(problems, i, f"unknown schema tag {schema!r}")
        name = record.get("name")
        if not isinstance(name, str) or not name:
            _problem(problems, i, "missing or empty 'name'")
            continue
        t = record.get("t")
        if not _finite_number(t) or t < 0:
            _problem(problems, i, "missing non-negative numeric 't'")
        else:
            if last_t is not None and t < last_t:
                _problem(problems, i, f"timestamp {t} decreases (was {last_t})")
            last_t = float(t)
        kind = record.get("type")
        if kind not in INSTRUMENT_TYPES:
            _problem(problems, i, f"unknown instrument type {kind!r}")
            continue
        previous_kind = declared_types.setdefault(name, kind)
        if previous_kind != kind:
            _problem(
                problems, i, f"{name!r} changes type {previous_kind} -> {kind}"
            )
            continue
        if kind in ("counter", "gauge"):
            value = record.get("value")
            if not _finite_number(value):
                _problem(problems, i, f"{kind} missing finite numeric 'value'")
            elif kind == "counter":
                previous = counter_totals.get(name)
                if previous is not None and value < previous:
                    _problem(
                        problems,
                        i,
                        f"counter {name!r} decreases {previous} -> {value}",
                    )
                counter_totals[name] = float(value)
        else:  # histogram
            count = record.get("count")
            window_count = record.get("window_count")
            if not _count(count):
                _problem(problems, i, "histogram missing integer 'count' >= 0")
            else:
                previous = histogram_counts.get(name, 0)
                if count < previous:
                    _problem(
                        problems, i, f"histogram {name!r} count decreases {previous} -> {count}"
                    )
                elif _count(window_count) and window_count != count - previous:
                    _problem(
                        problems,
                        i,
                        f"histogram {name!r} window_count {window_count} != "
                        f"count {count} - previous count {previous}",
                    )
                histogram_counts[name] = count
            if not _count(window_count):
                _problem(problems, i, "histogram missing integer 'window_count' >= 0")
            if not _finite_number(record.get("sum")):
                _problem(problems, i, "histogram missing finite numeric 'sum'")
            _check_quantiles(problems, i, record, "quantiles", "quantile")
            window = _check_quantiles(
                problems, i, record, "window_quantiles", "window quantile"
            )
            if window_count == 0 and any(value != 0 for value in window):
                _problem(problems, i, "window quantiles of an empty window are not 0")
    return problems


def _count(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _check_quantiles(
    problems: list[str], index: int, record: dict, field: str, label: str
) -> list[float]:
    """Check a histogram's ``{"p<percent>": value}`` map; return its values.

    Values must be finite and non-decreasing in the percent.
    """
    quantiles = record.get(field)
    if not isinstance(quantiles, dict) or not quantiles:
        _problem(problems, index, f"histogram missing {field!r} object")
        return []
    ranked: list[tuple[float, str, float]] = []
    for key, value in quantiles.items():
        if not _finite_number(value):
            _problem(problems, index, f"{label} {key!r} is not a finite number")
            continue
        try:
            percent = float(key[1:]) if isinstance(key, str) and key[:1] == "p" else math.nan
        except ValueError:
            percent = math.nan
        if not 0.0 <= percent <= 100.0:
            _problem(problems, index, f"{label} key {key!r} is not 'p<percent>'")
            continue
        ranked.append((percent, key, value))
    ranked.sort()
    for (_, low_key, low), (_, high_key, high) in zip(ranked, ranked[1:]):
        if high < low:
            _problem(
                problems, index, f"{label} {high_key} {high} is below {low_key} {low}"
            )
    return [value for _, _, value in ranked]


def parse_metrics_jsonl(lines: "Iterable[str]") -> list[dict[str, Any]]:
    """Parse JSONL text lines back into sample records (blank-safe)."""
    return [json.loads(line) for line in lines if line.strip()]
