"""Observability: hierarchical span tracing, trace export, run manifests.

The subsystem has these pieces (see DESIGN.md §2.5 for the span
attributes and the trace-format mapping):

:mod:`repro.obs.tracer`
    :class:`Tracer` / :class:`Span` — contextvar-parented, monotonic-
    clock span trees with a strict disabled-is-a-no-op contract, plus
    the ambient-tracer hooks (:func:`current_tracer` / :func:`use_tracer`)
    the rest of the stack consults, and the relative-offset span
    serialization behind cross-process stitching.
:mod:`repro.obs.names`
    The vocabulary: every counter, timer, span and instant name the
    program records, declared once with its kind, plus the derived
    ``KNOWN_*`` sets and the ``unknown_*`` checks over recorded output.
:mod:`repro.obs.export`
    Chrome trace-event / Perfetto JSON export of span forests, and the
    :func:`validate_trace_events` schema check.
:mod:`repro.obs.timeline`
    Simulated-execution, analytic-schedule, and serve-fleet timelines
    rendered into the same trace format (site lanes, utilization
    counters, fault/SLO instants).
:mod:`repro.obs.metrics_stream`
    Zero-dependency time-series instruments (counter/gauge/log-bucket
    histogram) with Prometheus-text and JSONL exposition and the
    :func:`validate_metrics_payload` schema check.
:mod:`repro.obs.session`
    :class:`TraceSession` — the CLI bundle writing ``trace.json``,
    ``events.jsonl`` and a :class:`RunManifest` per run.

Import-weight contract: the package's names resolve on first use, so
``import repro.obs`` loads none of these modules.  The scheduling
kernels import :mod:`repro.obs.tracer` and :mod:`repro.obs.names` at
module load, so the subsystem must stay dependency-light: only the
stdlib and :mod:`repro.store` (itself stdlib-only) are reachable from
here; engine/sim/core types appear solely behind ``TYPE_CHECKING``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".tracer": (
            "Span",
            "Tracer",
            "NULL_TRACER",
            "current_tracer",
            "use_tracer",
            "span_to_dict",
            "span_from_dict",
        ),
        ".export": (
            "TRACE_EVENT_PHASES",
            "span_events",
            "tracer_events",
            "trace_payload",
            "write_trace",
            "validate_trace_events",
        ),
        ".names": (
            "KNOWN_SPAN_NAMES",
            "KNOWN_INSTANT_NAMES",
            "unknown_span_names",
            "unknown_instant_names",
        ),
        ".timeline": ("simulation_events", "schedule_result_events", "fleet_events"),
        ".metrics_stream": (
            "METRICS_SCHEMA",
            "LogBucketSketch",
            "TimeSeriesRegistry",
            "validate_metrics_payload",
        ),
        ".session": (
            "TraceSession",
            "RunManifest",
            "RunLog",
            "collect_point_keys",
            "git_describe",
            "MANIFEST_SCHEMA",
            "TRACE_FILE",
            "EVENTS_FILE",
            "MANIFEST_FILE",
        ),
    },
)
