"""Chrome trace-event / Perfetto JSON export of span trees.

The `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
is the JSON object format both ``chrome://tracing`` and
`ui.perfetto.dev <https://ui.perfetto.dev>`_ load directly:
``{"traceEvents": [...]}`` where each event carries a phase (``ph``),
a microsecond timestamp (``ts``), and process/thread lane ids
(``pid``/``tid``).  This module maps repro artifacts onto it:

* span trees → ``ph:"X"`` complete (duration) events, one per span,
  nested by time inclusion within a lane;
* lane naming → ``ph:"M"`` metadata events (``process_name`` /
  ``thread_name``), so Perfetto shows "scheduler", "site 3", "worker 2"
  instead of raw integers;
* utilization tracks → ``ph:"C"`` counter events (used by the simulator
  timeline exporter in :mod:`repro.obs.timeline`);
* point happenings (fault injections) → ``ph:"i"`` instant events.

Everything here is plain data in/plain data out; :func:`write_trace`
does the one file write.  :func:`validate_trace_events` is the schema
check the test-suite and the CI trace-roundtrip job run against every
emitted ``trace.json``.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Span, Tracer

__all__ = [
    "TRACE_EVENT_PHASES",
    "duration_event",
    "instant_event",
    "counter_event",
    "process_name_event",
    "thread_name_event",
    "span_events",
    "tracer_events",
    "trace_payload",
    "write_trace",
    "validate_trace_events",
]

#: Event phases this exporter emits (a subset of the format).
TRACE_EVENT_PHASES = ("X", "M", "C", "i")

_MICROS = 1e6


def _us(seconds: float) -> float:
    """Seconds → trace-format microseconds (floats are permitted)."""
    return seconds * _MICROS


def duration_event(
    name: str,
    *,
    start: float,
    seconds: float,
    pid: int,
    tid: int,
    cat: str = "span",
    args: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """One ``ph:"X"`` complete event (``start``/``seconds`` in seconds)."""
    event: dict[str, Any] = {
        "name": name,
        "ph": "X",
        "cat": cat,
        "ts": _us(start),
        "dur": _us(max(seconds, 0.0)),
        "pid": pid,
        "tid": tid,
    }
    if args:
        event["args"] = args
    return event


def instant_event(
    name: str,
    *,
    at: float,
    pid: int,
    tid: int,
    cat: str = "fault",
    scope: str = "t",
    args: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """One ``ph:"i"`` instant event (scope ``t``hread/``p``rocess/``g``lobal)."""
    event: dict[str, Any] = {
        "name": name,
        "ph": "i",
        "cat": cat,
        "ts": _us(at),
        "pid": pid,
        "tid": tid,
        "s": scope,
    }
    if args:
        event["args"] = args
    return event


def counter_event(
    name: str,
    *,
    at: float,
    pid: int,
    values: dict[str, float],
    cat: str = "utilization",
) -> dict[str, Any]:
    """One ``ph:"C"`` counter sample (one stacked track per dict key)."""
    return {
        "name": name,
        "ph": "C",
        "cat": cat,
        "ts": _us(at),
        "pid": pid,
        "tid": 0,
        "args": dict(values),
    }


def process_name_event(pid: int, name: str) -> dict[str, Any]:
    """``ph:"M"`` metadata naming process lane ``pid``."""
    return {
        "name": "process_name",
        "ph": "M",
        "pid": pid,
        "tid": 0,
        "args": {"name": name},
    }


def thread_name_event(pid: int, tid: int, name: str) -> dict[str, Any]:
    """``ph:"M"`` metadata naming thread lane ``(pid, tid)``."""
    return {
        "name": "thread_name",
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "args": {"name": name},
    }


def span_events(
    span: "Span",
    *,
    pid: int,
    tid: int,
    base: float,
    cat: str = "span",
) -> list[dict[str, Any]]:
    """Flatten one span tree into ``ph:"X"`` events on lane ``(pid, tid)``.

    ``base`` is the clock value mapped to trace time zero (normally the
    earliest root span start of the run).  Children nest by time
    inclusion, which is exactly how the trace viewers reconstruct the
    hierarchy within a lane.
    """
    events = [
        duration_event(
            span.name,
            start=span.start - base,
            seconds=span.seconds,
            pid=pid,
            tid=tid,
            cat=cat,
            args=dict(span.attributes) if span.attributes else None,
        )
    ]
    for child in span.children:
        events.extend(span_events(child, pid=pid, tid=tid, base=base, cat=cat))
    return events


def tracer_events(
    tracer: "Tracer",
    *,
    pid: int = 0,
    process_name: str = "repro",
    thread_name: str = "run",
) -> list[dict[str, Any]]:
    """Export every root span of ``tracer`` onto one named lane.

    Roots share the process's monotonic clock, so they are laid out at
    their true relative times; trace time zero is the earliest root
    start.
    """
    events = [
        process_name_event(pid, process_name),
        thread_name_event(pid, 0, thread_name),
    ]
    if not tracer.roots:
        return events
    base = min(span.start for span in tracer.roots)
    for root in tracer.roots:
        events.extend(span_events(root, pid=pid, tid=0, base=base))
    return events


def trace_payload(events: list[dict[str, Any]]) -> dict[str, Any]:
    """Wrap events in the JSON-object trace container Perfetto loads."""
    return {"traceEvents": list(events), "displayTimeUnit": "ms"}


def write_trace(path: str, events: list[dict[str, Any]]) -> None:
    """Write ``events`` to ``path`` as a loadable ``trace.json``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace_payload(events), fh, indent=1, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
# Schema validation
# ----------------------------------------------------------------------
def _problem(problems: list[str], index: int, message: str) -> None:
    problems.append(f"event[{index}]: {message}")


def validate_trace_events(payload: Any) -> list[str]:
    """Check ``payload`` against the Chrome trace-event object format.

    Returns a list of human-readable problems (empty when the trace is
    valid).  Checks the container shape and, per event: required keys,
    known phases, numeric non-negative timestamps, integer lane ids,
    ``dur`` on complete events, ``args`` dicts where the phase requires
    them, and the instant-event scope flag.
    """
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["trace payload is not a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["trace payload has no 'traceEvents' array"]
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            _problem(problems, i, "not an object")
            continue
        ph = event.get("ph")
        if ph not in TRACE_EVENT_PHASES:
            _problem(problems, i, f"unknown phase {ph!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            _problem(problems, i, "missing or empty 'name'")
        for lane in ("pid", "tid"):
            if not isinstance(event.get(lane), int):
                _problem(problems, i, f"missing integer {lane!r}")
        if ph != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                _problem(problems, i, "missing non-negative numeric 'ts'")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                _problem(problems, i, "complete event missing 'dur' >= 0")
        if ph in ("M", "C"):
            if not isinstance(event.get("args"), dict):
                _problem(problems, i, f"{ph!r} event missing 'args' object")
        if ph == "C":
            for key, value in event.get("args", {}).items():
                if not isinstance(value, (int, float)):
                    _problem(
                        problems, i, f"counter track {key!r} is not numeric"
                    )
        if ph == "i" and event.get("s") not in ("t", "p", "g"):
            _problem(problems, i, "instant event scope 's' not in t/p/g")
        if "args" in event and not isinstance(event["args"], dict):
            _problem(problems, i, "'args' is not an object")
    return problems
