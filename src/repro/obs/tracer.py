"""Zero-dependency hierarchical span tracer.

A :class:`Span` is one timed region of execution — schedule construction,
one shelf packing, one simulated phase, one sweep point — with a name,
JSON-safe attributes, and children.  A :class:`Tracer` collects span
trees: entering ``tracer.span("shelf", label=...)`` opens a child of the
*current* span (propagated through a :mod:`contextvars` variable, so
nesting follows the call stack even through generators and callbacks) and
closing it records a monotonic-clock duration (:func:`time.perf_counter`,
the same clock :class:`~repro.engine.metrics.MetricsRecorder` timers use).

Design constraints, in order:

1. **A disabled tracer is a no-op.**  ``Tracer(enabled=False).span(...)``
   returns a shared, allocation-free context manager; it never reads the
   clock, never touches the contextvar, and never allocates a
   :class:`Span`.  Library code can therefore call the ambient tracer
   unconditionally — the fast path costs one attribute check.
2. **Bounded overhead when enabled.**  One ``perf_counter`` call on
   enter, one on exit, one contextvar set/reset pair, one small object.
   No locks, no I/O, no string formatting until export.
3. **Serializable.**  :func:`span_to_dict` flattens a span tree into
   plain dicts with *relative* offsets (children are offset from their
   parent's start), so trees survive pickling across process boundaries
   and can be re-rooted onto a different clock base with
   :func:`span_from_dict` — the mechanism behind the parallel runner's
   cross-process span stitching.

The tracer *absorbs* the historical :class:`MetricsRecorder` as its
counter/timer backend: ``tracer.count(...)`` and ``tracer.timer(...)``
delegate to :attr:`Tracer.metrics`, so call sites that only have a tracer
still feed the same counter vocabulary (:mod:`repro.obs.names`) the
kernels use.

Ambient activation
------------------
:func:`use_tracer` installs a tracer in a context variable and
:func:`current_tracer` retrieves it (default: the shared disabled
:data:`NULL_TRACER`).  The scheduling kernels, driver, simulator and
runner all consult the ambient tracer, so enabling tracing is one
``with use_tracer(Tracer()):`` at the top of a run — no signature churn
through six layers of the stack.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.metrics import MetricsRecorder

__all__ = [
    "Span",
    "Tracer",
    "NULL_TRACER",
    "current_tracer",
    "use_tracer",
    "span_to_dict",
    "span_from_dict",
]


@dataclass
class Span:
    """One timed, named, attributed region of execution.

    Attributes
    ----------
    name:
        Span name, declared in :mod:`repro.obs.names`.
    start:
        :func:`time.perf_counter` value at entry (monotonic; comparable
        only to other spans recorded in the same process).
    end:
        Clock value at exit; ``None`` while the span is open.
    attributes:
        JSON-safe key/value annotations (algorithm name, ``p``, shelf
        label, cache key, ...).
    children:
        Completed sub-spans, in completion order.
    """

    name: str
    start: float
    end: float | None = None
    attributes: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        """Span duration (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def iter_spans(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first, parents first."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.seconds:.6f}s, "
            f"{len(self.children)} children)"
        )


class _NullSpanHandle:
    """The shared context manager a disabled tracer hands out.

    Allocation-free: one module-level instance serves every disabled
    ``span()`` call, yields ``None``, and swallows nothing (exceptions
    propagate untouched).
    """

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_HANDLE = _NullSpanHandle()

#: The open span the next ``tracer.span(...)`` call will parent under,
#: paired with the tracer that owns it.  Spans parent only under spans
#: of the *same* tracer: when two tracers are live in one context (the
#: parallel runner's inline path opens a fresh local tracer inside the
#: ambient one), each builds its own tree instead of leaking spans into
#: the other's.
_CURRENT_SPAN: ContextVar["tuple[Tracer, Span] | None"] = ContextVar(
    "repro_obs_current_span", default=None
)


class Tracer:
    """Collects hierarchical spans plus counter/timer metrics.

    Parameters
    ----------
    enabled:
        ``False`` turns every operation into a no-op (see module docs).
    metrics:
        Counter/timer backend; an owned
        :class:`~repro.engine.metrics.MetricsRecorder` is created lazily
        for enabled tracers so a disabled tracer allocates nothing.
    """

    __slots__ = ("enabled", "roots", "_metrics")

    def __init__(
        self, enabled: bool = True, *, metrics: "MetricsRecorder | None" = None
    ) -> None:
        self.enabled = enabled
        #: Completed top-level spans, in completion order.
        self.roots: list[Span] = []
        self._metrics = metrics

    @property
    def metrics(self) -> "MetricsRecorder":
        """The tracer's counter/timer backend (created on first use)."""
        if self._metrics is None:
            # Deferred so importing repro.obs never drags the engine
            # package in (core modules import repro.obs, the engine
            # imports core — a module-level import would cycle).
            from repro.engine.metrics import MetricsRecorder

            self._metrics = MetricsRecorder()
        return self._metrics

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: Any):
        """Open a child span of the current span (context manager).

        Yields the open :class:`Span` (mutate ``.attributes`` freely
        before exit) — or ``None`` when the tracer is disabled.
        """
        if not self.enabled:
            return _NULL_HANDLE
        return self._record(name, attributes)

    @contextmanager
    def _record(self, name: str, attributes: dict[str, Any]) -> Iterator[Span]:
        parent = self._current_span()
        span = Span(name=name, start=time.perf_counter(), attributes=attributes)
        token = _CURRENT_SPAN.set((self, span))
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            _CURRENT_SPAN.reset(token)
            if parent is not None:
                parent.children.append(span)
            else:
                self.roots.append(span)

    def _current_span(self) -> Span | None:
        """The open span *of this tracer* in the current context."""
        current = _CURRENT_SPAN.get()
        if current is None or current[0] is not self:
            return None
        return current[1]

    def adopt(self, span: Span) -> None:
        """Attach an externally built span tree under the current span.

        Used by the parallel runner to re-root span trees serialized by
        worker processes; a disabled tracer drops the span.
        """
        if not self.enabled:
            return
        parent = self._current_span()
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)

    # ------------------------------------------------------------------
    # Counter/timer backend (the absorbed MetricsRecorder surface)
    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1.0) -> None:
        """Add to a counter on the backend recorder (no-op when disabled)."""
        if self.enabled:
            self.metrics.count(name, amount)

    def timer(self, name: str):
        """Accumulating wall-clock timer context (no-op when disabled)."""
        if not self.enabled:
            return _NULL_HANDLE
        return self.metrics.timer(name)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def iter_spans(self) -> Iterator[Span]:
        """Every recorded span, depth-first over all roots."""
        for root in self.roots:
            yield from root.iter_spans()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-name aggregate: span count and total seconds.

        The span-tree summary embedded in run manifests; sorted by name
        so the output is deterministic regardless of completion order.
        """
        totals: dict[str, dict[str, float]] = {}
        for span in self.iter_spans():
            entry = totals.setdefault(span.name, {"count": 0, "seconds": 0.0})
            entry["count"] += 1
            entry["seconds"] += span.seconds
        return {name: totals[name] for name in sorted(totals)}

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"Tracer({state}, {len(self.roots)} roots)"


#: The shared disabled tracer: the ambient default everywhere.
NULL_TRACER = Tracer(enabled=False)

_ACTIVE_TRACER: ContextVar[Tracer] = ContextVar(
    "repro_obs_active_tracer", default=NULL_TRACER
)


def current_tracer() -> Tracer:
    """The ambient tracer (:data:`NULL_TRACER` unless one is installed)."""
    return _ACTIVE_TRACER.get()


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` as the ambient tracer for the ``with`` body."""
    token = _ACTIVE_TRACER.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE_TRACER.reset(token)


# ----------------------------------------------------------------------
# Serialization (cross-process span stitching)
# ----------------------------------------------------------------------
def span_to_dict(span: Span, *, base: float | None = None) -> dict[str, Any]:
    """Flatten a span tree into plain dicts with relative offsets.

    ``offset`` is the span's start relative to ``base`` (its parent's
    start; the root defaults to offset 0), so the dict carries no
    process-local clock values and can be re-rooted anywhere.
    """
    base = span.start if base is None else base
    return {
        "name": span.name,
        "offset": span.start - base,
        "seconds": span.seconds,
        "attributes": dict(span.attributes),
        "children": [
            span_to_dict(child, base=span.start) for child in span.children
        ],
    }


def span_from_dict(payload: dict[str, Any], *, base: float = 0.0) -> Span:
    """Rebuild a :func:`span_to_dict` tree on a new clock base.

    ``base`` becomes the absolute start of the root's parent frame: the
    rebuilt root starts at ``base + payload["offset"]``.  Used by the
    parallel runner to graft worker span trees onto the parent process's
    timeline.
    """
    start = base + float(payload.get("offset", 0.0))
    span = Span(
        name=str(payload.get("name", "")),
        start=start,
        end=start + float(payload.get("seconds", 0.0)),
        attributes=dict(payload.get("attributes", {})),
    )
    span.children = [
        span_from_dict(child, base=start) for child in payload.get("children", [])
    ]
    return span
