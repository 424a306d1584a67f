"""Lightweight observability hooks for schedule construction.

A :class:`MetricsRecorder` accumulates named counters and wall-clock
timers with near-zero overhead, so benchmarks can ask *where* schedule
construction time goes (phase decomposition vs. degree selection vs.
list packing) without a profiler.  Every name it records is declared
in :mod:`repro.obs.names`.

The recorder is deliberately dumb: plain dicts, no locks, no global
state.  Callers that do not care pass ``metrics=None`` and every hook
degrades to a no-op.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager
from typing import Any

__all__ = ["MetricsRecorder"]


class MetricsRecorder:
    """Accumulate counters and timers during schedule construction.

    Examples
    --------
    >>> metrics = MetricsRecorder()
    >>> with metrics.timer("pack"):
    ...     metrics.count("clones", 3)
    >>> metrics.counters["clones"]
    3.0
    >>> metrics.timers["pack"] >= 0.0
    True
    """

    __slots__ = ("counters", "timers")

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.timers: dict[str, float] = {}

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``name`` (created at zero)."""
        self.counters[name] = self.counters.get(name, 0.0) + amount

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Accumulate the wall-clock time of the ``with`` body into ``name``.

        Timings come from :func:`time.perf_counter` — a *monotonic*
        clock, so a single recorder's timer is guaranteed non-negative
        and unaffected by wall-clock adjustments.  Timers are
        **additive**: nested or repeated ``with`` bodies sum, which is
        the right semantics within one process (total CPU-side residence
        time in a region).
        """
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.timers[name] = self.timers.get(name, 0.0) + elapsed

    def merge(self, other: MetricsRecorder) -> None:
        """Fold another recorder's counters and timers into this one.

        Both add.  Summed timers of *concurrently running* workers count
        worker-seconds, not elapsed time: four workers each busy for 10s
        merge to 40s of ``point_seconds``.
        """
        for name, value in other.counters.items():
            self.count(name, value)
        for name, value in other.timers.items():
            self.timers[name] = self.timers.get(name, 0.0) + value

    def snapshot(self) -> dict[str, Any]:
        """Return a plain-dict snapshot (counters and timers, copied)."""
        return {"counters": dict(self.counters), "timers": dict(self.timers)}

    def __repr__(self) -> str:
        return (
            f"MetricsRecorder(counters={len(self.counters)}, "
            f"timers={len(self.timers)})"
        )
