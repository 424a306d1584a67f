"""Deterministic virtual-time event loop for the scheduler service.

The online service (:mod:`repro.serve.service`) is ordinary asyncio
code — coroutines, events, ``asyncio.sleep`` — but its clock is
*virtual*: :class:`VirtualTimeEventLoop` overrides
:meth:`asyncio.AbstractEventLoop.time` with a logical clock that jumps
straight to the next scheduled timer whenever no callback is ready.  A
ten-minute simulated run completes in milliseconds of wall-clock time,
never sleeps, and — because nothing ever waits on real I/O or threads —
is bit-deterministic: the interleaving of service tasks is a pure
function of the timer sequence the service itself created.

This is the serve-layer analogue of the fluid simulator's stance in
:mod:`repro.sim`: execution is modelled, not measured, so runs are
reproducible on any machine and in CI.  Timer ties resolve by heap
order, which is itself a deterministic function of the schedule-call
sequence.

A genuine deadlock (every task blocked, no timer pending) would make a
real event loop hang forever on its selector; the virtual loop raises
:class:`~repro.exceptions.ServiceError` instead, so a service bug fails
fast with a stack trace rather than freezing CI.
"""

from __future__ import annotations

import asyncio
import heapq
from collections.abc import Coroutine
from typing import Any, TypeVar

from repro.exceptions import ServiceError

__all__ = ["VirtualTimeEventLoop", "run_virtual"]

T = TypeVar("T")


class VirtualTimeEventLoop(asyncio.SelectorEventLoop):
    """A selector event loop whose clock is logical, not physical.

    ``loop.time()`` starts at 0.0 and only moves when the loop would
    otherwise wait for a timer: instead of selecting with a timeout, the
    clock jumps to the earliest scheduled deadline.  All asyncio timer
    machinery (``asyncio.sleep``, ``call_later``, timeouts) works
    unchanged on top.

    The loop is intended for pure computation + coordination workloads
    (no sockets, no subprocesses, no executors); anything that blocks on
    real I/O without a timer trips the deadlock guard.
    """

    def __init__(self) -> None:
        super().__init__()
        self._virtual_now = 0.0
        #: Clock jumps taken (one per idle-to-timer skip); telemetry
        #: exposes it as the ``serve_clock_advances`` gauge.
        self.advances = 0

    def time(self) -> float:
        """The current virtual time, in seconds since loop creation."""
        return self._virtual_now

    def _run_once(self) -> None:
        # The whole trick: with no ready callback, jump the clock to the
        # next timer deadline so the base implementation computes a zero
        # select() timeout and fires it immediately.  ``_ready`` and
        # ``_scheduled`` are BaseEventLoop internals, stable across every
        # CPython this package supports (3.10+).
        if not self._ready:
            scheduled = self._scheduled
            # Cancelled timers stay queued until popped.  Jumping to one
            # would leave the base loop a *real* select() timeout up to
            # the next live deadline, so drop them here, exactly as the
            # base loop does (keeping its cancelled count in step).
            while scheduled and scheduled[0]._cancelled:
                self._timer_cancelled_count -= 1
                heapq.heappop(scheduled)._scheduled = False
            if scheduled:
                when = scheduled[0]._when
                if when > self._virtual_now:
                    self._virtual_now = when
                    self.advances += 1
            elif not self._stopping:
                raise ServiceError(
                    "virtual-time deadlock: every task is blocked and no "
                    "timer is pending"
                )
        super()._run_once()


def run_virtual(coro: Coroutine[Any, Any, T]) -> T:
    """Run ``coro`` to completion on a fresh virtual-time loop.

    The loop is created, installed as the thread's current event loop
    for the duration of the run (so ``asyncio.get_event_loop`` inside
    libraries keeps working), and always closed afterwards.  Returns the
    coroutine's result.
    """
    loop = VirtualTimeEventLoop()
    try:
        asyncio.set_event_loop(loop)
        return loop.run_until_complete(coro)
    finally:
        asyncio.set_event_loop(None)
        loop.close()
