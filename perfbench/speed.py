"""How fast the host runs Python right now, from a fixed reference loop.

Other tenants of a shared machine slow every process on it for minutes
at a time, and the CPU clock counts that slowdown: on the 2-CPU machine
this benchmark was tuned on, one such episode made the fastest plan
search 1.75x slower for 90 s.  :class:`SpeedProbe` times a fixed loop in
the style of the program's own work (dataclasses in a heap, a sort, a
JSON dump) between passes; it shares no code with ``repro``, so no
change to the program moves it.  In that episode the loop slowed 1.8x
and the ratio of the two fastest times moved 3%.

:func:`normalized_ms` rescales a CPU time by the probe's fastest sample
of the run, so it reads as the milliseconds the same work takes on the
tuning machine when it is quiet.
"""

from __future__ import annotations

import gc
import heapq
import json
import random
import time
from dataclasses import dataclass, field

__all__ = ["REFERENCE_MS", "SpeedProbe", "normalized_ms"]

#: The reference loop's fastest CPU time on the tuning machine when
#: quiet (Python 3.11.7, 2 shared CPUs).  Only the scale of normalized
#: figures depends on it.
REFERENCE_MS = 9.6


@dataclass(order=True)
class _Bin:
    load: float
    index: int
    items: list = field(default_factory=list, compare=False)


class SpeedProbe:
    """Fixed reference work, timed in CPU seconds of this process."""

    TASKS = 6000
    BINS = 64
    #: Loops timed per :meth:`sample`.
    REPEATS = 3

    def __init__(self) -> None:
        rng = random.Random(5)
        self._tasks = [(rng.random(), rng.random(), rng.random()) for _ in range(self.TASKS)]
        self.samples: list[float] = []

    def _loop(self) -> str:
        bins = [_Bin(0.0, i) for i in range(self.BINS)]
        heapq.heapify(bins)
        for task in sorted(self._tasks, key=lambda t: -max(t)):
            target = heapq.heappop(bins)
            target.items.append(task)
            target.load += sum(task)
            heapq.heappush(bins, target)
        return json.dumps([{"i": b.index, "n": len(b.items), "l": b.load} for b in bins])

    def sample(self) -> None:
        """Time the loop :attr:`REPEATS` times, collector off so the size
        of the program's heap does not enter."""
        gc.disable()
        try:
            for _ in range(self.REPEATS):
                started = time.process_time()
                self._loop()
                self.samples.append(time.process_time() - started)
        finally:
            gc.enable()

    @property
    def fastest_ms(self) -> float:
        return 1000.0 * min(self.samples)


def normalized_ms(cpu_ms: float, probe: SpeedProbe) -> float:
    """``cpu_ms`` at the tuning machine's quiet speed."""
    return cpu_ms * REFERENCE_MS / probe.fastest_ms
