"""The unified scheduling engine.

This package is the hub the whole vertical stack plugs into:

* :mod:`repro.engine.registry` — a :class:`Scheduler` protocol and a
  decorator-based registry.  Every scheduling algorithm in the library
  (TREESCHEDULE, the baselines, the Section 7 malleable variant)
  registers itself under a short name; the experiment runner, CLI and
  simulator dispatch through the registry instead of string if-chains.
* :mod:`repro.engine.result` — :class:`ScheduleResult`, the rich result
  object all registered algorithms return: makespan, per-site/per-shelf
  timelines, work-vector totals, granularity decisions, and wall-clock +
  counter instrumentation.
* :mod:`repro.engine.driver` — the generic synchronized-phase driver
  (classify floating vs. rooted operators, apply the join-stage
  granularity rule, pack each shelf).  TREESCHEDULE and the
  one-dimensional and malleable tree schedulers are all thin phase
  packers plugged into this driver.
* :mod:`repro.engine.metrics` — lightweight observability: context-manager
  timers and counters for benchmarks that need to know where
  schedule-construction time goes.

Schedule repair is not an engine concern: it edits one phase
:class:`~repro.core.schedule.Schedule` in place through
:func:`repro.core.reschedule.reschedule_schedule`.
"""

# Core's package imports its tree schedulers, which import the engine
# driver, and the engine's modules import core.  That cycle resolves only
# when core is imported first, so the engine imports it before its own
# modules.
import repro.core  # noqa: F401

from repro.engine.metrics import MetricsRecorder
from repro.engine.registry import (
    RegisteredScheduler,
    ScheduleRequest,
    available_algorithms,
    describe_algorithms,
    get_algorithm,
    register,
)
from repro.engine.result import (
    Instrumentation,
    ScheduleResult,
    ShelfTimeline,
    SiteTimeline,
)

__all__ = [
    "MetricsRecorder",
    "RegisteredScheduler",
    "ScheduleRequest",
    "available_algorithms",
    "describe_algorithms",
    "get_algorithm",
    "register",
    "Instrumentation",
    "ScheduleResult",
    "ShelfTimeline",
    "SiteTimeline",
]
