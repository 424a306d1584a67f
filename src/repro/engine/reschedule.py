"""Engine-level incremental rescheduling entry point.

:func:`repro.core.reschedule.reschedule_schedule` repairs a bare
:class:`~repro.core.schedule.Schedule` in place; this module lifts that
to the engine's result surface: :func:`reschedule` takes the
:class:`~repro.engine.result.ScheduleResult` a registered algorithm
produced, applies a :class:`~repro.core.reschedule.ScheduleDelta` to one
of its phases, and returns a *new* result with homes, degrees,
timelines and instrumentation re-derived — the same shape every other
dispatch path yields, so downstream consumers (simulator validation,
serialization, figure sweeps) need no special casing.

Repair strategies are pluggable through the rescheduler registry
(:func:`repro.engine.registry.register_rescheduler`); the built-in
``"repair"`` strategy is the core drain-and-re-place pass.

Store integration: a repaired result cached under ``REPRO_CACHE_DIR``
must never alias the cold result it was derived from, nor a repair of
the same base under a different delta.  :func:`reschedule_store_payload`
therefore keys repaired results by ``(strategy, base key, serialized
delta)`` — the delta is part of the content address.
"""

from __future__ import annotations

import time

from repro.exceptions import SchedulingError
from repro.core.reschedule import (
    RescheduleStats,
    ScheduleDelta,
    reschedule_schedule,
)
from repro.core.schedule import PhasedSchedule
from repro.core.vector_packing import PlacementRule, SortKey
from repro.engine.metrics import MetricsRecorder
from repro.engine.registry import get_rescheduler, register_rescheduler
from repro.engine.result import Instrumentation, ScheduleResult
from repro.obs.names import (
    COUNTER_CLONES_MOVED,
    COUNTER_RESCHEDULES,
    COUNTER_SITES_DRAINED,
    COUNTER_SITES_RESIZED,
    COUNTER_SITES_RESTORED,
    SPAN_RESCHEDULE,
    TIMER_RESCHEDULE,
)

__all__ = [
    "reschedule",
    "reschedule_cached",
    "reschedule_store_payload",
]


@register_rescheduler("repair")
def _repair(schedule, delta, *, overlap, sort, rule, metrics):
    """The built-in strategy: drain, re-sort, re-place via the site heap."""
    return reschedule_schedule(
        schedule, delta, overlap=overlap, sort=sort, rule=rule, metrics=metrics
    )


def reschedule(
    prev_result: ScheduleResult,
    delta: ScheduleDelta,
    *,
    overlap,
    name: str = "repair",
    sort: SortKey = SortKey.MAX_COMPONENT,
    rule: PlacementRule = PlacementRule.LEAST_LOADED_LENGTH,
    mutate: bool = False,
    metrics: MetricsRecorder | None = None,
) -> ScheduleResult:
    """Repair one phase of ``prev_result`` and return the new result.

    By default the affected phase is copied first
    (:meth:`Schedule.copy <repro.core.schedule.Schedule.copy>`), so
    ``prev_result`` stays valid — the fault-recovery flow holds on to
    both the degraded and the repaired schedule.  Pass ``mutate=True``
    to repair the phase in place and skip the copy (the hot path when
    the previous result is disposable).

    The returned result keeps the base result's ``algorithm`` name and
    phase labels; homes and degrees are re-derived from the repaired
    placement, and the repair's counters
    (``reschedules``/``clones_moved``/``sites_drained``/``sites_restored``/
    ``placement_scans``) land in its instrumentation alongside a
    ``reschedule`` wall-clock timer.

    Raises
    ------
    SchedulingError
        For bound-only results, an out-of-range phase index, an unknown
        strategy name, or a delta that does not apply.
    """
    phased = prev_result.phased_schedule
    if phased is None:
        raise SchedulingError(
            f"cannot reschedule the bound-only result of "
            f"{prev_result.algorithm!r}"
        )
    if not 0 <= delta.phase_index < phased.num_phases:
        raise SchedulingError(
            f"delta targets phase {delta.phase_index}; result has "
            f"{phased.num_phases} phases"
        )
    strategy = get_rescheduler(name)
    # A private recorder keeps this result's instrumentation scoped to
    # the repair itself; the caller's recorder (if any) gets the same
    # numbers folded in afterwards.
    recorder = MetricsRecorder()

    target = phased.phases[delta.phase_index]
    if not mutate:
        target = target.copy()
    started = time.perf_counter()
    # Root span of the repair, mirroring the registry's "schedule" root:
    # the core repair nests its "reschedule_repair" span underneath, and
    # the span tree lands in the new result's instrumentation.
    from repro.obs.tracer import current_tracer, span_to_dict

    with current_tracer().span(
        SPAN_RESCHEDULE,
        strategy=name,
        algorithm=prev_result.algorithm,
        phase=delta.phase_index,
    ) as span:
        stats: RescheduleStats = strategy(
            target, delta, overlap=overlap, sort=sort, rule=rule, metrics=recorder
        )
    wall = time.perf_counter() - started
    if metrics is not None:
        metrics.merge(recorder)

    new_phased = PhasedSchedule()
    for k, (schedule, label) in enumerate(zip(phased.phases, phased.labels)):
        new_phased.append(target if k == delta.phase_index else schedule, label)

    inst = Instrumentation(wall_clock_seconds=wall)
    inst.counters.update(recorder.counters)
    inst.timers.update(recorder.timers)
    # Guarantee the headline repair counters are present even when the
    # strategy did not thread the recorder through.
    inst.counters.setdefault(COUNTER_RESCHEDULES, 1.0)
    inst.counters.setdefault(COUNTER_CLONES_MOVED, float(stats.clones_moved))
    inst.counters.setdefault(COUNTER_SITES_DRAINED, float(stats.sites_drained))
    inst.counters.setdefault(COUNTER_SITES_RESTORED, float(stats.sites_restored))
    # Only when the delta actually resized sites: keeps instrumentation of
    # capacity-free repairs byte-identical to the pre-capacity engine.
    if stats.sites_resized:
        inst.counters.setdefault(COUNTER_SITES_RESIZED, float(stats.sites_resized))
    inst.timers.setdefault(TIMER_RESCHEDULE, wall)

    result = ScheduleResult(
        algorithm=prev_result.algorithm,
        phased_schedule=new_phased,
        phase_labels=list(prev_result.phase_labels),
        instrumentation=inst,
    )
    result.degrees = {op: home.degree for op, home in result.homes.items()}
    if span is not None:
        span.attributes["response_time"] = result.response_time
        result.instrumentation.spans.append(span_to_dict(span))
    return result


def reschedule_store_payload(
    base_key: str, delta: ScheduleDelta, name: str = "repair"
) -> dict:
    """Content-address payload for a repaired result.

    Incorporates the repair strategy, the *base* result's store key and
    the full serialized delta, so a repaired result can never collide
    with its cold base (different payload shape) or with a repair of the
    same base under any other delta.
    """
    from repro.serialization import schedule_delta_to_dict

    return {
        "reschedule": name,
        "base": base_key,
        "delta": schedule_delta_to_dict(delta),
    }


def reschedule_cached(
    prev_result: ScheduleResult,
    delta: ScheduleDelta,
    *,
    overlap,
    base_key: str,
    store,
    name: str = "repair",
    sort: SortKey = SortKey.MAX_COMPONENT,
    rule: PlacementRule = PlacementRule.LEAST_LOADED_LENGTH,
    metrics: MetricsRecorder | None = None,
) -> ScheduleResult:
    """:func:`reschedule` with artifact-store caching.

    ``base_key`` is the store key of ``prev_result`` (the one the runner
    cached the cold result under); the repaired result is cached under
    the delta-qualified :func:`reschedule_store_payload` key.  Hits skip
    the repair entirely.
    """
    from repro.serialization import (
        schedule_result_from_dict,
        schedule_result_to_dict,
    )
    from repro.store import KIND_RESULT

    payload = reschedule_store_payload(base_key, delta, name)
    key = store.key(KIND_RESULT, payload)
    cached = store.get(KIND_RESULT, key)
    if cached is not None:
        return schedule_result_from_dict(cached)
    result = reschedule(
        prev_result,
        delta,
        overlap=overlap,
        name=name,
        sort=sort,
        rule=rule,
        metrics=metrics,
    )
    store.put(KIND_RESULT, key, schedule_result_to_dict(result))
    return result
