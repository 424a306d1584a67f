"""JSON-friendly serialization of scheduling artifacts.

Schedules, operator specs, and experiment series are plain-data friendly;
this module converts them to and from nested dict/list structures that
round-trip through :mod:`json`.  Intended uses: persisting experiment
outputs, diffing schedules across code versions, and shipping placements
to an external executor.

Everything round-trips exactly (floats are preserved bit-for-bit by the
dict representation; JSON serialization is then up to the caller's
formatting choices).
"""

from __future__ import annotations

from typing import Any

import dataclasses

from repro.exceptions import ConfigurationError, ReproError
from repro.core.cloning import OperatorSpec
from repro.core.cluster import ClusterSpec, SiteClass
from repro.core.reschedule import ScheduleDelta
from repro.core.schedule import OperatorHome, PhasedSchedule, Schedule
from repro.core.vector_packing import CloneItem
from repro.core.site import PlacedClone
from repro.core.work_vector import WorkVector
from repro.cost.params import SystemParameters
from repro.engine.result import Instrumentation, ScheduleResult
from repro.experiments.figures import FigureData, Series
from repro.sim.faults import FaultReport, FaultSpec

__all__ = [
    "work_vector_to_dict",
    "work_vector_from_dict",
    "operator_spec_to_dict",
    "operator_spec_from_dict",
    "system_parameters_to_dict",
    "system_parameters_from_dict",
    "cluster_spec_to_dict",
    "cluster_spec_from_dict",
    "schedule_to_dict",
    "schedule_from_dict",
    "schedule_delta_to_dict",
    "schedule_delta_from_dict",
    "phased_schedule_to_dict",
    "phased_schedule_from_dict",
    "instrumentation_to_dict",
    "instrumentation_from_dict",
    "schedule_result_to_dict",
    "schedule_result_from_dict",
    "fault_spec_to_dict",
    "fault_spec_from_dict",
    "fault_report_to_dict",
    "fault_report_from_dict",
    "figure_to_dict",
    "figure_from_dict",
]

_SCHEMA = "repro/1"


def _expect(mapping: dict[str, Any], key: str) -> Any:
    try:
        return mapping[key]
    except (KeyError, TypeError):
        raise ConfigurationError(f"malformed payload: missing {key!r}") from None


def _check_schema(payload: dict[str, Any]) -> None:
    """Reject payloads tagged with a foreign schema version.

    Payloads written by this module carry ``"schema": "repro/1"``; a
    different tag means the artifact came from an incompatible writer and
    silently parsing it would produce garbage, so we refuse.  A *missing*
    tag is accepted for compatibility with artifacts written before the
    tag existed (and with hand-built dicts in tests).
    """
    tag = payload.get("schema") if isinstance(payload, dict) else None
    if tag is not None and tag != _SCHEMA:
        raise ConfigurationError(
            f"unsupported payload schema {tag!r} (expected {_SCHEMA!r})"
        )


def work_vector_to_dict(w: WorkVector) -> dict[str, Any]:
    """Serialize a work vector."""
    return {"components": list(w.components)}


def work_vector_from_dict(payload: dict[str, Any]) -> WorkVector:
    """Deserialize a work vector."""
    return WorkVector(_expect(payload, "components"))


def operator_spec_to_dict(spec: OperatorSpec) -> dict[str, Any]:
    """Serialize an operator spec."""
    return {
        "name": spec.name,
        "work": work_vector_to_dict(spec.work),
        "data_volume": spec.data_volume,
    }


def operator_spec_from_dict(payload: dict[str, Any]) -> OperatorSpec:
    """Deserialize an operator spec.

    Like :func:`schedule_result_from_dict`, every way a malformed payload
    can fail — a model error such as a negative work component, or a
    ``ValueError``/``TypeError`` from a mistyped field — raises
    :class:`~repro.exceptions.ConfigurationError`, so a store reader
    treats a corrupt annotation entry as a miss by catching that alone.
    """
    try:
        return OperatorSpec(
            name=_expect(payload, "name"),
            work=work_vector_from_dict(_expect(payload, "work")),
            data_volume=float(payload.get("data_volume", 0.0)),
        )
    except ConfigurationError:
        raise
    except (ReproError, ValueError, TypeError, AttributeError) as exc:
        raise ConfigurationError(
            f"malformed operator spec payload: {type(exc).__name__}: {exc}"
        ) from exc


def system_parameters_to_dict(params: SystemParameters) -> dict[str, Any]:
    """Serialize Table 2 system parameters field-by-field.

    Field order follows the dataclass definition, so the payload is
    deterministic and — combined with canonical JSON — suitable for
    content addressing in :mod:`repro.store`.
    """
    return {f.name: getattr(params, f.name) for f in dataclasses.fields(params)}


def system_parameters_from_dict(payload: dict[str, Any]) -> SystemParameters:
    """Deserialize system parameters (unknown fields rejected)."""
    known = {f.name for f in dataclasses.fields(SystemParameters)}
    extra = set(payload) - known - {"schema"}
    if extra:
        raise ConfigurationError(
            f"malformed SystemParameters payload: unknown fields {sorted(extra)}"
        )
    kwargs = {k: v for k, v in payload.items() if k in known}
    return SystemParameters(**kwargs)


def cluster_spec_to_dict(spec: ClusterSpec) -> dict[str, Any]:
    """Serialize a cluster spec, class by class in declaration order.

    Deterministic (field order fixed, classes ordered), so canonical JSON
    of this payload is what :func:`repro.experiments.runner` hashes into
    store keys for heterogeneous sweep points.
    """
    return {
        "classes": [
            {"name": cls.name, "count": cls.count, "capacity": cls.capacity}
            for cls in spec.classes
        ]
    }


def cluster_spec_from_dict(payload: dict[str, Any]) -> ClusterSpec:
    """Deserialize a cluster spec (re-validates its invariants)."""
    _check_schema(payload)
    return ClusterSpec(
        tuple(
            SiteClass(
                name=_expect(item, "name"),
                count=int(_expect(item, "count")),
                capacity=float(item.get("capacity", 1.0)),
            )
            for item in _expect(payload, "classes")
        )
    )


def schedule_to_dict(schedule: Schedule) -> dict[str, Any]:
    """Serialize a schedule: dimensions plus every clone placement."""
    placements = []
    for site in schedule.sites:
        for clone in site.clones:
            placements.append(
                {
                    "site": site.index,
                    "operator": clone.operator,
                    "clone_index": clone.clone_index,
                    "work": work_vector_to_dict(clone.work),
                    "t_seq": clone.t_seq,
                }
            )
    payload = {
        "schema": _SCHEMA,
        "p": schedule.p,
        "d": schedule.d,
        "placements": placements,
    }
    # Emitted only when non-empty: payloads of schedules that never saw
    # a repair delta stay byte-identical to pre-rescheduling payloads.
    if schedule.disabled_sites:
        payload["disabled_sites"] = sorted(schedule.disabled_sites)
    # Same conditional rule for capacities: uniform (all 1.0) schedules
    # serialize byte-identically to pre-capacity payloads.
    if not schedule.is_uniform_capacity():
        payload["capacities"] = list(schedule.capacities())
    return payload


def schedule_from_dict(payload: dict[str, Any]) -> Schedule:
    """Deserialize a schedule (re-validates constraint (A) on the way)."""
    _check_schema(payload)
    capacities = payload.get("capacities")
    schedule = Schedule(
        int(_expect(payload, "p")),
        int(_expect(payload, "d")),
        None if capacities is None else [float(c) for c in capacities],
    )
    for item in _expect(payload, "placements"):
        schedule.place(
            int(_expect(item, "site")),
            PlacedClone(
                operator=_expect(item, "operator"),
                clone_index=int(_expect(item, "clone_index")),
                work=work_vector_from_dict(_expect(item, "work")),
                t_seq=float(_expect(item, "t_seq")),
            ),
        )
    for j in payload.get("disabled_sites", []):
        schedule.disable_site(int(j))
    return schedule


def schedule_delta_to_dict(delta: ScheduleDelta) -> dict[str, Any]:
    """Serialize a repair delta (also the store-key payload for repairs)."""
    payload = {
        "schema": _SCHEMA,
        "remove_sites": list(delta.remove_sites),
        "restore_sites": list(delta.restore_sites),
        "remove_operators": list(delta.remove_operators),
        "add_items": [
            {
                "operator": item.operator,
                "clone_index": item.clone_index,
                "work": work_vector_to_dict(item.work),
            }
            for item in delta.add_items
        ],
        "phase_index": delta.phase_index,
    }
    # Conditional emission keeps capacity-free deltas — and therefore
    # their store keys — byte-identical to the pre-capacity codec.
    if delta.set_capacities:
        payload["set_capacities"] = [[j, c] for j, c in delta.set_capacities]
    return payload


def schedule_delta_from_dict(payload: dict[str, Any]) -> ScheduleDelta:
    """Deserialize a repair delta (re-validates its invariants)."""
    _check_schema(payload)
    return ScheduleDelta(
        remove_sites=tuple(int(j) for j in payload.get("remove_sites", [])),
        restore_sites=tuple(int(j) for j in payload.get("restore_sites", [])),
        remove_operators=tuple(payload.get("remove_operators", [])),
        add_items=tuple(
            CloneItem(
                operator=_expect(item, "operator"),
                clone_index=int(_expect(item, "clone_index")),
                work=work_vector_from_dict(_expect(item, "work")),
            )
            for item in payload.get("add_items", [])
        ),
        set_capacities=tuple(
            (int(j), float(c)) for j, c in payload.get("set_capacities", [])
        ),
        phase_index=int(payload.get("phase_index", 0)),
    )


def phased_schedule_to_dict(phased: PhasedSchedule) -> dict[str, Any]:
    """Serialize a phased schedule with its labels."""
    return {
        "schema": _SCHEMA,
        "phases": [schedule_to_dict(s) for s in phased.phases],
        "labels": list(phased.labels),
    }


def phased_schedule_from_dict(payload: dict[str, Any]) -> PhasedSchedule:
    """Deserialize a phased schedule."""
    _check_schema(payload)
    phased = PhasedSchedule()
    labels = list(payload.get("labels", []))
    phases = _expect(payload, "phases")
    for i, item in enumerate(phases):
        label = labels[i] if i < len(labels) else ""
        phased.append(schedule_from_dict(item), label)
    return phased


def instrumentation_to_dict(inst: Instrumentation) -> dict[str, Any]:
    """Serialize scheduler-run instrumentation.

    The ``spans`` key (span-tree summaries recorded under an enabled
    tracer) is emitted only when non-empty, so payloads written with
    tracing disabled are byte-identical to pre-tracing payloads.
    """
    payload = {
        "wall_clock_seconds": inst.wall_clock_seconds,
        "operators_scheduled": inst.operators_scheduled,
        "clones_created": inst.clones_created,
        "bins_opened": inst.bins_opened,
        "counters": dict(inst.counters),
        "timers": dict(inst.timers),
    }
    if inst.spans:
        payload["spans"] = [dict(span) for span in inst.spans]
    return payload


def instrumentation_from_dict(payload: dict[str, Any]) -> Instrumentation:
    """Deserialize scheduler-run instrumentation (all fields optional)."""
    return Instrumentation(
        wall_clock_seconds=float(payload.get("wall_clock_seconds", 0.0)),
        operators_scheduled=int(payload.get("operators_scheduled", 0)),
        clones_created=int(payload.get("clones_created", 0)),
        bins_opened=int(payload.get("bins_opened", 0)),
        counters=dict(payload.get("counters", {})),
        timers=dict(payload.get("timers", {})),
        spans=[dict(span) for span in payload.get("spans", [])],
    )


def schedule_result_to_dict(result: ScheduleResult) -> dict[str, Any]:
    """Serialize a full algorithm result with provenance.

    The attached phased schedule (when present) carries every clone
    placement, so deserialization rebuilds homes, degrees and timelines
    exactly; ``response_time`` is stored explicitly so bound-only
    results round-trip too.
    """
    return {
        "schema": _SCHEMA,
        "algorithm": result.algorithm,
        "response_time": result.response_time,
        "phased_schedule": (
            None
            if result.phased_schedule is None
            else phased_schedule_to_dict(result.phased_schedule)
        ),
        "degrees": dict(result.degrees),
        "phase_labels": list(result.phase_labels),
        "homes": {
            op: list(home.site_indices) for op, home in result.homes.items()
        },
        "instrumentation": instrumentation_to_dict(result.instrumentation),
    }


def schedule_result_from_dict(payload: dict[str, Any]) -> ScheduleResult:
    """Deserialize a full algorithm result.

    Round-trips exactly: the makespan, per-phase schedules (hence
    timelines), homes, degrees and instrumentation all reconstruct to
    equal values.

    Every way a malformed payload can fail — a model error such as a
    negative work component or a duplicated clone, or a ``ValueError``/
    ``TypeError`` from a mistyped field — raises
    :class:`~repro.exceptions.ConfigurationError`, so store readers
    need catch only that one error to treat a corrupt entry as a miss.
    """
    try:
        _check_schema(payload)
        phased_payload = _expect(payload, "phased_schedule")
        phased = (
            None
            if phased_payload is None
            else phased_schedule_from_dict(phased_payload)
        )
        homes = {
            op: OperatorHome(operator=op, site_indices=tuple(sites))
            for op, sites in payload.get("homes", {}).items()
        }
        return ScheduleResult(
            algorithm=str(payload.get("algorithm", "")),
            phased_schedule=phased,
            homes=homes,
            degrees={k: int(v) for k, v in payload.get("degrees", {}).items()},
            phase_labels=[str(x) for x in payload.get("phase_labels", [])],
            response_time=float(_expect(payload, "response_time")),
            instrumentation=instrumentation_from_dict(
                payload.get("instrumentation", {})
            ),
        )
    except ConfigurationError:
        raise
    except (ReproError, ValueError, TypeError, AttributeError) as exc:
        raise ConfigurationError(
            f"malformed schedule result payload: {type(exc).__name__}: {exc}"
        ) from exc


def fault_spec_to_dict(spec: FaultSpec) -> dict[str, Any]:
    """Serialize a fault-injection spec (for experiment provenance)."""
    return {
        "schema": _SCHEMA,
        "slowdown_prob": spec.slowdown_prob,
        "slowdown_range": list(spec.slowdown_range),
        "skew_prob": spec.skew_prob,
        "skew_range": list(spec.skew_range),
        "straggler_prob": spec.straggler_prob,
        "straggler_delay_range": list(spec.straggler_delay_range),
        "failure_prob": spec.failure_prob,
        "failure_at_range": list(spec.failure_at_range),
        "restart_delay_range": list(spec.restart_delay_range),
        "epsilon": spec.epsilon,
    }


def fault_spec_from_dict(payload: dict[str, Any]) -> FaultSpec:
    """Deserialize a fault-injection spec (re-validates on construction)."""
    _check_schema(payload)

    def pair(key: str, default: tuple[float, float]) -> tuple[float, float]:
        low, high = payload.get(key, default)
        return (float(low), float(high))

    defaults = FaultSpec.none()
    return FaultSpec(
        slowdown_prob=float(payload.get("slowdown_prob", 0.0)),
        slowdown_range=pair("slowdown_range", defaults.slowdown_range),
        skew_prob=float(payload.get("skew_prob", 0.0)),
        skew_range=pair("skew_range", defaults.skew_range),
        straggler_prob=float(payload.get("straggler_prob", 0.0)),
        straggler_delay_range=pair(
            "straggler_delay_range", defaults.straggler_delay_range
        ),
        failure_prob=float(payload.get("failure_prob", 0.0)),
        failure_at_range=pair("failure_at_range", defaults.failure_at_range),
        restart_delay_range=pair(
            "restart_delay_range", defaults.restart_delay_range
        ),
        epsilon=float(payload.get("epsilon", defaults.epsilon)),
    )


def fault_report_to_dict(report: FaultReport) -> dict[str, Any]:
    """Serialize a simulated execution's fault attribution."""
    return {
        "schema": _SCHEMA,
        "slowdowns": report.slowdowns,
        "skews": report.skews,
        "stragglers": report.stragglers,
        "failures": report.failures,
        "time_lost_slowdown": report.time_lost_slowdown,
        "time_lost_skew": report.time_lost_skew,
        "time_lost_straggler": report.time_lost_straggler,
        "time_lost_failure": report.time_lost_failure,
        "work_rerun": report.work_rerun,
    }


def fault_report_from_dict(payload: dict[str, Any]) -> FaultReport:
    """Deserialize a fault report (all fields optional, default zero)."""
    _check_schema(payload)
    return FaultReport(
        slowdowns=int(payload.get("slowdowns", 0)),
        skews=int(payload.get("skews", 0)),
        stragglers=int(payload.get("stragglers", 0)),
        failures=int(payload.get("failures", 0)),
        time_lost_slowdown=float(payload.get("time_lost_slowdown", 0.0)),
        time_lost_skew=float(payload.get("time_lost_skew", 0.0)),
        time_lost_straggler=float(payload.get("time_lost_straggler", 0.0)),
        time_lost_failure=float(payload.get("time_lost_failure", 0.0)),
        work_rerun=float(payload.get("work_rerun", 0.0)),
    )


def figure_to_dict(figure: FigureData) -> dict[str, Any]:
    """Serialize a regenerated figure's series."""
    return {
        "schema": _SCHEMA,
        "figure_id": figure.figure_id,
        "title": figure.title,
        "x_label": figure.x_label,
        "y_label": figure.y_label,
        "notes": list(figure.notes),
        "series": [
            {"label": s.label, "xs": list(s.xs), "ys": list(s.ys)}
            for s in figure.series
        ],
    }


def figure_from_dict(payload: dict[str, Any]) -> FigureData:
    """Deserialize a figure."""
    _check_schema(payload)
    return FigureData(
        figure_id=_expect(payload, "figure_id"),
        title=_expect(payload, "title"),
        x_label=_expect(payload, "x_label"),
        y_label=_expect(payload, "y_label"),
        notes=tuple(payload.get("notes", ())),
        series=tuple(
            Series(
                label=_expect(s, "label"),
                xs=tuple(_expect(s, "xs")),
                ys=tuple(_expect(s, "ys")),
            )
            for s in _expect(payload, "series")
        ),
    )
