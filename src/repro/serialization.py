"""JSON-friendly serialization of scheduling artifacts.

Schedules, operator specs, and experiment series are plain-data friendly;
this module converts them to and from nested dict/list structures that
round-trip through :mod:`json`.  Intended uses: persisting experiment
outputs (the :mod:`repro.store` result entries), diffing schedules
across code versions, and shipping placements to an external executor.

A schedule is written as an operator table plus one index row per site
(see :func:`schedule_to_dict`): every distinct ``(work, t_seq)`` of an
operator's clones appears once, and each site lists its clones, in
placement order, as ``operator#, clone_index, variant#`` triples.  For
example, a two-site schedule with a coordinator and one other clone::

    {"schema": "repro/1", "p": 2, "d": 2,
     "operators": [["scan", [[[2.0, 1.0], 2.5], [[1.0, 1.0], 1.5]]]],
     "sites": [[0, 0, 0], [0, 1, 1]]}

Everything round-trips exactly: floats are preserved bit-for-bit by the
dict representation (JSON serialization is then up to the caller's
formatting choices).  The exception is a result's host time: wall
clock, timers, spans and the store hit/miss counters are not written by
:func:`schedule_result_to_dict` and decode at their defaults.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import TYPE_CHECKING, Any

from repro.exceptions import ConfigurationError, ModelValidationError, ReproError
from repro.core.cloning import OperatorSpec
from repro.core.cluster import ClusterSpec, SiteClass
from repro.core.resource_model import validate_sequential_time
from repro.core.schedule import OperatorHome, PhasedSchedule, Schedule
from repro.core.site import PlacedClone, Site
from repro.core.work_vector import WorkVector
from repro.cost.params import SystemParameters
from repro.engine.result import Instrumentation, ScheduleResult
from repro.obs.names import COUNTER_STORE_HITS, COUNTER_STORE_MISSES

if TYPE_CHECKING:
    # The figure and fault codecs import these when called, so decoding a
    # stored schedule loads neither the experiments nor the simulator.
    from repro.experiments.figures import FigureData
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
    """Serialize a schedule: an operator table plus one index row per site.

    ``operators[i]`` is ``[name, variants]``: the operator's distinct
    ``[components, t_seq]`` pairs in order of first appearance, walking
    the sites in order.  Under EA1 an operator usually has two (the
    coordinator's and every other clone's); a skewed clone is one more.
    Variants are told apart by their exact bits, so ``-0.0`` and ``0.0``
    are two variants and the layout is lossless.  ``sites[j]`` lists site
    ``j``'s clones in placement order as a flat run of
    ``operator#, clone_index, variant#`` triples.
    """
    operators: list[list[Any]] = []
    # name -> (operator#, bits of each variant -> variant#, variants)
    table: dict[str, tuple[int, dict[bytes, int], list[list[Any]]]] = {}
    bits = struct.Struct(f"<{schedule.d + 1}d").pack
    rows = []
    for site in schedule.sites:
        row: list[int] = []
        for clone in site.clones:
            entry = table.get(clone.operator)
            if entry is None:
                entry = table[clone.operator] = (len(operators), {}, [])
                operators.append([clone.operator, entry[2]])
            number, seen, variants = entry
            components = clone.work.components
            key = bits(*components, clone.t_seq)
            variant = seen.get(key)
            if variant is None:
                variant = seen[key] = len(variants)
                variants.append([list(components), clone.t_seq])
            row += (number, clone.clone_index, variant)
        rows.append(row)
    payload = {
        "schema": _SCHEMA,
        "p": schedule.p,
        "d": schedule.d,
        "operators": operators,
        "sites": rows,
    }
    if schedule.disabled_sites:
        payload["disabled_sites"] = sorted(schedule.disabled_sites)
    if not schedule.is_uniform_capacity():
        payload["capacities"] = list(schedule.capacities())
    return payload


def _operator_table(
    operators: Any, d: int
) -> list[list[tuple[str, WorkVector, float, tuple[float, ...]]]]:
    """Validate the operator table once; per operator, its variants as
    ``(name, work, t_seq, components)``.  A ``T_seq`` must be finite and
    in ``[l(W), sum(W)]`` (:func:`validate_sequential_time`)."""
    if type(operators) is not list:
        raise ConfigurationError("malformed schedule payload: 'operators' is not a list")
    table = []
    names: set[str] = set()
    for entry in operators:
        if type(entry) is not list or len(entry) != 2:
            raise ConfigurationError(
                f"malformed schedule payload: operator entry {entry!r}"
            )
        name, variants = entry
        if type(name) is not str or name in names:
            raise ConfigurationError(
                f"malformed schedule payload: operator name {name!r} "
                "is not a string or is listed twice"
            )
        names.add(name)
        if type(variants) is not list or not variants:
            raise ConfigurationError(
                f"malformed schedule payload: {name!r} has no variants"
            )
        decoded = []
        for variant in variants:
            if type(variant) is not list or len(variant) != 2:
                raise ConfigurationError(
                    f"malformed schedule payload: {name!r} variant {variant!r}"
                )
            components, t_seq = variant
            if type(components) is not list:
                raise ConfigurationError(
                    f"malformed schedule payload: {name!r} components {components!r}"
                )
            work = WorkVector(components)
            if work.d != d:
                raise ConfigurationError(
                    f"malformed schedule payload: {name!r} has d={work.d}, "
                    f"schedule has d={d}"
                )
            t_seq = float(t_seq)
            try:
                validate_sequential_time(t_seq, work)
            except ModelValidationError as exc:
                raise ConfigurationError(f"malformed schedule payload: {name!r}: {exc}") from None
            decoded.append((name, work, t_seq, work.components))
        table.append(decoded)
    return table


def schedule_from_dict(payload: dict[str, Any]) -> Schedule:
    """Deserialize a schedule (re-validates constraint (A) on the way).

    Each variant is validated once (:func:`_operator_table`).  Then one
    pass per site row checks each triple (ints, not bools, in range) and
    constraint (A), and folds the site's loads, length, total load and
    ``max T_seq``, the homes and the total work in placement order, as
    :meth:`Schedule.place` does; the state is bit-identical to placing
    clone by clone in site-major order.  The folded sites and schedule
    are adopted as they are (no ``place`` call re-checks them).
    Structural faults raise :class:`~repro.exceptions.ConfigurationError`;
    a second clone of one operator on a site raises
    :class:`~repro.exceptions.SchedulingError`.
    """
    return _schedule_from_dict(payload)[0]


def _schedule_from_dict(payload: dict[str, Any]) -> tuple[Schedule, float]:
    """:func:`schedule_from_dict` plus the schedule's makespan, from the same pass.

    Each site's ``T_site`` is folded as its row is read, so the makespan
    equals :meth:`Schedule.makespan` without a second walk over the sites.
    """
    _check_schema(payload)
    p = int(_expect(payload, "p"))
    d = int(_expect(payload, "d"))
    table = _operator_table(_expect(payload, "operators"), d)
    rows = _expect(payload, "sites")
    if type(rows) is not list or len(rows) != p:
        raise ConfigurationError(
            f"malformed schedule payload: 'sites' must list P={p} rows"
        )
    capacities = payload.get("capacities")
    if capacities is None:
        capacities = [1.0] * p
    elif len(capacities) != p:
        raise ConfigurationError(
            f"malformed schedule payload: {len(capacities)} capacities for P={p}"
        )
    n_operators = len(table)
    homes: dict[str, list[tuple[int, int]]] = {}
    total_work = [0.0] * d
    clone_count = 0
    makespan = 0.0
    sites = []
    for j, row in enumerate(rows):
        if type(row) is not list or len(row) % 3:
            raise ConfigurationError(
                f"malformed schedule payload: site {j} row is not index triples"
            )
        clones: list[PlacedClone] = []
        operators: set[str] = set()
        load = [0.0] * d
        length = total = max_t = 0.0
        it = iter(row)
        for number, clone_index, variant in zip(it, it, it):
            # ``type(...) is int`` also rejects bools; the range checks
            # reject negative indices instead of wrapping around.
            if (
                type(number) is not int
                or not 0 <= number < n_operators
                or type(clone_index) is not int
                or clone_index < 0
            ):
                raise ConfigurationError(
                    f"malformed schedule payload: site {j} has operator# "
                    f"{number!r}, clone index {clone_index!r}"
                )
            variants = table[number]
            if type(variant) is not int or not 0 <= variant < len(variants):
                raise ConfigurationError(
                    f"malformed schedule payload: site {j} has variant# "
                    f"{variant!r} of operator# {number}"
                )
            name, work, t_seq, components = variants[variant]
            if name in operators:
                raise Schedule._constraint_a(j, name)
            operators.add(name)
            clones.append(PlacedClone(name, clone_index, work, t_seq))
            homes.setdefault(name, []).append((clone_index, j))
            for i, c in enumerate(components):
                updated = load[i] + c
                load[i] = updated
                total += c
                total_work[i] += c
                if updated > length:
                    length = updated
            if t_seq > max_t:
                max_t = t_seq
        clone_count += len(clones)
        capacity = float(capacities[j])
        sites.append(
            Site._adopt(j, d, capacity, clones, operators, load, length, total, max_t)
        )
        if clones:
            # Equation (2), as Site.t_site computes it.
            t_site = max(max_t, length) / capacity
            if t_site > makespan:
                makespan = t_site
    schedule = Schedule._adopt(d, sites, homes, total_work, clone_count)
    for j in payload.get("disabled_sites", []):
        schedule.disable_site(int(j))
    return schedule, makespan


def phased_schedule_to_dict(phased: PhasedSchedule) -> dict[str, Any]:
    """Serialize a phased schedule with its labels."""
    return {
        "schema": _SCHEMA,
        "phases": [schedule_to_dict(s) for s in phased.phases],
        "labels": list(phased.labels),
    }


def phased_schedule_from_dict(payload: dict[str, Any]) -> PhasedSchedule:
    """Deserialize a phased schedule."""
    return _phased_schedule_from_dict(payload)[0]


def _phased_schedule_from_dict(
    payload: dict[str, Any],
) -> tuple[PhasedSchedule, list[float]]:
    """:func:`phased_schedule_from_dict` plus each phase's makespan, in order."""
    _check_schema(payload)
    phased = PhasedSchedule()
    makespans: list[float] = []
    labels = list(payload.get("labels", []))
    phases = _expect(payload, "phases")
    for i, item in enumerate(phases):
        label = labels[i] if i < len(labels) else ""
        schedule, makespan = _schedule_from_dict(item)
        phased.append(schedule, label)
        makespans.append(makespan)
    return phased, makespans


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


#: Counters the store leaves out along with the wall clock, timers and
#: spans: the store's own hit/miss tags differ between runs on equal
#: inputs.
_HOST_COUNTERS = frozenset({COUNTER_STORE_HITS, COUNTER_STORE_MISSES})


def _stored_instrumentation_to_dict(inst: Instrumentation) -> dict[str, Any]:
    """The part of ``inst`` equal inputs reproduce (see :data:`_HOST_COUNTERS`)."""
    return {
        "operators_scheduled": inst.operators_scheduled,
        "clones_created": inst.clones_created,
        "bins_opened": inst.bins_opened,
        "counters": {
            name: value
            for name, value in inst.counters.items()
            if name not in _HOST_COUNTERS
        },
    }


def _home(op: str, sites: Any) -> OperatorHome:
    if type(sites) is not list or any(
        type(j) is not int or j < 0 for j in sites
    ):
        raise ConfigurationError(
            f"malformed schedule result payload: home of {op!r} is {sites!r}"
        )
    return OperatorHome(operator=op, site_indices=tuple(sites))


def _degree(op: str, degree: Any) -> int:
    if type(degree) is not int:
        raise ConfigurationError(
            f"malformed schedule result payload: degree of {op!r} is {degree!r}"
        )
    return degree


def schedule_result_to_dict(result: ScheduleResult) -> dict[str, Any]:
    """Serialize a full algorithm result with provenance.

    The attached phased schedule (when present) carries every clone
    placement, so deserialization rebuilds homes, degrees and timelines
    exactly; ``response_time`` is stored explicitly so bound-only
    results round-trip too.

    Only the deterministic instrumentation is written (operator, clone
    and bin counts and the counters other than ``store_hits`` and
    ``store_misses``), so equal inputs give equal bytes: a decoded
    result reports ``wall_clock_seconds == 0.0`` and empty ``timers``
    and ``spans``.
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
        "instrumentation": _stored_instrumentation_to_dict(result.instrumentation),
    }


def schedule_result_from_dict(payload: dict[str, Any]) -> ScheduleResult:
    """Deserialize a full algorithm result.

    Round-trips the makespan, per-phase schedules (hence timelines),
    homes, degrees and the deterministic instrumentation exactly; the
    host fields :func:`schedule_result_to_dict` leaves out come back at
    their defaults.

    Every way a malformed payload can fail — a model error such as a
    negative work component or a duplicated clone, an index or degree
    that is not an int, a ``ValueError``/``TypeError`` from a mistyped
    field, or a stored ``response_time`` that is not exactly the sum of
    the decoded phases' makespans — raises
    :class:`~repro.exceptions.ConfigurationError`, so store readers need
    catch only that one error to treat a corrupt entry as a miss.
    """
    try:
        _check_schema(payload)
        phased_payload = _expect(payload, "phased_schedule")
        response_time = float(_expect(payload, "response_time"))
        phased = None
        if phased_payload is not None:
            phased, makespans = _phased_schedule_from_dict(phased_payload)
            # The same sum, in the same order, as PhasedSchedule.response_time.
            phases_time = sum(makespans)
            if response_time != phases_time:
                raise ConfigurationError(
                    f"malformed schedule result payload: response_time "
                    f"{response_time!r} is not its phases' {phases_time!r}"
                )
        homes = {
            op: _home(op, sites) for op, sites in payload.get("homes", {}).items()
        }
        return ScheduleResult(
            algorithm=str(payload.get("algorithm", "")),
            phased_schedule=phased,
            homes=homes,
            degrees={
                op: _degree(op, v) for op, v in payload.get("degrees", {}).items()
            },
            phase_labels=[str(x) for x in payload.get("phase_labels", [])],
            response_time=response_time,
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
    from repro.sim.faults import FaultSpec

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
    from repro.sim.faults import FaultReport

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
    from repro.experiments.figures import FigureData, Series

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
