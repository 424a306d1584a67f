"""The observability vocabulary: every recorded counter, timer, span and instant name.

Each name the program records is declared exactly once, here, as a
module constant built by :func:`declare` with its kind and a one-line
doc.  Call sites pass the constant, never a string literal, so a typo
fails at import instead of silently creating a counter nobody reads.
The ``KNOWN_*`` sets are derived from the declarations; the
``unknown_*`` checks validate outside input (deserialized results,
trace files) against them.

The same string may be declared under two kinds when both time the
same region: ``pack_vectors``, ``plan_search`` and ``serve`` are each
a :class:`~repro.engine.metrics.MetricsRecorder` timer *and* a span.

Import-weight contract: stdlib only — ``repro.core`` imports this module
at load time.
"""

from __future__ import annotations

from typing import Any, NamedTuple

__all__ = [
    "Declaration",
    "declare",
    "VOCABULARY",
    "KNOWN_COUNTER_NAMES",
    "KNOWN_TIMER_NAMES",
    "KNOWN_SPAN_NAMES",
    "KNOWN_INSTANT_NAMES",
    "INSTANT_NAME_PREFIXES",
    "unknown_metric_names",
    "unknown_span_names",
    "unknown_instant_names",
]

#: Declaration kinds.  An ``instant_prefix`` is the fixed head of a
#: parameterized instant name (a clone label is appended).
KINDS = ("counter", "timer", "span", "instant", "instant_prefix")


class Declaration(NamedTuple):
    """One declared name: its kind, its spelling, and what it records."""

    kind: str
    name: str
    doc: str


_declared: list[Declaration] = []


def declare(kind: str, name: str, doc: str) -> str:
    """Declare ``name`` as a ``kind`` and return it for use at call sites.

    Declarations belong in this module: the derived sets below are
    computed once, when it is imported.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown name kind {kind!r}; expected one of {KINDS}")
    if any(d.kind == kind and d.name == name for d in _declared):
        raise ValueError(f"{kind} name {name!r} declared twice")
    _declared.append(Declaration(kind, name, doc))
    return name


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
COUNTER_PLACEMENT_SCANS = declare(
    "counter", "placement_scans", "Site or heap entries examined while choosing placements."
)
COUNTER_CLONES_PLACED = declare("counter", "clones_placed", "Clones placed by Figure 3 step 3.")
COUNTER_CLONES_PACKED = declare("counter", "clones_packed", "Clone items packed by pack_vectors.")
COUNTER_PHASES = declare("counter", "phases", "Shelves packed by the engine driver.")
COUNTER_FLOATING_OPERATORS = declare(
    "counter", "floating_operators", "Floating operators handed to the phase packer."
)
COUNTER_ROOTED_OPERATORS = declare(
    "counter", "rooted_operators", "Rooted operators handed to the phase packer."
)
COUNTER_FAULTS_INJECTED = declare(
    "counter", "faults_injected", "Faults injected into a simulated execution."
)
COUNTER_WORK_RERUN = declare(
    "counter", "work_rerun", "Stand-alone seconds of work lost to site failures and rerun."
)
COUNTER_STORE_HITS = declare("counter", "store_hits", "Schedule results read from the store.")
COUNTER_STORE_MISSES = declare("counter", "store_misses", "Schedule results computed afresh.")
COUNTER_POINTS_EVALUATED = declare(
    "counter", "points_evaluated", "Sweep points the parallel runner evaluated."
)
COUNTER_POINTS_RETRIED_INLINE = declare(
    "counter", "points_retried_inline", "Sweep points re-run in-process after a pool failure."
)
COUNTER_POINT_STORE_HITS = declare(
    "counter", "point_store_hits", "Sweep-point values read from the store."
)
COUNTER_POINT_STORE_MISSES = declare(
    "counter", "point_store_misses", "Sweep-point values evaluated afresh."
)
COUNTER_RESCHEDULES = declare("counter", "reschedules", "Repair passes applied to a schedule.")
COUNTER_CLONES_MOVED = declare("counter", "clones_moved", "Displaced clones re-placed by repairs.")
COUNTER_SITES_DRAINED = declare("counter", "sites_drained", "Sites taken out of service.")
COUNTER_SITES_RESTORED = declare("counter", "sites_restored", "Sites returned to service.")
COUNTER_SITES_RESIZED = declare("counter", "sites_resized", "Sites whose capacity changed.")
COUNTER_PLANS_ENUMERATED = declare(
    "counter", "plans_enumerated", "Candidate plans generated before deduplication."
)
COUNTER_PLANS_DEDUPED = declare(
    "counter", "plans_deduped", "Duplicate candidates collapsed by canonical plan hashing."
)
COUNTER_PLANS_PRUNED = declare(
    "counter", "plans_pruned", "Candidates the lower-bound screen eliminated unscheduled."
)
COUNTER_PLANS_SCORED = declare(
    "counter", "plans_scored", "Candidates whose exact response time was obtained."
)
COUNTER_PLAN_STORE_HITS = declare(
    "counter", "plan_store_hits", "Candidate scores read from the store."
)
COUNTER_PLAN_STORE_MISSES = declare(
    "counter", "plan_store_misses", "Candidate scores the searcher had to schedule."
)
COUNTER_QUERIES_OFFERED = declare(
    "counter", "queries_offered", "Queries submitted to the service, before admission."
)
COUNTER_QUERIES_ADMITTED = declare(
    "counter", "queries_admitted", "Arrivals enqueued for placement."
)
COUNTER_QUERIES_SHED = declare("counter", "queries_shed", "Arrivals rejected at the hard cap.")
COUNTER_QUERIES_DEFERRED = declare(
    "counter", "queries_deferred", "Batch arrivals parked past the high-water mark."
)
COUNTER_QUERIES_COMPLETED = declare(
    "counter", "queries_completed", "Queries that ran to completion on the pool."
)
COUNTER_TELEMETRY_SAMPLES = declare(
    "counter", "telemetry_samples", "Snapshots taken by the serve telemetry sampler."
)
COUNTER_SLO_BREACHES = declare(
    "counter", "slo_breaches", "Completions that missed their SLO class's latency target."
)

# ----------------------------------------------------------------------
# Timers (wall-clock seconds; repeated regions add up)
# ----------------------------------------------------------------------
TIMER_LIST_SCHEDULE = declare("timer", "list_schedule", "The Figure 3 step-3 placement loop.")
TIMER_PACK_VECTORS = declare("timer", "pack_vectors", "Time inside pack_vectors.")
TIMER_PACK_PHASE = declare("timer", "pack_phase", "Whole shelf-packing calls of the driver.")
TIMER_RESCHEDULE = declare("timer", "reschedule", "Repairing a schedule after a delta.")
TIMER_PLAN_SEARCH = declare("timer", "plan_search", "One whole search_plans call.")
TIMER_SERVE = declare("timer", "serve", "One whole scheduler-service run.")
TIMER_TELEMETRY = declare("timer", "telemetry", "Telemetry sampling inside a service run.")
TIMER_RUN = declare("timer", "run", "Elapsed time of ParallelRunner.run calls.")
TIMER_POINT_SECONDS = declare(
    "timer", "point_seconds", "Summed per-point evaluation time across sweep workers."
)

# ----------------------------------------------------------------------
# Spans (DESIGN.md §2.5 lists their attributes)
# ----------------------------------------------------------------------
SPAN_SCHEDULE = declare("span", "schedule", "One registered-scheduler dispatch.")
SPAN_TREE_SCHEDULE = declare("span", "tree_schedule", "One TREESCHEDULE call.")
SPAN_PHASE_DECOMPOSITION = declare(
    "span", "phase_decomposition", "The driver's shelf decomposition of a task tree."
)
SPAN_SHELF = declare("span", "shelf", "One shelf of the driver.")
SPAN_DEGREE_SELECTION = declare("span", "degree_selection", "Degree selection for one shelf.")
SPAN_PACK = declare("span", "pack", "Packing one shelf.")
SPAN_LIST_PLACEMENT = declare("span", "list_placement", "The Figure 3 list-placement loop.")
SPAN_PACK_VECTORS = declare("span", "pack_vectors", "One pack_vectors call.")
SPAN_SIMULATE_PHASED = declare("span", "simulate_phased", "One phased fluid simulation.")
SPAN_SIMULATE_PHASE = declare("span", "simulate_phase", "One simulated phase.")
SPAN_SWEEP = declare("span", "sweep", "One parallel-runner batch of sweep points.")
SPAN_POINT = declare("span", "point", "One sweep point.")
SPAN_RESCHEDULE_REPAIR = declare("span", "reschedule_repair", "One kernel repair pass.")
SPAN_CAPACITY_CHANGE = declare(
    "span", "capacity_change", "An elastic capacity change applied to a serve pool."
)
SPAN_PLAN_SEARCH = declare("span", "plan_search", "One plan search.")
SPAN_PLAN_ENUMERATE = declare("span", "plan_enumerate", "Candidate enumeration of a search.")
SPAN_PLAN_SCREEN = declare("span", "plan_screen", "Lower bounds for one batch of candidates.")
SPAN_PLAN_SCORE = declare("span", "plan_score", "Scoring one candidate point.")
SPAN_SERVE = declare("span", "serve", "One scheduler-service run.")
SPAN_SERVE_ADMIT = declare("span", "serve_admit", "One admission decision.")
SPAN_SERVE_PLACE = declare("span", "serve_place", "Placing one query on the pool.")
SPAN_SERVE_COMPLETE = declare("span", "serve_complete", "Retiring one completed query.")

# ----------------------------------------------------------------------
# Instant events (ph:"i")
# ----------------------------------------------------------------------
INSTANT_SLOWDOWN = declare("instant", "slowdown", "Onset of an injected site slowdown.")
INSTANT_SITE_FAILURE = declare("instant", "site failure", "An injected site failure.")
INSTANT_SLO_BREACH = declare("instant", "slo_breach", "A completion that missed its SLO.")
INSTANT_STRAGGLER = declare(
    "instant_prefix", "straggler ", "Release of a straggling clone (clone label appended)."
)
INSTANT_SKEW = declare(
    "instant_prefix", "skew ", "Start of a clone with skewed work (clone label appended)."
)

#: Every declaration, in declaration order.
VOCABULARY: tuple[Declaration, ...] = tuple(_declared)


def _names_of(kind: str) -> frozenset[str]:
    return frozenset(d.name for d in VOCABULARY if d.kind == kind)


KNOWN_COUNTER_NAMES = _names_of("counter")
KNOWN_TIMER_NAMES = _names_of("timer")
KNOWN_SPAN_NAMES = _names_of("span")
KNOWN_INSTANT_NAMES = _names_of("instant")
INSTANT_NAME_PREFIXES = tuple(sorted(_names_of("instant_prefix")))


def unknown_metric_names(
    counters: dict[str, float] | Any = (),
    timers: dict[str, float] | Any = (),
) -> set[str]:
    """Recorded metric names outside the known vocabulary.

    Accepts the counter/timer dicts (or any iterable of names) of a
    recorder or a :class:`~repro.engine.result.Instrumentation` and
    returns the names that match neither :data:`KNOWN_COUNTER_NAMES` nor
    :data:`KNOWN_TIMER_NAMES`.
    """
    known = KNOWN_COUNTER_NAMES | KNOWN_TIMER_NAMES
    return {name for name in (*counters, *timers) if name not in known}


def unknown_span_names(spans: Any) -> set[str]:
    """Span names outside :data:`KNOWN_SPAN_NAMES`, recursively.

    Accepts an iterable of span dicts (the relative-offset form of
    :func:`repro.obs.tracer.span_to_dict`, as carried by
    ``ScheduleResult.instrumentation.spans``) and walks their children.
    """
    unknown: set[str] = set()

    def visit(span_dict: Any) -> None:
        if not isinstance(span_dict, dict):
            return
        name = span_dict.get("name")
        if isinstance(name, str) and name not in KNOWN_SPAN_NAMES:
            unknown.add(name)
        for child in span_dict.get("children", ()):
            visit(child)

    for span_dict in spans:
        visit(span_dict)
    return unknown


def unknown_instant_names(events: Any) -> set[str]:
    """Instant-event names outside the known vocabulary.

    Accepts an iterable of trace events (or a ``{"traceEvents": ...}``
    payload) and checks every ``ph:"i"`` event's name against
    :data:`KNOWN_INSTANT_NAMES` plus :data:`INSTANT_NAME_PREFIXES`.
    """
    if isinstance(events, dict):
        events = events.get("traceEvents", ())
    unknown: set[str] = set()
    for event in events:
        if not isinstance(event, dict) or event.get("ph") != "i":
            continue
        name = event.get("name")
        if not isinstance(name, str):
            continue
        if name in KNOWN_INSTANT_NAMES or name.startswith(INSTANT_NAME_PREFIXES):
            continue
        unknown.add(name)
    return unknown
