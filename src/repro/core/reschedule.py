"""Incremental rescheduling: repair an existing schedule after a delta.

The paper's schedulers are *offline*: they pack a fixed set of clones
onto a fixed set of sites.  At the scale this kernel layer targets
(``n = 10^4`` operators over ``p = 10^3`` sites) a site failure mid-run
should not force a cold re-pack of the whole shelf — the repair only
has to move the clones the event actually displaced.

A :class:`ScheduleDelta` names what changed: sites removed from service
(failed), sites restored (recovered), operators withdrawn, and new clone
items appended.  :func:`reschedule_schedule` applies the delta to a
:class:`~repro.core.schedule.Schedule` *in place*:

1. failed sites are drained (their clones become pending again) and
   disabled, recovered sites are re-enabled, withdrawn operators are
   removed wherever they reside;
2. the pending clones — displaced plus newly added — are re-sorted with
   the usual :class:`~repro.core.vector_packing.SortKey` and placed on
   the *enabled* sites only, by the shelf packer's own placement step:
   under ``LEAST_LOADED_LENGTH`` each run of one operator's consecutive
   clones takes its sites in one pass of the lazy
   :class:`~repro.core.placement_heap.SiteHeap`
   (:func:`~repro.core.placement_heap.place_runs`), so repair cost is
   O(moved · log p), not O(n · p); ``FIRST_FIT`` and
   ``MIN_RESULTING_LENGTH`` scan the enabled sites.

Determinism: the repaired schedule is byte-identical to
:func:`reschedule_reference` — a naive oracle that replays the surviving
placements onto a fresh schedule and packs the pending clones with the
rescanning reference rule — asserted by the golden reschedule tests.
For an append-only delta under ``SortKey.INPUT_ORDER`` the repair also
equals cold-packing the concatenated item list, which pins down the
"repair == re-pack of the mutated input" contract exactly.

Only deterministic placement rules are supported: ``ROUND_ROBIN`` and
``RANDOM`` carry hidden state (cursor position, RNG stream) that a
repair cannot reconstruct, so they are rejected before the delta is
applied.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

from repro.exceptions import SchedulingError
from repro.core.placement_heap import SiteHeap
from repro.core.resource_model import OverlapModel
from repro.core.schedule import Schedule
from repro.core.site import PlacedClone
from repro.core.vector_packing import (
    CloneItem,
    PlacementRule,
    SortKey,
    _choose_site_reference,
    _place_sorted,
    _sorted_items,
)
from repro.obs.names import (
    COUNTER_CLONES_MOVED,
    COUNTER_PLACEMENT_SCANS,
    COUNTER_RESCHEDULES,
    COUNTER_SITES_DRAINED,
    COUNTER_SITES_RESIZED,
    COUNTER_SITES_RESTORED,
    SPAN_RESCHEDULE_REPAIR,
    TIMER_RESCHEDULE,
)
from repro.obs.tracer import current_tracer

#: The deterministic rules a repair can replay against an existing schedule.
_REPAIR_RULES = (
    PlacementRule.LEAST_LOADED_LENGTH,
    PlacementRule.FIRST_FIT,
    PlacementRule.MIN_RESULTING_LENGTH,
)

__all__ = [
    "ScheduleDelta",
    "RescheduleStats",
    "reschedule_schedule",
    "reschedule_reference",
]


@dataclass(frozen=True)
class ScheduleDelta:
    """One repair event against one :class:`~repro.core.schedule.Schedule`.

    A delta carries no phase: to repair phase ``k`` of a
    :class:`~repro.core.schedule.PhasedSchedule`, pass
    ``phased.phases[k]`` (or a copy of it) to :func:`reschedule_schedule`.

    Attributes
    ----------
    remove_sites:
        Sites taken out of service; their resident clones are displaced
        and must be re-placed elsewhere.
    restore_sites:
        Previously disabled sites returned to service (eligible for
        placements again; nothing is proactively migrated onto them).
    remove_operators:
        Operators withdrawn entirely (e.g. a cancelled query); their
        clones are dropped, not re-placed.
    add_items:
        New clone items appended to the phase.
    set_capacities:
        ``(site_index, new_capacity)`` pairs — the elasticity primitive.
        A capacity change is *in-place*: resident clones stay where they
        are (their raw loads are capacity-independent), only the site's
        time contribution and its attractiveness to subsequent
        placements change.  Mid-serve scale-up/down therefore costs
        O(moved · log p) for whatever the same delta displaces, never a
        cold re-pack.
    """

    remove_sites: tuple[int, ...] = ()
    restore_sites: tuple[int, ...] = ()
    remove_operators: tuple[str, ...] = ()
    add_items: tuple[CloneItem, ...] = ()
    set_capacities: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "remove_sites", tuple(self.remove_sites))
        object.__setattr__(self, "restore_sites", tuple(self.restore_sites))
        object.__setattr__(self, "remove_operators", tuple(self.remove_operators))
        object.__setattr__(self, "add_items", tuple(self.add_items))
        object.__setattr__(
            self,
            "set_capacities",
            tuple((int(j), float(c)) for j, c in self.set_capacities),
        )
        resized = [j for j, _ in self.set_capacities]
        if len(set(resized)) != len(resized):
            raise SchedulingError(
                f"delta resizes a site twice: {resized}"
            )
        for j, c in self.set_capacities:
            if not c > 0.0 or c != c or c == float("inf"):
                raise SchedulingError(
                    f"delta sets site {j} capacity to {c!r}; must be "
                    "positive and finite"
                )
        for name, seq in (
            ("remove_sites", self.remove_sites),
            ("restore_sites", self.restore_sites),
            ("remove_operators", self.remove_operators),
        ):
            if len(set(seq)) != len(seq):
                raise SchedulingError(f"delta repeats entries in {name}: {seq}")
        overlap_sites = set(self.remove_sites) & set(self.restore_sites)
        if overlap_sites:
            raise SchedulingError(
                f"delta both removes and restores sites {sorted(overlap_sites)}"
            )
        seen: set[tuple[str, int]] = set()
        for item in self.add_items:
            key = (item.operator, item.clone_index)
            if key in seen:
                raise SchedulingError(
                    f"delta adds clone {item.clone_index} of "
                    f"{item.operator!r} twice"
                )
            seen.add(key)

    @property
    def is_empty(self) -> bool:
        """True when applying the delta is a no-op."""
        return not (
            self.remove_sites
            or self.restore_sites
            or self.remove_operators
            or self.add_items
            or self.set_capacities
        )


@dataclass(frozen=True)
class RescheduleStats:
    """What one :func:`reschedule_schedule` call actually did.

    Attributes
    ----------
    clones_moved:
        Displaced clones re-placed on surviving sites (withdrawn
        operators' clones are dropped, not moved).
    clones_added:
        Newly appended clones placed.
    operators_removed:
        Operators fully withdrawn from the schedule.
    sites_drained, sites_restored:
        Sites taken out of / returned to service.
    sites_resized:
        Sites whose capacity the delta changed in place.
    placement_scans:
        Heap entries (or linear probes) examined while re-placing —
        the repair-cost analogue of the packing ``placement_scans``
        counter; for a small delta this stays far below the cold
        re-pack's count.
    """

    clones_moved: int = 0
    clones_added: int = 0
    operators_removed: int = 0
    sites_drained: int = 0
    sites_restored: int = 0
    sites_resized: int = 0
    placement_scans: int = 0

    @property
    def clones_placed(self) -> int:
        """Total clones the repair placed (moved + added)."""
        return self.clones_moved + self.clones_added


def _validate_delta_against(schedule: Schedule, delta: ScheduleDelta) -> None:
    disabled = schedule.disabled_sites
    for j in delta.remove_sites:
        if not 0 <= j < schedule.p:
            raise SchedulingError(
                f"delta removes site {j}, outside 0..{schedule.p - 1}"
            )
        if j in disabled:
            raise SchedulingError(f"delta removes site {j}, already out of service")
    for j in delta.restore_sites:
        if not 0 <= j < schedule.p:
            raise SchedulingError(
                f"delta restores site {j}, outside 0..{schedule.p - 1}"
            )
        if j not in disabled:
            raise SchedulingError(f"delta restores site {j}, which is in service")
    for j, _ in delta.set_capacities:
        if not 0 <= j < schedule.p:
            raise SchedulingError(
                f"delta resizes site {j}, outside 0..{schedule.p - 1}"
            )
    d = schedule.d
    for item in delta.add_items:
        if item.work.d != d:
            raise SchedulingError(
                f"delta adds clone of {item.operator!r} with d={item.work.d}; "
                f"schedule has d={d}"
            )


def _drain_and_mutate(
    schedule: Schedule, delta: ScheduleDelta
) -> tuple[list[CloneItem], int, int, list[int]]:
    """Apply the destructive half of the delta.

    Returns the pending clone items (displaced plus added, withdrawn
    operators filtered out), the number of operators removed, the
    number of displaced clones that must be re-placed, and the sites
    whose key a placement heap must refresh (restored, resized, or
    losing a withdrawn operator's clones; drained sites are disabled).
    """
    displaced: list[PlacedClone] = []
    drained_ops: set[str] = set()
    for j in delta.remove_sites:
        clones = schedule.drain_site(j)
        schedule.disable_site(j)
        displaced.extend(clones)
        drained_ops.update(c.operator for c in clones)
    touched = list(delta.restore_sites)
    for j in delta.restore_sites:
        schedule.enable_site(j)
    # Capacity changes are applied before the re-placement pass below, so
    # the displaced clones already see the new speeds when choosing sites.
    for j, capacity in delta.set_capacities:
        schedule.set_site_capacity(j, capacity)
        touched.append(j)
    removed_ops = set(delta.remove_operators)
    operators_removed = 0
    for op in delta.remove_operators:
        if schedule.has_operator(op):
            touched.extend(j for j, _ in schedule.remove_operator(op))
            operators_removed += 1
        elif op in drained_ops:
            # All of its clones lived on the drained sites; dropping the
            # displaced copies below is the whole removal.
            operators_removed += 1
        else:
            raise SchedulingError(f"operator {op!r} has no placed clones")
    pending = [
        CloneItem(operator=c.operator, clone_index=c.clone_index, work=c.work)
        for c in displaced
        if c.operator not in removed_ops
    ]
    moved = len(pending)
    pending.extend(delta.add_items)
    return pending, operators_removed, moved, touched


def _check_repair_rule(rule: PlacementRule) -> None:
    if rule not in _REPAIR_RULES:
        raise SchedulingError(
            f"placement rule {rule.value!r} is not supported for incremental "
            "repair (stateful or randomized rules cannot be replayed "
            "deterministically against an existing schedule)"
        )


def reschedule_schedule(
    schedule: Schedule,
    delta: ScheduleDelta,
    *,
    overlap: OverlapModel,
    sort: SortKey = SortKey.MAX_COMPONENT,
    rule: PlacementRule = PlacementRule.LEAST_LOADED_LENGTH,
    metrics=None,
    heap: SiteHeap | None = None,
) -> RescheduleStats:
    """Repair ``schedule`` in place after ``delta``; return what was done.

    The schedule is mutated directly — repair at the ``p = 10^3`` scale
    must not pay an O(n) copy.  Callers that need the original intact,
    or all-or-nothing semantics, repair a copy:
    ``reschedule_schedule(phase.copy(), delta, overlap=...)``
    (:meth:`Schedule.copy <repro.core.schedule.Schedule.copy>`).

    ``metrics`` optionally takes a
    :class:`~repro.engine.metrics.MetricsRecorder` (duck-typed — core
    does not import the engine); the repair then records the
    ``reschedules``/``clones_moved``/``sites_drained``/``sites_restored``
    counters, the shared ``placement_scans`` counter, and a
    ``reschedule`` wall-clock timer.

    ``heap`` optionally takes a long-lived
    :class:`~repro.core.placement_heap.SiteHeap` (keyed by
    :func:`~repro.core.placement_heap.least_loaded_key`) over the
    schedule's enabled sites, for callers that repair one schedule many
    times: the repair re-keys only the sites the delta touches and
    rebuilds the heap from cached keys before placing, instead of
    keying all ``p`` sites afresh.  Placements and ``placement_scans``
    are identical either way.  Only ``LEAST_LOADED_LENGTH`` uses a heap.

    Raises
    ------
    SchedulingError
        When the delta does not apply to this schedule (unknown site or
        operator, double-remove, dimensionality mismatch) or the rule is
        not repairable.
    InfeasibleScheduleError
        When a pending clone has no allowable enabled site.  The delta
        and the pending clones placed before that clone stay applied;
        under ``LEAST_LOADED_LENGTH`` a run (one operator's consecutive
        pending clones) that falls short places none of its clones.
        Callers wanting all-or-nothing semantics repair a copy.
    """
    _validate_delta_against(schedule, delta)
    _check_repair_rule(rule)
    if heap is not None and rule is not PlacementRule.LEAST_LOADED_LENGTH:
        raise SchedulingError(
            f"a site heap serves only least-loaded repair, not {rule.value!r}"
        )
    timer = metrics.timer(TIMER_RESCHEDULE) if metrics is not None else nullcontext()
    with current_tracer().span(
        SPAN_RESCHEDULE_REPAIR,
        removed=len(delta.remove_sites),
        restored=len(delta.restore_sites),
        resized=len(delta.set_capacities),
        added=len(delta.add_items),
    ), timer:
        pending, operators_removed, moved, touched = _drain_and_mutate(
            schedule, delta
        )
        if heap is not None:
            heap.discard_batch(delta.remove_sites)
            if touched:
                disabled = schedule.disabled_sites
                heap.refresh(
                    schedule.site(j) for j in touched if j not in disabled
                )
        scans = 0
        if pending:
            if heap is not None:
                # One fresh entry per in-service site: the heap then pops
                # exactly what a fresh heap would, scan for scan.
                heap.rebuild()
            ordered = _sorted_items(pending, sort, None)
            scans = _place_sorted(schedule, ordered, overlap, rule, heap=heap)
        stats = RescheduleStats(
            clones_moved=moved,
            clones_added=len(delta.add_items),
            operators_removed=operators_removed,
            sites_drained=len(delta.remove_sites),
            sites_restored=len(delta.restore_sites),
            sites_resized=len(delta.set_capacities),
            placement_scans=scans,
        )
        if metrics is not None:
            metrics.count(COUNTER_RESCHEDULES)
            metrics.count(COUNTER_CLONES_MOVED, stats.clones_moved)
            metrics.count(COUNTER_SITES_DRAINED, stats.sites_drained)
            metrics.count(COUNTER_SITES_RESTORED, stats.sites_restored)
            if stats.sites_resized:
                metrics.count(COUNTER_SITES_RESIZED, stats.sites_resized)
            metrics.count(COUNTER_PLACEMENT_SCANS, scans)
    return stats


# ----------------------------------------------------------------------
# Naive reference implementation (retained for the golden tests)
# ----------------------------------------------------------------------
def reschedule_reference(
    schedule: Schedule,
    delta: ScheduleDelta,
    *,
    overlap: OverlapModel,
    sort: SortKey = SortKey.MAX_COMPONENT,
    rule: PlacementRule = PlacementRule.LEAST_LOADED_LENGTH,
) -> Schedule:
    """Cold-rebuild oracle for :func:`reschedule_schedule`.

    Leaves ``schedule`` untouched and returns a *fresh* repaired
    schedule built the slow way: replay every surviving placement onto
    an empty schedule (site by site, placement order), then pack the
    displaced-plus-added clones one at a time with
    :func:`~repro.core.vector_packing.pack_vectors_reference`'s
    rescanning rule over the enabled sites.  The golden tests assert
    ``schedule_to_dict`` equality against the in-place fast path.
    """
    _validate_delta_against(schedule, delta)
    _check_repair_rule(rule)
    removed_sites = set(delta.remove_sites)
    removed_ops = set(delta.remove_operators)
    capacities = (
        None if schedule.is_uniform_capacity() else schedule.capacities()
    )
    fresh = Schedule(schedule.p, schedule.d, capacities)
    for j, capacity in delta.set_capacities:
        fresh.set_site_capacity(j, capacity)
    displaced: list[CloneItem] = []
    for site in schedule.sites:
        for clone in site.clones:
            if clone.operator in removed_ops:
                continue
            if site.index in removed_sites:
                displaced.append(
                    CloneItem(
                        operator=clone.operator,
                        clone_index=clone.clone_index,
                        work=clone.work,
                    )
                )
            else:
                fresh.place(site.index, clone)
    for j in schedule.disabled_sites | removed_sites:
        if j not in delta.restore_sites:
            fresh.disable_site(j)
    pending = displaced + list(delta.add_items)
    enabled = fresh.enabled_sites()
    for item in _sorted_items(pending, sort, None):
        j = _choose_site_reference(enabled, item, rule, None, [0])
        fresh.place(
            j,
            PlacedClone(
                operator=item.operator,
                clone_index=item.clone_index,
                work=item.work,
                t_seq=overlap.t_seq(item.work),
            ),
        )
    return fresh
