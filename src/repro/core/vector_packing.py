"""Generic d-dimensional bin-design heuristics (ablation of Section 5.5).

OPERATORSCHEDULE instantiates one point in a family of vector-packing
heuristics: *sort by maximum component, place on the least-filled
allowable site*.  Section 5.5 argues (citing the probabilistic analysis of
Karp, Luby and Marchetti-Spaccamela [KLMS84]) that even simple
vector-packing rules waste little bin capacity on average.  This module
implements the surrounding design space so the claim can be tested:

* **sort keys** — non-increasing maximum component (the paper's choice),
  non-increasing component sum, input order, random order;
* **placement rules** — least filled by current length ``l(work(s))``
  (the paper's choice), minimal *resulting* length after placement,
  round-robin, first fit, random allowable site.

All rules respect constraint (A) (no two clones of one operator on a
site), so every produced packing is a feasible Definition 5.1 schedule.

Kernel performance
------------------
:func:`pack_vectors` is the inner loop of every figure sweep, so its
placement step — shared with schedule repair
(:func:`~repro.core.reschedule.reschedule_schedule`), which runs it on
the in-service sites — is engineered to avoid rescans:

* ``LEAST_LOADED_LENGTH`` consults a lazy min-heap
  (:class:`~repro.core.placement_heap.SiteHeap`) keyed on the
  capacity-normalized length ``(l(work(s))/capacity, index)`` — equal to
  ``(l(work(s)), index)`` bit-for-bit on a homogeneous cluster — giving
  O(log p) amortized placement instead of an O(p) scan per clone; each
  run of one operator's consecutive clones is placed in one step by
  :func:`~repro.core.placement_heap.place_runs`;
* ``FIRST_FIT`` early-exits at the lowest-indexed allowable site and —
  like every other non-heap rule — never constructs or maintains a
  :class:`SiteHeap` (heap construction is gated on the rule, so linear
  rules pay zero heap overhead);
* ``MIN_RESULTING_LENGTH`` evaluates the tentative length in O(d) off the
  site's running load vector without materializing the sum;
* every allowability test is the O(1) per-site operator-set lookup.

All fast paths are deterministic and bit-identical to the naive
rescanning rule, which is retained as
:func:`pack_vectors_reference` and asserted equivalent by the
golden-packing test-suite.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass
from enum import Enum

from repro.exceptions import InfeasibleScheduleError, SchedulingError
from repro.core.placement_heap import SiteHeap, least_loaded_key, place_runs
from repro.core.resource_model import OverlapModel
from repro.core.schedule import Schedule
from repro.obs.names import (
    COUNTER_CLONES_PACKED,
    COUNTER_PLACEMENT_SCANS,
    SPAN_PACK_VECTORS,
    TIMER_PACK_VECTORS,
)
from repro.obs.tracer import current_tracer
from repro.core.site import PlacedClone, Site
from repro.core.work_vector import WorkVector

__all__ = [
    "SortKey",
    "PlacementRule",
    "CloneItem",
    "pack_vectors",
    "pack_vectors_reference",
]


class SortKey(Enum):
    """Order in which clone work vectors are considered."""

    #: Non-increasing ``l(w̄)`` — the Figure 3 rule.
    MAX_COMPONENT = "max_component"
    #: Non-increasing component sum (scalar-work LPT).
    TOTAL = "total"
    #: The caller-provided order.
    INPUT_ORDER = "input_order"
    #: A uniformly random permutation (requires ``rng``).
    RANDOM = "random"


class PlacementRule(Enum):
    """How the target site is chosen among the allowable ones."""

    #: Minimal current ``l(work(s))`` — the Figure 3 rule.
    LEAST_LOADED_LENGTH = "least_loaded_length"
    #: Minimal ``l(work(s) ∪ {w̄})`` after the tentative placement.
    MIN_RESULTING_LENGTH = "min_resulting_length"
    #: Cycle through sites in index order.
    ROUND_ROBIN = "round_robin"
    #: Lowest-indexed allowable site.
    FIRST_FIT = "first_fit"
    #: Uniformly random allowable site (requires ``rng``).
    RANDOM = "random"


@dataclass(frozen=True)
class CloneItem:
    """One clone work vector to pack.

    Attributes
    ----------
    operator:
        Owning operator's name (constraint (A) key).
    clone_index:
        Clone index within the operator.
    work:
        The clone's work vector.
    """

    operator: str
    clone_index: int
    work: WorkVector


def _sorted_items(
    items: Sequence[CloneItem], sort: SortKey, rng: random.Random | None
) -> list[CloneItem]:
    if sort is SortKey.MAX_COMPONENT:
        return sorted(
            items, key=lambda c: (-c.work.length(), c.operator, c.clone_index)
        )
    if sort is SortKey.TOTAL:
        return sorted(
            items, key=lambda c: (-c.work.total(), c.operator, c.clone_index)
        )
    if sort is SortKey.INPUT_ORDER:
        return list(items)
    if sort is SortKey.RANDOM:
        if rng is None:
            raise SchedulingError("SortKey.RANDOM requires an rng")
        shuffled = list(items)
        rng.shuffle(shuffled)
        return shuffled
    raise SchedulingError(f"unknown sort key {sort!r}")


def _no_allowable_site(item: CloneItem) -> InfeasibleScheduleError:
    return InfeasibleScheduleError(
        f"no allowable site for clone {item.clone_index} of {item.operator!r}"
    )


def _choose_site_linear(
    sites: Sequence[Site],
    item: CloneItem,
    rule: PlacementRule,
    rng: random.Random | None,
    rr_state: list[int],
) -> tuple[int, int]:
    """Pick one of ``sites`` (the in-service sites) under a non-heap rule.

    Returns ``(site_index, sites_scanned)``; the scan count feeds the
    ``placement_scans`` instrumentation counter.
    """
    if rule is PlacementRule.MIN_RESULTING_LENGTH:
        best = -1
        best_len = 0.0
        for site in sites:
            if site.hosts_operator(item.operator):
                continue
            resulting = site.normalized_resulting_length(item.work)
            if best < 0 or resulting < best_len:
                best = site.index
                best_len = resulting
        if best < 0:
            raise _no_allowable_site(item)
        return best, len(sites)
    if rule is PlacementRule.ROUND_ROBIN:
        n = len(sites)
        for offset in range(n):
            position = (rr_state[0] + offset) % n
            site = sites[position]
            if not site.hosts_operator(item.operator):
                rr_state[0] = (position + 1) % n
                return site.index, offset + 1
        raise _no_allowable_site(item)
    if rule is PlacementRule.FIRST_FIT:
        # Early exit: the first allowable site in index order IS the
        # answer — no need to materialize the allowable set.
        for scanned, site in enumerate(sites, 1):
            if not site.hosts_operator(item.operator):
                return site.index, scanned
        raise _no_allowable_site(item)
    if rule is PlacementRule.RANDOM:
        if rng is None:
            raise SchedulingError("PlacementRule.RANDOM requires an rng")
        allowable = [
            site.index for site in sites if not site.hosts_operator(item.operator)
        ]
        if not allowable:
            raise _no_allowable_site(item)
        return rng.choice(allowable), len(sites)
    raise SchedulingError(f"unknown placement rule {rule!r}")


def _place_sorted(
    schedule: Schedule,
    ordered: Sequence[CloneItem],
    overlap: OverlapModel,
    rule: PlacementRule,
    rng: random.Random | None = None,
    heap: SiteHeap | None = None,
) -> int:
    """Place already-sorted clones on the in-service sites; return scans.

    The placement step shared by :func:`pack_vectors` and
    :func:`~repro.core.reschedule.reschedule_schedule`.
    ``LEAST_LOADED_LENGTH`` places each run of one operator's
    consecutive clones in one step through
    :func:`~repro.core.placement_heap.place_runs`, on ``heap`` (a
    caller-kept heap over exactly the in-service sites, with current
    keys) or on a fresh one.  The other rules choose clone by clone with
    :func:`_choose_site_linear` and never build a heap.  The scan count
    is heap entries popped or sites probed.

    Raises :class:`InfeasibleScheduleError` naming the first clone with
    no allowable site.  The clones before it stay placed; under
    ``LEAST_LOADED_LENGTH`` none of that clone's run is placed.
    """
    if rule is PlacementRule.LEAST_LOADED_LENGTH:
        if heap is None:
            heap = SiteHeap(schedule.enabled_sites(), key=least_loaded_key)
        before = heap.scans
        place_runs(
            schedule,
            heap,
            [(item.operator, item.clone_index, item.work) for item in ordered],
            overlap,
            lambda position: _no_allowable_site(ordered[position]),
        )
        return heap.scans - before
    sites = schedule.enabled_sites()
    rr_state = [0]
    scans = 0
    for item in ordered:
        j, examined = _choose_site_linear(sites, item, rule, rng, rr_state)
        scans += examined
        schedule.place(
            j,
            PlacedClone(
                operator=item.operator,
                clone_index=item.clone_index,
                work=item.work,
                t_seq=overlap.t_seq(item.work),
            ),
        )
    return scans


def _validate_items(items: Sequence[CloneItem]) -> int:
    if not items:
        raise SchedulingError("pack_vectors requires at least one clone item")
    d = items[0].work.d
    for item in items:
        if item.work.d != d:
            raise SchedulingError(
                f"clone of {item.operator!r} has d={item.work.d}; expected {d}"
            )
    return d


def pack_vectors(
    items: Sequence[CloneItem],
    *,
    p: int,
    overlap: OverlapModel,
    sort: SortKey = SortKey.MAX_COMPONENT,
    rule: PlacementRule = PlacementRule.LEAST_LOADED_LENGTH,
    rng: random.Random | None = None,
    metrics=None,
    capacities: Sequence[float] | None = None,
) -> Schedule:
    """Pack clone work vectors into ``p`` sites under the chosen heuristic.

    ``sort=MAX_COMPONENT, rule=LEAST_LOADED_LENGTH`` reproduces the core
    packing step of OPERATORSCHEDULE exactly (given the same clone
    vectors); other combinations populate the ablation grid of the
    ``abl-pack`` benchmark.

    ``capacities`` optionally makes the cluster heterogeneous: load-aware
    rules then compare *capacity-normalized* lengths
    (``l(work(s)) / capacity``).  Omitted (or all ``1.0``) the packing is
    byte-identical to the homogeneous kernel.

    ``metrics`` optionally takes a
    :class:`~repro.engine.metrics.MetricsRecorder`; the kernel then
    records ``placement_scans`` (site/heap entries examined),
    ``clones_packed``, and a ``pack_vectors`` wall-clock timer.

    Returns the resulting :class:`Schedule`, whose :meth:`Schedule.makespan`
    is the Equation (3) response time of the packing.
    """
    d = _validate_items(items)
    schedule = Schedule(p, d, capacities)
    timer = metrics.timer(TIMER_PACK_VECTORS) if metrics is not None else nullcontext()
    with current_tracer().span(
        SPAN_PACK_VECTORS, items=len(items), p=p, sort=sort.value, rule=rule.value
    ), timer:
        ordered = _sorted_items(items, sort, rng)
        scans = _place_sorted(schedule, ordered, overlap, rule, rng)
        if metrics is not None:
            metrics.count(COUNTER_PLACEMENT_SCANS, scans)
            metrics.count(COUNTER_CLONES_PACKED, len(items))
    return schedule


# ----------------------------------------------------------------------
# Naive reference implementation (retained for the golden tests)
# ----------------------------------------------------------------------
def _reference_site_length(site) -> float:
    """Recompute ``l(work(s))`` from the resident clones, ignoring caches."""
    if not len(site):
        return 0.0
    acc = [0.0] * site.d
    for clone in site.clones:
        for i, c in enumerate(clone.work.components):
            acc[i] += c
    return max(acc)


def _choose_site_reference(
    sites: Sequence[Site],
    item: CloneItem,
    rule: PlacementRule,
    rng: random.Random | None,
    rr_state: list[int],
) -> int:
    """The original O(p·d·clones) placement rule, kept verbatim in spirit.

    Builds the full allowable list from ``sites`` (the in-service sites)
    and recomputes site loads from the placed clones; the optimized
    paths must match its choices exactly.
    """
    allowable = [site for site in sites if not site.hosts_operator(item.operator)]
    if not allowable:
        raise _no_allowable_site(item)
    if rule is PlacementRule.LEAST_LOADED_LENGTH:
        return min(
            allowable,
            key=lambda s: (_reference_site_length(s) / s.capacity, s.index),
        ).index
    if rule is PlacementRule.MIN_RESULTING_LENGTH:
        def resulting(site) -> float:
            load = site.load_vector()
            return max(
                a + b for a, b in zip(load.components, item.work.components)
            ) / site.capacity
        return min(allowable, key=lambda s: (resulting(s), s.index)).index
    if rule is PlacementRule.ROUND_ROBIN:
        n = len(sites)
        for offset in range(n):
            position = (rr_state[0] + offset) % n
            if not sites[position].hosts_operator(item.operator):
                rr_state[0] = (position + 1) % n
                return sites[position].index
        raise _no_allowable_site(item)
    if rule is PlacementRule.FIRST_FIT:
        return min(allowable, key=lambda s: s.index).index
    if rule is PlacementRule.RANDOM:
        if rng is None:
            raise SchedulingError("PlacementRule.RANDOM requires an rng")
        return rng.choice(allowable).index
    raise SchedulingError(f"unknown placement rule {rule!r}")


def pack_vectors_reference(
    items: Sequence[CloneItem],
    *,
    p: int,
    overlap: OverlapModel,
    sort: SortKey = SortKey.MAX_COMPONENT,
    rule: PlacementRule = PlacementRule.LEAST_LOADED_LENGTH,
    rng: random.Random | None = None,
    capacities: Sequence[float] | None = None,
) -> Schedule:
    """Naive rescanning variant of :func:`pack_vectors`.

    Kept as the semantic oracle: same signature, same deterministic
    tie-breaking, no heap, no cached site statistics.  The golden tests
    assert ``schedule_to_dict`` equality against :func:`pack_vectors` for
    every sort × rule combination (homogeneous and heterogeneous);
    benchmarks use it as the "before" kernel when recording speedups.
    """
    d = _validate_items(items)
    schedule = Schedule(p, d, capacities)
    rr_state = [0]
    for item in _sorted_items(items, sort, rng):
        j = _choose_site_reference(schedule.sites, item, rule, rng, rr_state)
        schedule.place(
            j,
            PlacedClone(
                operator=item.operator,
                clone_index=item.clone_index,
                work=item.work,
                t_seq=overlap.t_seq(item.work),
            ),
        )
    return schedule
