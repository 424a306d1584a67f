"""A lazy min-heap over sites, and the run-placement kernel built on it.

The Figure 3 list-scheduling rule repeatedly asks for the *least filled
allowable* site: the site minimizing a small key (current length, plus
deterministic tie-breakers ending in the site index) among the sites not
already hosting a clone of the operator being placed.  A linear rescan of
all ``p`` sites per clone makes the packing loop O(n·p); this module
replaces it with a heap using *lazy deletion*:

* every site has exactly one *current* key, cached in ``_keys``;
* placing a clone on a site grows its key, so the caller re-pushes the
  fresh key via :meth:`SiteHeap.update`; the superseded entry stays in the
  heap and is recognized as stale (its key no longer matches the cache)
  and discarded when popped;
* an entry that is fresh but not *allowable* for the current operator
  (constraint (A): the site already hosts a clone of it) is set aside and
  re-pushed after the selection.

The least-loaded rule of :func:`~repro.core.vector_packing.pack_vectors`
and schedule repair (both through ``vector_packing._place_sorted``)
place a *run* at a time, a maximal block of one operator's consecutive
clones in placement order, through :func:`place_runs`: one
:meth:`SiteHeap.take` pops the run's ``k`` sites in one pass, so a site
that hosts the operator is set aside once per run rather than once per
clone, and a site the run fills is never re-popped within it.
OPERATORSCHEDULE step 3 places runs the same way but does not use this
module: a one-shot pack never re-keys a site that is still queued, so
:func:`~repro.core.operator_schedule.operator_schedule` keeps its own
heap of flat ``(length, total load, index)`` tuples over per-site
arrays, with no key callable and no lazy deletion.  The repair heap is
the caller that needs this class: it lives across deltas, and sites
change and leave it between passes.

Long-running incremental use (the serve pool keeps one heap alive
across every repair delta of a run) adds three maintenance operations:
:meth:`SiteHeap.discard_batch` lazily untracks sites (their queued
entries become stale), :meth:`SiteHeap.refresh` re-caches the keys of
sites changed outside the heap (a removal can *shrink* a key, which lazy
deletion cannot express), and :meth:`SiteHeap.rebuild` compacts the heap
to exactly one fresh entry per live site from the cached keys.
:meth:`SiteHeap.update` triggers :meth:`SiteHeap.rebuild` automatically
once the entry count exceeds ``max(32, 3·live sites)``, so lazy-deletion
garbage stays bounded by a constant factor regardless of how many
updates and discards a session performs.

Because every key tuple ends in the site index, the heap minimum is the
unique minimizer the linear scan would have found, so packings produced
through the heap are bit-identical to the rescanning reference
implementation (asserted by the golden tests).
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable, Sequence
from operator import attrgetter

from repro.core.resource_model import OverlapModel
from repro.core.schedule import Schedule
from repro.core.site import PlacedClone, Site
from repro.core.work_vector import WorkVector

__all__ = ["SiteHeap", "clone_run", "least_loaded_key", "place_runs"]

_site_index = attrgetter("index")


def least_loaded_key(site: Site) -> tuple[float, int]:
    """The canonical Figure 3 heap key: ``(l(work(s))/capacity, index)``.

    Capacity-normalized so a fast site absorbs proportionally more work
    on a heterogeneous cluster; on a homogeneous one the division by
    ``1.0`` is bit-exact and the key equals the historical
    ``(length, index)`` tuple.  Lazy-deletion semantics are unaffected:
    capacities are fixed during a packing pass, so keys still only grow
    as clones are placed (callers that *do* resize a site mid-session —
    the rescheduling layer — re-key it via :meth:`SiteHeap.update`).
    """
    return (site.normalized_length(), site.index)


class SiteHeap:
    """Lazy min-heap of sites keyed by a caller-supplied key function.

    Parameters
    ----------
    sites:
        The sites to track (any sequence; indices need not be dense, the
        heap keys carry the identity).
    key:
        Maps a site to a totally ordered tuple whose *last* element must
        be the site index (the deterministic tie-breaker).  Keys must be
        non-decreasing over time: placing work on a site may only grow
        its key.

    Attributes
    ----------
    scans:
        Number of heap entries examined (popped) so far — the heap-based
        analogue of "sites scanned" in the linear reference rule, exposed
        for the placement-scan instrumentation counters.
    """

    __slots__ = ("_key", "_heap", "_keys", "_sites", "scans")

    def __init__(self, sites: Sequence[Site], key: Callable[[Site], tuple]):
        self._key = key
        self._sites = {site.index: site for site in sites}
        self._keys = {site.index: key(site) for site in sites}
        self._heap = [(k, j) for j, k in self._keys.items()]
        heapq.heapify(self._heap)
        self.scans = 0

    def __len__(self) -> int:
        return len(self._sites)

    def take(self, operator: str, k: int) -> list[Site]:
        """Pop the ``k`` minimum-key sites not hosting ``operator``, in key order.

        One pass: stale entries are discarded, and fresh entries of sites
        that already host ``operator`` are set aside and re-pushed once.
        A second fresh entry of a taken site (queued when a site still in
        the heap was updated with an unchanged key) is dropped.  The caller
        must :meth:`update` every returned site.  When fewer than ``k``
        allowable sites exist, the taken entries are re-pushed as well
        and the shorter list is returned, leaving every site queued.
        """
        heap = self._heap
        keys = self._keys
        sites = self._sites
        skipped: list[tuple[tuple, int]] = []
        chosen: list[Site] = []
        last = None
        scans = 0
        pop = heapq.heappop
        while heap:
            entry = pop(heap)
            scans += 1
            key, j = entry
            if key != keys.get(j) or entry == last:
                continue
            site = sites[j]
            if site.hosts_operator(operator):
                skipped.append(entry)
                continue
            chosen.append(site)
            last = entry
            k -= 1
            if not k:
                break
        self.scans += scans
        if k:
            skipped.extend((keys[site.index], site.index) for site in chosen)
        for entry in skipped:
            heapq.heappush(heap, entry)
        return chosen

    def update(self, site: Site) -> None:
        """Re-key ``site`` after its load changed and queue the fresh entry.

        Also serves as the (re-)tracking entry point: updating a site the
        heap does not currently know adds it.  When the queued-entry
        count exceeds ``max(32, 3·live sites)`` the heap is compacted via
        :meth:`rebuild`, bounding lazy-deletion garbage during long
        incremental runs.
        """
        j = site.index
        k = self._key(site)
        self._sites[j] = site
        self._keys[j] = k
        heap = self._heap
        heapq.heappush(heap, (k, j))
        if len(heap) > 32 and len(heap) > 3 * len(self._sites):
            self.rebuild()

    def add_batch(self, sites: Sequence[Site]) -> None:
        """Track (or re-track) several sites — e.g. restored after a fault."""
        for site in sites:
            self.update(site)

    def discard_batch(self, site_indices: Sequence[int]) -> None:
        """Stop tracking the given sites (lazy; unknown indices are ignored).

        Their queued entries are *not* removed eagerly — they are
        recognized as stale (no cached key) and dropped when popped, or
        swept out wholesale by the next :meth:`rebuild`.
        """
        for j in site_indices:
            self._sites.pop(j, None)
            self._keys.pop(j, None)

    def refresh(self, sites: Iterable[Site]) -> None:
        """Re-cache the keys of sites that changed outside the heap.

        Unlike :meth:`update` nothing is queued: the sites' queued
        entries turn stale and the sites are not pickable until the next
        :meth:`rebuild`.  This is the re-keying step for callers that
        mutate sites between placement passes — removing a clone can
        shrink a key, which lazy deletion alone cannot express — and
        rebuild before each pass.
        """
        key = self._key
        tracked = self._sites
        keys = self._keys
        for site in sites:
            tracked[site.index] = site
            keys[site.index] = key(site)

    def rebuild(self) -> None:
        """Compact to exactly one fresh entry per live site (O(p)).

        Discards all stale and discarded-site garbage at once and
        heapifies the cached keys without calling the key function.
        Keys are unique (they end in the site index), so the heap then
        pops exactly the sequence a freshly constructed heap over the
        currently tracked sites would.
        """
        keys = self._keys
        self._heap = list(zip(keys.values(), keys))
        heapq.heapify(self._heap)

    def tracked_sites(self) -> frozenset[int]:
        """Indices of the sites currently tracked (live, not discarded)."""
        return frozenset(self._sites)


def clone_run(
    site_indices: Iterable[int],
    clones: Iterable[tuple[str, int, WorkVector]],
    overlap: OverlapModel,
) -> list[tuple[int, PlacedClone]]:
    """Pair ``(operator, clone_index, work)`` clones with their sites.

    Builds the argument of :meth:`Schedule.place_operator`.  ``T_seq`` is
    computed once per distinct work vector: under EA1 every clone after
    the coordinator carries the same :class:`WorkVector` object, so a run
    of ``n`` clones evaluates the overlap model at most twice.
    """
    run = []
    last = None
    t = 0.0
    for site_index, (operator, k, work) in zip(site_indices, clones):
        if work is not last:
            t = overlap.t_seq(work)
            last = work
        run.append((site_index, PlacedClone(operator, k, work, t)))
    return run


def place_runs(
    schedule: Schedule,
    heap: SiteHeap,
    items: Sequence[tuple[str, int, WorkVector]],
    overlap: OverlapModel,
    infeasible: Callable[[int], Exception],
) -> None:
    """Place ordered ``(operator, clone_index, work)`` items on least-key sites.

    The list-scheduling kernel behind the ``LEAST_LOADED_LENGTH`` rule
    of :func:`pack_vectors` and schedule repair.  Its
    result equals placing each item in turn on the minimum-key allowable
    site, but it works one *run* at a time: a maximal block of
    consecutive items of one operator.  Placing a clone on site ``s``
    makes ``s`` unallowable for the rest of its run and leaves every
    other key alone, so a run of ``k`` clones lands on the ``k``
    smallest allowable keys, in key order.  Each run costs one
    :meth:`SiteHeap.take`, one ``T_seq`` per distinct work vector
    (:func:`clone_run`) and one checked :meth:`Schedule.place_operator`.

    Raises ``infeasible(position)`` with the position in ``items`` of the
    first clone that finds no allowable site, the clone a per-clone loop
    would have failed on.
    """
    take = heap.take
    update = heap.update
    place_operator = schedule.place_operator
    n = len(items)
    start = 0
    while start < n:
        operator, k, work = items[start]
        end = start + 1
        while end < n and items[end][0] == operator:
            end += 1
        sites = take(operator, end - start)
        if len(sites) < end - start:
            raise infeasible(start + len(sites))
        if end == start + 1:
            # A lone clone (every coordinator carrying startup cost) skips
            # the pairing loop; the checks and the fold are the same.
            site = sites[0]
            place_operator(
                operator,
                [(site.index, PlacedClone(operator, k, work, overlap.t_seq(work)))],
            )
            update(site)
        else:
            place_operator(
                operator, clone_run(map(_site_index, sites), items[start:end], overlap)
            )
            for site in sites:
                update(site)
        start = end
