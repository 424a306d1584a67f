"""A lazy min-heap over sites for O(log p) least-loaded placement.

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
  re-pushed after the selection, costing O(log p) per clone of the same
  operator already placed — at most ``N_i - 1`` per placement.

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

from repro.core.site import Site

__all__ = ["SiteHeap", "least_loaded_key"]


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

    def pick(self, allowable: Callable[[Site], bool]) -> Site | None:
        """Pop the minimum-key site satisfying ``allowable``.

        Fresh-but-unallowable entries are retained (re-pushed before
        returning); stale entries are discarded.  Returns ``None`` when
        no allowable site exists.  The caller must follow a successful
        pick with :meth:`update` after mutating the chosen site.
        """
        heap = self._heap
        keys = self._keys
        skipped: list[tuple[tuple, int]] = []
        chosen: Site | None = None
        while heap:
            entry = heapq.heappop(heap)
            self.scans += 1
            k, j = entry
            if k != keys.get(j):
                # Stale: a fresher entry for j is (or was) queued, or the
                # site was discarded since this entry was pushed.
                continue
            site = self._sites[j]
            if allowable(site):
                chosen = site
                break
            skipped.append(entry)
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
        k = self._key(site)
        self._sites[site.index] = site
        self._keys[site.index] = k
        heapq.heappush(self._heap, (k, site.index))
        if len(self._heap) > max(32, 3 * len(self._sites)):
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
