"""Golden-packing determinism: fast kernels vs the naive reference.

PR 2 rebuilt the placement inner loop (lazy site heap, cached vector
stats, incremental site loads) under the contract that packings stay
*byte-identical* to the original rescanning rule.  These tests hold the
optimized kernels to that contract:

* every ``SortKey`` × ``PlacementRule`` combination produces the same
  ``schedule_to_dict`` JSON through :func:`pack_vectors` and
  :func:`pack_vectors_reference` (seeded rng for the random variants);
* the heap-based Figure 3 step of :func:`operator_schedule` matches a
  verbatim reimplementation of the pre-heap linear scan;
* a hypothesis property pins the incremental site statistics (length,
  load vector, total load) to recomputation from the placed clones.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    CloneItem,
    ConvexCombinationOverlap,
    OperatorSpec,
    PlacementRule,
    SiteHeap,
    SortKey,
    WorkVector,
    operator_schedule,
    pack_vectors,
    pack_vectors_reference,
)
from repro.core.granularity import CommunicationModel
from repro.serialization import schedule_to_dict

OVERLAP = ConvexCombinationOverlap(0.5)


def golden_items(n, d=3, seed=0):
    """Mixed-degree clone set: some operators contribute several clones."""
    rng = random.Random(seed)
    items = []
    op = 0
    while len(items) < n:
        degree = rng.choice([1, 1, 1, 2, 3, 5])
        for k in range(min(degree, n - len(items))):
            items.append(
                CloneItem(
                    operator=f"op{op}",
                    clone_index=k,
                    work=WorkVector([rng.uniform(0.0, 10.0) for _ in range(d)]),
                )
            )
        op += 1
    return items


def as_json(schedule) -> str:
    return json.dumps(schedule_to_dict(schedule), sort_keys=True)


@pytest.mark.parametrize("sort", list(SortKey))
@pytest.mark.parametrize("rule", list(PlacementRule))
@pytest.mark.parametrize("seed", [0, 7])
def test_pack_vectors_matches_reference_bytewise(sort, rule, seed):
    items = golden_items(80, seed=seed)
    fast = pack_vectors(
        items, p=9, overlap=OVERLAP, sort=sort, rule=rule, rng=random.Random(seed)
    )
    slow = pack_vectors_reference(
        items, p=9, overlap=OVERLAP, sort=sort, rule=rule, rng=random.Random(seed)
    )
    assert as_json(fast) == as_json(slow)


def test_pack_vectors_matches_reference_with_many_ties():
    """Identical work vectors everywhere — pure tie-break territory."""
    items = [
        CloneItem(operator=f"op{i}", clone_index=k, work=WorkVector([1.0, 1.0, 1.0]))
        for i in range(12)
        for k in range(2)
    ]
    for rule in (PlacementRule.LEAST_LOADED_LENGTH, PlacementRule.MIN_RESULTING_LENGTH):
        fast = pack_vectors(items, p=5, overlap=OVERLAP, rule=rule)
        slow = pack_vectors_reference(items, p=5, overlap=OVERLAP, rule=rule)
        assert as_json(fast) == as_json(slow)


# ----------------------------------------------------------------------
# operator_schedule: heap step 3 vs the pre-heap linear scan
# ----------------------------------------------------------------------
def _linear_scan_schedule(floating, p, comm, overlap, f):
    """Verbatim reimplementation of the pre-PR2 step 3 site choice."""
    from repro.core.cloning import (
        DEFAULT_COORDINATOR_POLICY,
        clone_work_vectors,
        coarse_grain_degree,
    )
    from repro.core.schedule import Schedule
    from repro.core.site import PlacedClone

    policy = DEFAULT_COORDINATOR_POLICY
    d = floating[0].d
    schedule = Schedule(p, d)
    pending = []
    for spec in floating:
        n = coarse_grain_degree(spec, p, f, comm, overlap, policy)
        for k, work in enumerate(clone_work_vectors(spec, n, comm, policy)):
            pending.append((work.length(), spec.name, k, work))
    pending.sort(key=lambda item: (-item[0], item[1], item[2]))
    for _, op_name, k, work in pending:
        best = None
        best_key = None
        for site in schedule.sites:
            if site.hosts_operator(op_name):
                continue
            key = (site.length(), site.total_load())
            if best is None or key < best_key:
                best = site
                best_key = key
        assert best is not None
        schedule.place(
            best.index,
            PlacedClone(
                operator=op_name, clone_index=k, work=work, t_seq=overlap.t_seq(work)
            ),
        )
    return schedule


@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("p", [4, 16])
def test_operator_schedule_heap_matches_linear_scan(seed, p):
    rng = random.Random(seed)
    comm = CommunicationModel(alpha=1.0, beta=0.01)
    floating = [
        OperatorSpec(
            name=f"op{i}",
            work=WorkVector([rng.uniform(1.0, 50.0) for _ in range(3)]),
            data_volume=rng.uniform(10.0, 500.0),
        )
        for i in range(14)
    ]
    result = operator_schedule(floating, p=p, comm=comm, overlap=OVERLAP, f=0.7)
    golden = _linear_scan_schedule(floating, p, comm, OVERLAP, 0.7)
    assert as_json(result.schedule) == as_json(golden)


# ----------------------------------------------------------------------
# Incremental vs recomputed site statistics (hypothesis property)
# ----------------------------------------------------------------------
works_strategy = st.lists(
    st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=3,
        max_size=3,
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60)
@given(works_strategy, st.integers(min_value=1, max_value=8))
def test_incremental_site_stats_match_recomputation(raw, p):
    items = [
        CloneItem(operator=f"op{i}", clone_index=0, work=WorkVector(comps))
        for i, comps in enumerate(raw)
    ]
    schedule = pack_vectors(items, p=p, overlap=OVERLAP)
    for site in schedule.sites:
        acc = [0.0] * site.d
        for clone in site.clones:
            for i, c in enumerate(clone.work.components):
                acc[i] += c
        assert site.load_vector().components == pytest.approx(tuple(acc), abs=1e-12)
        assert site.length() == pytest.approx(max(acc) if acc else 0.0, abs=1e-12)
        assert site.total_load() == pytest.approx(sum(acc), abs=1e-9)
    # Schedule-level incremental totals agree with a site-by-site rescan.
    totals = [0.0] * schedule.d
    for site in schedule.sites:
        for i, c in enumerate(site.load_vector().components):
            totals[i] += c
    assert schedule.total_work().components == pytest.approx(tuple(totals), abs=1e-9)
    assert schedule.clone_count() == len(items)


# ----------------------------------------------------------------------
# SiteHeap unit behaviour
# ----------------------------------------------------------------------
def test_site_heap_take_skips_unallowable_and_counts_scans():
    from repro.core.site import PlacedClone, Site

    sites = [Site(j, 2) for j in range(3)]
    sites[0].place(
        PlacedClone(operator="a", clone_index=0, work=WorkVector([1.0, 0.0]), t_seq=1.0)
    )
    heap = SiteHeap(sites, key=lambda s: (s.length(), s.index))
    # Site 1 is the least-loaded allowable site once 'a'-hosting site 0 is
    # excluded; site 0 has load but sites 1 and 2 are empty, so site 1
    # wins on the index tie-break.
    (chosen,) = heap.take("a", 1)
    assert chosen.index == 1
    assert heap.scans == 1
    chosen.place(PlacedClone("a", 1, WorkVector([2.0, 0.0]), 2.0))
    heap.update(chosen)
    (chosen,) = heap.take("a", 1)
    assert chosen.index == 2
    assert heap.scans == 2
    chosen.place(PlacedClone("a", 2, WorkVector([3.0, 0.0]), 3.0))
    heap.update(chosen)
    # Every site now hosts 'a': all three are popped, set aside and
    # re-queued, so another operator still finds them in key order.
    assert heap.take("a", 1) == []
    assert heap.scans == 5
    assert [s.index for s in heap.take("b", 3)] == [0, 1, 2]
    assert heap.scans == 8


def test_site_heap_returns_none_when_nothing_allowable():
    from repro.core.site import PlacedClone, Site

    sites = [Site(0, 2), Site(1, 2)]
    for site in sites:
        site.place(PlacedClone("a", site.index, WorkVector([0.0, 0.0]), 0.0))
    heap = SiteHeap(sites, key=lambda s: (s.length(), s.index))
    assert heap.take("a", 1) == []
    # The skipped entries must survive for the next take.
    assert [s.index for s in heap.take("b", 1)] == [0]


@pytest.mark.parametrize("sort", list(SortKey))
@pytest.mark.parametrize("rule", list(PlacementRule))
def test_forced_python_path_matches_reference(sort, rule):
    """Large shelves through the heap loop stay byte-identical."""
    items = golden_items(120, seed=5)
    fast = pack_vectors(
        items, p=9, overlap=OVERLAP, sort=sort, rule=rule, rng=random.Random(5)
    )
    slow = pack_vectors_reference(
        items, p=9, overlap=OVERLAP, sort=sort, rule=rule, rng=random.Random(5)
    )
    assert as_json(fast) == as_json(slow)


def test_first_fit_never_constructs_heap(monkeypatch):
    """Linear rules must pay zero heap overhead (satellite contract)."""
    from repro.core import vector_packing

    class Exploder:
        def __init__(self, *a, **kw):
            raise AssertionError("FIRST_FIT must not build a SiteHeap")

    monkeypatch.setattr(vector_packing, "SiteHeap", Exploder)
    from repro.engine import MetricsRecorder

    metrics = MetricsRecorder()
    items = golden_items(40, seed=1)
    schedule = pack_vectors(
        items, p=6, overlap=OVERLAP, rule=PlacementRule.FIRST_FIT,
        metrics=metrics,
    )
    assert schedule.clone_count() == len(items)
    # Early-exit scans only: far below clones × p, and never zero.
    assert 0 < metrics.counters["placement_scans"] <= len(items) * 6


def test_site_heap_stale_entries_are_discarded():
    from repro.core.site import PlacedClone, Site

    sites = [Site(0, 2), Site(1, 2)]
    heap = SiteHeap(sites, key=lambda s: (s.length(), s.index))
    # Site 0 keeps its queued entry while it is re-keyed twice: the first
    # re-key (length 5) leaves the original entry stale.
    sites[0].place(
        PlacedClone(operator="x", clone_index=0, work=WorkVector([5.0, 5.0]), t_seq=5.0)
    )
    heap.update(sites[0])
    # Site 0 now has length 5; the minimum must move to the empty site 1.
    (first,) = heap.take("x", 1)
    assert first.index == 1
    assert heap.scans == 2  # the stale (0, 0) entry, then site 1
    heap.update(first)
    assert [s.index for s in heap.take("y", 2)] == [1, 0]


def test_site_heap_discard_and_rebuild():
    from repro.core.site import PlacedClone, Site

    sites = [Site(j, 2) for j in range(6)]
    heap = SiteHeap(sites, key=lambda s: (s.length(), s.index))
    heap.discard_batch([0, 1, 99])   # unknown indices are ignored
    assert heap.tracked_sites() == frozenset({2, 3, 4, 5})
    (site,) = heap.take("x", 1)
    assert site.index == 2
    heap.update(site)
    # Re-track a discarded site (e.g. restored after a fault).
    heap.add_batch([sites[0]])
    assert heap.tracked_sites() == frozenset({0, 2, 3, 4, 5})
    heap.rebuild()
    assert len(heap._heap) == 5
    sites[2].place(
        PlacedClone(operator="x", clone_index=0, work=WorkVector([9.0, 9.0]), t_seq=9.0)
    )
    heap.update(sites[2])
    assert [s.index for s in heap.take("y", 5)] == [0, 3, 4, 5, 2]


@settings(max_examples=80)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["place", "discard", "restore", "rebuild"]),
            st.integers(min_value=0, max_value=7),
            st.floats(min_value=0.1, max_value=20.0, allow_nan=False),
        ),
        max_size=30,
    )
)
def test_site_heap_tracks_minimum_through_maintenance(ops):
    """After arbitrary place/discard/restore/rebuild traffic, take(op, 1)
    returns the least-loaded live site and lazy-deletion garbage stays
    bounded."""
    from repro.core.site import PlacedClone, Site

    sites = [Site(j, 2) for j in range(8)]
    heap = SiteHeap(sites, key=lambda s: (s.length(), s.index))
    live = set(range(8))
    counter = 0
    for action, j, weight in ops:
        if action == "place" and j in live:
            counter += 1
            sites[j].place(
                PlacedClone(
                    operator=f"op{counter}", clone_index=0,
                    work=WorkVector([weight, weight / 2]), t_seq=weight,
                )
            )
            heap.update(sites[j])
        elif action == "discard" and j in live:
            live.discard(j)
            heap.discard_batch([j])
        elif action == "restore" and j not in live:
            live.add(j)
            heap.add_batch([sites[j]])
        elif action == "rebuild":
            heap.rebuild()
    assert heap.tracked_sites() == frozenset(live)
    # Garbage bound: update() auto-rebuilds past max(32, 3·live).
    assert len(heap._heap) <= max(32, 3 * len(live)) + 1
    picked = heap.take("fresh", 1)
    if live:
        best = min(((sites[j].length(), j) for j in live))
        assert [(s.length(), s.index) for s in picked] == [best]
    else:
        assert picked == []
