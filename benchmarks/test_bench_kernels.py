"""Experiment bench-kernels — exact work counts of the scheduling kernels.

Every gate here is a count, not a wall-clock multiple: the paper states
TREESCHEDULE's cost as operation counts (Prop. 5.1/5.2), and a count
does not move with the load of the host that runs it.  The tests pin:

* the guard point (n=1000 clones, p=64 sites, d=3): ``pack_vectors``
  pops one heap entry per clone, where the naive reference kernel
  examines all p sites per clone (n·p), and both pack byte-identically;
* the scale points (n=10^4 clones over p=10^3 sites, homogeneous and
  over three site classes): one heap entry popped per clone;
* TREESCHEDULE's heap entries popped and clones placed on one fixed
  query, and the ``T_par`` evaluations three algorithms make on it;
* the repair of a 3-site failure at the guard point's size (clones
  moved, heap entries popped, the repaired schedule's hash) against
  the scans of a cold re-pack, and a serve pool's multi-clone installs.

A change in the work the kernels do shows up as a reviewed count change.
"""

from __future__ import annotations

import hashlib
import json
import random

from repro import (
    CloneItem,
    ConvexCombinationOverlap,
    ScheduleDelta,
    WorkVector,
    pack_vectors,
    pack_vectors_reference,
    parse_cluster_spec,
    reschedule_schedule,
)
from repro.engine import MetricsRecorder
from repro.serialization import schedule_to_dict

OVERLAP = ConvexCombinationOverlap(0.5)
D = 3
#: The guard point; the reschedule case repairs a delta at its size.
GUARD_N, GUARD_P = 1000, 64
RESCHEDULE_REMOVED_SITES = (3, 17, 42)
#: The scale point: the paper's problem sizes times ten.
SCALE_N, SCALE_P = 10_000, 1_000
HETERO_CLUSTER = "fast:200:4.0,std:600:1.0,slow:200:0.5"


def make_items(n: int) -> list[CloneItem]:
    """Deterministic mixed-resource clone set (one clone per operator)."""
    rng = random.Random(0)
    return [
        CloneItem(
            operator=f"op{i}",
            clone_index=0,
            work=WorkVector([rng.uniform(0.1, 10.0) for _ in range(D)]),
        )
        for i in range(n)
    ]


def pack_counts(items, p, capacities=None) -> dict[str, float]:
    metrics = MetricsRecorder()
    pack_vectors(
        items, p=p, overlap=OVERLAP, capacities=capacities, metrics=metrics
    )
    return dict(metrics.counters)


def test_kernels_guard_point_output_unchanged(benchmark):
    """The optimized kernel's packing is byte-identical to the reference."""
    items = make_items(GUARD_N)
    fast = benchmark(lambda: pack_vectors(items, p=GUARD_P, overlap=OVERLAP))
    slow = pack_vectors_reference(items, p=GUARD_P, overlap=OVERLAP)
    assert json.dumps(schedule_to_dict(fast)) == json.dumps(schedule_to_dict(slow))


#: Exact work counts of the list-scheduling kernels.  ``placement_scans``
#: is heap entries popped: run placement pops once per allowable site a
#: run takes (plus the stale and set-aside entries it passes), where
#: clone-by-clone placement re-popped every site of the run so far.  A
#: change that moves a count must update it here and say why.
TREESCHEDULE_COUNTS = {"placement_scans": 3428.0, "clones_placed": 3421.0}
#: The guard point: one heap entry popped per clone.  The reference
#: kernel examines every one of the p allowable sites for each clone,
#: n·p = 64,000 examinations (64x the pops), uninstrumented by design.
PACK_COUNTS = {"placement_scans": 1000.0, "clones_packed": 1000.0}
REFERENCE_SITE_EXAMINATIONS = GUARD_N * GUARD_P
#: Both scale points, homogeneous and over HETERO_CLUSTER's three
#: classes (the capacity-normalized heap key): one pop per clone.
SCALE_COUNTS = {"placement_scans": 10_000.0, "clones_packed": 10_000.0}
#: ``ParallelTimeCurve.t_par`` evaluations (one ``T_seq`` each) per
#: algorithm on the same query.  Degree selection bisects the convex
#: ``T_par`` curve; the scan it replaced took 3,502 / 2,592 / 4,404.
#: MALLEABLE's family walk evaluates one degree per step on top of that.
T_PAR_COUNTS = {"treeschedule": 1077, "synchronous": 957, "malleable": 2639}


def test_kernel_work_counts_are_pinned(monkeypatch):
    from repro.core.cloning import ParallelTimeCurve
    from repro.experiments import prepare_workload, schedule_query
    from repro.store import NO_STORE

    evaluations = [0]
    t_par = ParallelTimeCurve.t_par

    def counted(self, n, overlap):
        evaluations[0] += 1
        return t_par(self, n, overlap)

    monkeypatch.setattr(ParallelTimeCurve, "t_par", counted)
    (query,) = prepare_workload(40, 1, 1996, store=NO_STORE)
    counts = {}
    for algorithm in T_PAR_COUNTS:
        evaluations[0] = 0
        metrics = MetricsRecorder()
        schedule_query(
            algorithm, query, p=256, f=0.7, epsilon=0.5,
            metrics=metrics, store=NO_STORE,
        )
        counts[algorithm] = evaluations[0]
        if algorithm == "treeschedule":
            assert {k: metrics.counters[k] for k in TREESCHEDULE_COUNTS} == TREESCHEDULE_COUNTS
    assert counts == T_PAR_COUNTS


def test_guard_point_work_counts_are_pinned():
    counts = pack_counts(make_items(GUARD_N), GUARD_P)
    assert counts == PACK_COUNTS
    assert counts["placement_scans"] * GUARD_P == REFERENCE_SITE_EXAMINATIONS


def test_scale_point_work_counts_are_pinned():
    items = make_items(SCALE_N)
    spec = parse_cluster_spec(HETERO_CLUSTER)
    assert spec.p == SCALE_P
    assert pack_counts(items, SCALE_P) == SCALE_COUNTS
    assert pack_counts(items, SCALE_P, spec.capacities()) == SCALE_COUNTS


#: The reschedule case: a 3-site failure at the guard point's size.
#: Every displaced clone is a run of one, so each pops one heap entry;
#: a cold re-pack of the same items pops ``PACK_COUNTS`` (1,000).
RESCHEDULE_COUNTS = {
    "reschedules": 1.0,
    "clones_moved": 47.0,
    "sites_drained": 3.0,
    "sites_restored": 0.0,
    "placement_scans": 47.0,
}
RESCHEDULE_SHA256 = "ae27a74b2161d6fb298adb9fdaecd6ef8dc1c981db008d5f5c201b2db976ef66"
#: Serve-pool installs of 8-clone queries on p=16.  The last one places
#: a run of eight equal clones among uneven loads: one ``take`` pops its
#: eight sites (clone-by-clone placement re-popped filled sites: 21).
POOL_INSTALL_SCANS = [8.0, 8.0, 8.0, 8.0]
POOL_INSTALL_HOMES = [
    (0, 1, 2, 3, 4, 5, 6, 7),
    (8, 9, 10, 11, 12, 13, 14, 15),
    (9, 10, 11, 12, 13, 14, 15, 1),
    (8, 2, 3, 4, 5, 6, 7, 10),
]


def test_repair_work_counts_are_pinned():
    from repro.serve.pool import SitePool

    schedule = pack_vectors(make_items(GUARD_N), p=GUARD_P, overlap=OVERLAP)
    metrics = MetricsRecorder()
    reschedule_schedule(
        schedule,
        ScheduleDelta(remove_sites=RESCHEDULE_REMOVED_SITES),
        overlap=OVERLAP,
        metrics=metrics,
    )
    assert dict(metrics.counters) == RESCHEDULE_COUNTS
    encoded = json.dumps(schedule_to_dict(schedule), sort_keys=True).encode()
    assert hashlib.sha256(encoded).hexdigest() == RESCHEDULE_SHA256

    metrics = MetricsRecorder()
    pool = SitePool(p=16, overlap=OVERLAP, metrics=metrics)
    scans, homes = [], []

    def install(name, loads):
        before = metrics.counters.get("placement_scans", 0.0)
        homes.append(pool.install(name, loads))
        scans.append(metrics.counters["placement_scans"] - before)

    for name, comps in (
        ("q0", [3.0, 1.0, 0.5]),
        ("q1", [1.0, 2.0, 0.5]),
        ("q2", [0.5, 0.5, 4.0]),
    ):
        work = WorkVector(comps)
        install(name, [work + work] + [work] * 7)  # heavier coordinator
    pool.retire("q1")
    install("q3", [WorkVector([1.0, 1.0, 1.0])] * 8)
    assert scans == POOL_INSTALL_SCANS
    assert homes == POOL_INSTALL_HOMES
