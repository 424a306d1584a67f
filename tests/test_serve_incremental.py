"""Oracle for the serve loop's incremental state.

The pool keeps per-site resident counts, capacities and open/occupied
site counts; the executor caches fair-share rates; the pool's repairs
share one long-lived site heap.  Each is checked here against a fresh
recomputation after every step of random install / complete / resize
sequences on a heterogeneous pool:

* counts and capacities equal a recount of ``pool.schedule``;
* every cached rate equals the full ``min(capacity / residents)``
  recomputation, bit for bit;
* every repair through the long-lived heap yields the same placements
  and ``placement_scans`` as a cold :func:`reschedule_schedule` on a
  copy of the ledger.

A second property drives the heap through general deltas (site drains
and restores included) directly at the core layer.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro import ConvexCombinationOverlap, WorkVector
from repro.core.placement_heap import SiteHeap, least_loaded_key
from repro.core.reschedule import ScheduleDelta, reschedule_schedule
from repro.core.schedule import Schedule
from repro.core.vector_packing import CloneItem
from repro.exceptions import InfeasibleScheduleError
from repro.serialization import schedule_to_dict
from repro.serve import FluidExecutor, SitePool

OVERLAP = ConvexCombinationOverlap(0.5)
CAPACITY_CHOICES = (0.5, 1.0, 1.5, 2.0, 4.0)

work = st.tuples(*(st.floats(0.0, 8.0, allow_nan=False) for _ in range(3))).filter(
    lambda w: max(w) > 0.0
)
step = st.one_of(
    st.tuples(st.just("install"), st.lists(work, min_size=1, max_size=5), st.booleans()),
    st.tuples(st.just("complete"), st.integers(0, 63), st.booleans()),
    st.tuples(
        st.just("resize"),
        st.tuples(st.integers(0, 63), st.sampled_from(CAPACITY_CHOICES)),
        st.booleans(),
    ),
)


class _Harness:
    """A pool and an executor wired the way the service wires them."""

    def __init__(self, capacities: tuple[float, ...], max_coresident: int):
        self.p = len(capacities)
        self.pool = SitePool(
            p=self.p,
            overlap=OVERLAP,
            max_coresident=max_coresident,
            capacities=capacities,
        )
        self.executor = FluidExecutor(
            residents_of=self.pool.residents_of,
            on_complete=self._on_complete,
            capacity_of=self.pool.capacity_of,
        )
        self.launched = 0

    def _repair_checked(self, delta: ScheduleDelta, apply) -> object:
        """Run ``apply`` on the pool; check it against a cold repair."""
        if self.pool.schedule is None:
            cold = Schedule(self.p, 3, self.pool.capacities)
        else:
            cold = self.pool.schedule.copy()
        stats = reschedule_schedule(cold, delta, overlap=OVERLAP)
        scans_before = self.pool.placement_scans
        result = apply()
        assert schedule_to_dict(self.pool.schedule) == schedule_to_dict(cold)
        assert self.pool.placement_scans - scans_before == stats.placement_scans
        return result

    def install(self, vectors) -> None:
        loads = tuple(WorkVector(list(v)) for v in vectors[: self.p])
        name = f"q{self.launched}"
        self.launched += 1
        items = tuple(
            CloneItem(operator=name, clone_index=i, work=w)
            for i, w in enumerate(loads)
        )
        hosts = self._repair_checked(
            ScheduleDelta(add_items=items), lambda: self.pool.install(name, loads)
        )
        self.executor.launch(name, 1.0 + len(loads), hosts, 0.0)

    def complete(self, pick: int) -> None:
        running = list(self.executor._running.values())
        if not running:
            return
        running[pick % len(running)].remaining = 0.0
        self.executor._advance([], 0, 0.0, 0.0)

    def _on_complete(self, name: str, finished_at: float) -> None:
        self._repair_checked(
            ScheduleDelta(remove_operators=(name,)), lambda: self.pool.retire(name)
        )

    def resize(self, pick: int, capacity: float) -> None:
        # Half the picks hit an occupied site, where rates must move.
        occupied = [j for j in range(self.p) if self.pool.residents_of(j)]
        if pick % 2 and occupied:
            site = occupied[pick // 2 % len(occupied)]
        else:
            site = pick % self.p
        if self.pool.schedule is None:
            self.pool.set_capacity(site, capacity)
        else:
            self._repair_checked(
                ScheduleDelta(set_capacities=((site, capacity),)),
                lambda: self.pool.set_capacity(site, capacity),
            )
        self.executor.notify_rates_changed()

    # ------------------------------------------------------------------
    # Fresh recounts
    # ------------------------------------------------------------------
    def check_pool(self) -> None:
        pool, schedule = self.pool, self.pool.schedule
        if schedule is None:
            residents = [0] * self.p
            capacities = list(pool.capacities)
        else:
            residents = [len(s.operators) for s in schedule.sites]
            capacities = [s.capacity for s in schedule.sites]
        assert [pool.residents_of(j) for j in range(self.p)] == residents
        assert [pool.capacity_of(j) for j in range(self.p)] == capacities
        open_sites = sum(1 for c in residents if c < pool.max_coresident)
        assert pool.has_capacity(open_sites)
        assert not pool.has_capacity(open_sites + 1)
        assert pool.utilization() == {
            "occupied_sites": float(sum(1 for c in residents if c)),
            "resident_queries": float(
                0 if schedule is None else len(schedule.operators)
            ),
            "max_residents": float(max(residents)),
        }
        assert pool.running == frozenset(self.executor._running)

    def check_rates(self) -> None:
        executor, schedule = self.executor, self.pool.schedule
        executor._refresh_rates()
        for query in executor._running.values():
            full = min(
                schedule.site(j).capacity / len(schedule.site(j).operators)
                for j in query.hosts
            )
            assert query.rate.hex() == full.hex(), query.name
        occupied = {j for j in range(self.p) if self.pool.residents_of(j)}
        assert set(executor._on_site) == occupied


@settings(max_examples=100, deadline=None)
@given(
    capacities=st.lists(st.sampled_from(CAPACITY_CHOICES), min_size=3, max_size=8),
    max_coresident=st.integers(1, 3),
    steps=st.lists(step, max_size=30),
)
def test_incremental_state_matches_fresh_recount(capacities, max_coresident, steps):
    harness = _Harness(tuple(capacities), max_coresident)
    for kind, arg, check_rates in steps:
        if kind == "install":
            harness.install(arg)
        elif kind == "complete":
            harness.complete(arg)
        else:
            harness.resize(*arg)
        harness.check_pool()
        if check_rates:
            harness.check_rates()
    harness.check_rates()


def _general_delta(schedule: Schedule, rng: random.Random, serial: int) -> ScheduleDelta:
    disabled = sorted(schedule.disabled_sites)
    enabled = [j for j in range(schedule.p) if j not in schedule.disabled_sites]
    resident = sorted(schedule.operators)
    removable = [j for j in enabled if len(enabled) > 2]
    return ScheduleDelta(
        remove_sites=tuple(rng.sample(removable, min(len(removable), rng.randint(0, 1)))),
        restore_sites=tuple(rng.sample(disabled, min(len(disabled), rng.randint(0, 1)))),
        remove_operators=tuple(rng.sample(resident, min(len(resident), rng.randint(0, 2)))),
        add_items=tuple(
            CloneItem(
                operator=f"add{serial}",
                clone_index=k,
                work=WorkVector([rng.uniform(0.0, 5.0) for _ in range(3)]),
            )
            for k in range(rng.randint(0, 3))
        ),
        set_capacities=tuple(
            (j, rng.choice(CAPACITY_CHOICES))
            for j in rng.sample(range(schedule.p), rng.randint(0, 2))
        ),
    )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.integers(3, 9), rounds=st.integers(1, 12))
def test_long_lived_heap_repairs_match_cold_repairs(seed, p, rounds):
    rng = random.Random(seed)
    schedule = Schedule(p, 3, tuple(rng.choice(CAPACITY_CHOICES) for _ in range(p)))
    heap = SiteHeap(schedule.sites, key=least_loaded_key)
    for serial in range(rounds):
        delta = _general_delta(schedule, rng, serial)
        cold = schedule.copy()
        try:
            expected = reschedule_schedule(cold, delta, overlap=OVERLAP)
        except InfeasibleScheduleError:
            return
        stats = reschedule_schedule(schedule, delta, overlap=OVERLAP, heap=heap)
        assert stats == expected
        assert schedule_to_dict(schedule) == schedule_to_dict(cold)
        assert heap.tracked_sites() == {s.index for s in schedule.enabled_sites()}
