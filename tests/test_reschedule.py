"""Incremental rescheduling: delta semantics, golden identity, tracing.

The repair contract has two legs:

* :func:`repro.core.reschedule.reschedule_schedule` mutated in place is
  *byte-identical* (``schedule_to_dict``) to the naive
  :func:`~repro.core.reschedule.reschedule_reference` oracle, for every
  supported sort × rule combination and for hypothesis-generated deltas;
* an append-only delta under ``SortKey.INPUT_ORDER`` equals cold-packing
  the concatenated item list — repair == re-pack of the mutated input.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    CloneItem,
    ConvexCombinationOverlap,
    InfeasibleScheduleError,
    PlacementRule,
    RescheduleStats,
    ScheduleDelta,
    SchedulingError,
    SortKey,
    WorkVector,
    pack_vectors,
    reschedule_reference,
    reschedule_schedule,
)
from repro.engine import MetricsRecorder
from repro.serialization import schedule_from_dict, schedule_to_dict

OVERLAP = ConvexCombinationOverlap(0.5)

REPAIR_RULES = (
    PlacementRule.LEAST_LOADED_LENGTH,
    PlacementRule.FIRST_FIT,
    PlacementRule.MIN_RESULTING_LENGTH,
)


def items_of(n, d=3, seed=0, max_clones=3, prefix="op"):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        for k in range(rng.randint(1, max_clones)):
            out.append(
                CloneItem(
                    operator=f"{prefix}{i}",
                    clone_index=k,
                    work=WorkVector([rng.uniform(0.1, 10.0) for _ in range(d)]),
                )
            )
    return out


def packed(n=30, p=10, seed=0, **kw):
    return pack_vectors(items_of(n, seed=seed), p=p, overlap=OVERLAP, **kw)


# ----------------------------------------------------------------------
# ScheduleDelta construction
# ----------------------------------------------------------------------
class TestScheduleDelta:
    def test_canonicalizes_to_tuples(self):
        delta = ScheduleDelta(remove_sites=[2, 1], remove_operators=["a"])
        assert delta.remove_sites == (2, 1)
        assert delta.remove_operators == ("a",)

    def test_rejects_duplicate_sites(self):
        with pytest.raises(SchedulingError):
            ScheduleDelta(remove_sites=(1, 1))

    def test_rejects_remove_restore_overlap(self):
        with pytest.raises(SchedulingError):
            ScheduleDelta(remove_sites=(1,), restore_sites=(1,))

    def test_rejects_duplicate_added_clone(self):
        item = CloneItem(operator="x", clone_index=0, work=WorkVector([1.0]))
        with pytest.raises(SchedulingError):
            ScheduleDelta(add_items=(item, item))

    def test_is_empty(self):
        assert ScheduleDelta().is_empty
        assert not ScheduleDelta(remove_sites=(0,)).is_empty


# ----------------------------------------------------------------------
# Core repair vs reference oracle (golden identity)
# ----------------------------------------------------------------------
MIXED_DELTA = ScheduleDelta(
    remove_sites=(3, 7),
    remove_operators=("op5", "op11"),
    add_items=(
        CloneItem(operator="newA", clone_index=0, work=WorkVector([1.0, 2.0, 3.0])),
        CloneItem(operator="newA", clone_index=1, work=WorkVector([2.0, 1.0, 0.5])),
        CloneItem(operator="newB", clone_index=0, work=WorkVector([4.0, 0.2, 1.1])),
    ),
)


class TestRepairMatchesReference:
    @pytest.mark.parametrize("sort", [SortKey.MAX_COMPONENT, SortKey.TOTAL,
                                      SortKey.INPUT_ORDER])
    @pytest.mark.parametrize("rule", REPAIR_RULES)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_mixed_delta_bytewise(self, sort, rule, seed):
        base = pack_vectors(
            items_of(40, seed=seed), p=12, overlap=OVERLAP, sort=sort, rule=rule,
            rng=random.Random(seed),
        )
        ref = reschedule_reference(base, MIXED_DELTA, overlap=OVERLAP,
                                   sort=sort, rule=rule)
        mutated = base.copy()
        stats = reschedule_schedule(mutated, MIXED_DELTA, overlap=OVERLAP,
                                    sort=sort, rule=rule)
        assert schedule_to_dict(mutated) == schedule_to_dict(ref)
        assert stats.sites_drained == 2
        assert stats.clones_added == 3
        assert stats.operators_removed == 2
        assert stats.clones_placed == stats.clones_moved + 3

    def test_reference_leaves_input_untouched(self):
        base = packed()
        before = schedule_to_dict(base)
        reschedule_reference(base, MIXED_DELTA, overlap=OVERLAP)
        assert schedule_to_dict(base) == before

    def test_empty_delta_is_noop(self):
        base = packed()
        before = schedule_to_dict(base)
        stats = reschedule_schedule(base, ScheduleDelta(), overlap=OVERLAP)
        assert schedule_to_dict(base) == before
        assert stats == RescheduleStats()

    def test_remove_then_restore_round_trip(self):
        base = packed()
        reschedule_schedule(base, ScheduleDelta(remove_sites=(2, 5)),
                            overlap=OVERLAP)
        assert base.disabled_sites == {2, 5}
        stats = reschedule_schedule(base, ScheduleDelta(restore_sites=(2, 5)),
                                    overlap=OVERLAP)
        assert base.disabled_sites == set()
        assert stats.sites_restored == 2

    def test_append_only_input_order_equals_cold_pack(self):
        """repair == cold re-pack of the mutated input (exact contract)."""
        base_items = items_of(25, seed=3)
        extra = items_of(6, seed=99, prefix="late")
        base = pack_vectors(base_items, p=8, overlap=OVERLAP,
                            sort=SortKey.INPUT_ORDER)
        reschedule_schedule(base, ScheduleDelta(add_items=tuple(extra)),
                            overlap=OVERLAP, sort=SortKey.INPUT_ORDER)
        cold = pack_vectors(base_items + extra, p=8, overlap=OVERLAP,
                            sort=SortKey.INPUT_ORDER)
        assert schedule_to_dict(base) == schedule_to_dict(cold)

    def test_unsupported_rules_rejected(self):
        base = packed()
        for rule in (PlacementRule.ROUND_ROBIN, PlacementRule.RANDOM):
            with pytest.raises(SchedulingError):
                reschedule_schedule(base.copy(), MIXED_DELTA, overlap=OVERLAP,
                                    rule=rule)

    def test_infeasible_when_operator_covers_survivors(self):
        # One operator with a clone on every site: removing any site
        # leaves the displaced clone without an allowable target.
        items = [
            CloneItem(operator="wide", clone_index=k,
                      work=WorkVector([1.0, 1.0, 1.0]))
            for k in range(4)
        ]
        base = pack_vectors(items, p=4, overlap=OVERLAP)
        with pytest.raises(InfeasibleScheduleError):
            reschedule_schedule(base, ScheduleDelta(remove_sites=(0,)),
                                overlap=OVERLAP)


class TestDeltaValidationAgainstSchedule:
    def test_remove_out_of_range(self):
        with pytest.raises(SchedulingError):
            reschedule_schedule(packed(p=4), ScheduleDelta(remove_sites=(4,)),
                                overlap=OVERLAP)

    def test_double_remove(self):
        base = packed()
        reschedule_schedule(base, ScheduleDelta(remove_sites=(1,)),
                            overlap=OVERLAP)
        with pytest.raises(SchedulingError):
            reschedule_schedule(base, ScheduleDelta(remove_sites=(1,)),
                                overlap=OVERLAP)

    def test_restore_in_service_site(self):
        with pytest.raises(SchedulingError):
            reschedule_schedule(packed(), ScheduleDelta(restore_sites=(1,)),
                                overlap=OVERLAP)

    def test_remove_unknown_operator(self):
        with pytest.raises(SchedulingError):
            reschedule_schedule(
                packed(), ScheduleDelta(remove_operators=("ghost",)),
                overlap=OVERLAP,
            )

    def test_dimension_mismatch(self):
        bad = ScheduleDelta(add_items=(
            CloneItem(operator="x", clone_index=0, work=WorkVector([1.0])),
        ))
        with pytest.raises(SchedulingError):
            reschedule_schedule(packed(), bad, overlap=OVERLAP)

    def test_remove_operator_fully_on_drained_site(self):
        # All clones of the operator live on the removed site: the
        # removal is satisfied by dropping the displaced copies.
        items = items_of(10, seed=1, max_clones=1)
        base = pack_vectors(items, p=5, overlap=OVERLAP)
        victim = base.site(2).clones[0].operator
        only_there = all(
            not site.hosts_operator(victim)
            for site in base.sites if site.index != 2
        )
        if only_there:
            stats = reschedule_schedule(
                base,
                ScheduleDelta(remove_sites=(2,), remove_operators=(victim,)),
                overlap=OVERLAP,
            )
            assert stats.operators_removed == 1
            assert victim not in base.operators


# ----------------------------------------------------------------------
# FIRST_FIT repair never touches the heap
# ----------------------------------------------------------------------
def test_first_fit_repair_skips_heap(monkeypatch):
    # Repair places through the packer's placement step, which is where a
    # heap would be built.
    from repro.core import vector_packing

    class Exploder:
        def __init__(self, *a, **kw):
            raise AssertionError("FIRST_FIT repair must not build a SiteHeap")

    base = packed()
    monkeypatch.setattr(vector_packing, "SiteHeap", Exploder)
    metrics = MetricsRecorder()
    stats = reschedule_schedule(
        base, MIXED_DELTA, overlap=OVERLAP, rule=PlacementRule.FIRST_FIT,
        metrics=metrics,
    )
    assert stats.placement_scans > 0
    assert metrics.counters["placement_scans"] == stats.placement_scans
    assert metrics.counters["reschedules"] == 1.0
    assert "reschedule" in metrics.timers


def test_least_loaded_repair_scans_less_than_cold_pack():
    n, p = 200, 16
    items = items_of(n, seed=5, max_clones=1)
    metrics_cold = MetricsRecorder()
    base = pack_vectors(items, p=p, overlap=OVERLAP, metrics=metrics_cold)
    metrics_repair = MetricsRecorder()
    reschedule_schedule(
        base.copy(), ScheduleDelta(remove_sites=(3,)), overlap=OVERLAP,
        metrics=metrics_repair,
    )
    assert (
        metrics_repair.counters["placement_scans"]
        < metrics_cold.counters["placement_scans"]
    )


# ----------------------------------------------------------------------
# Hypothesis: repair == reference for generated deltas
# ----------------------------------------------------------------------
delta_strategy = st.tuples(
    st.integers(min_value=0, max_value=9999),      # base seed
    st.sets(st.integers(min_value=0, max_value=9), max_size=3),  # sites
    st.integers(min_value=0, max_value=3),         # operators to remove
    st.integers(min_value=0, max_value=4),         # items to add
    st.sampled_from([SortKey.MAX_COMPONENT, SortKey.TOTAL, SortKey.INPUT_ORDER]),
    st.sampled_from(REPAIR_RULES),
)


@settings(max_examples=40, deadline=None)
@given(delta_strategy)
def test_repair_matches_reference_property(params):
    seed, sites, n_remove_ops, n_add, sort, rule = params
    base = pack_vectors(items_of(25, seed=seed), p=10, overlap=OVERLAP,
                        sort=sort, rule=rule)
    rng = random.Random(seed + 1)
    resident = sorted(base.operators)
    remove_ops = tuple(rng.sample(resident, min(n_remove_ops, len(resident))))
    delta = ScheduleDelta(
        remove_sites=tuple(sorted(sites)),
        remove_operators=remove_ops,
        add_items=tuple(
            CloneItem(
                operator=f"added{i}", clone_index=0,
                work=WorkVector([rng.uniform(0.1, 5.0) for _ in range(3)]),
            )
            for i in range(n_add)
        ),
    )
    try:
        ref = reschedule_reference(base, delta, overlap=OVERLAP,
                                   sort=sort, rule=rule)
    except InfeasibleScheduleError:
        with pytest.raises(InfeasibleScheduleError):
            reschedule_schedule(base.copy(), delta, overlap=OVERLAP,
                                sort=sort, rule=rule)
        return
    mutated = base.copy()
    reschedule_schedule(mutated, delta, overlap=OVERLAP, sort=sort, rule=rule)
    assert schedule_to_dict(mutated) == schedule_to_dict(ref)


# ----------------------------------------------------------------------
# Hypothesis: chains of deltas, fresh heap vs one long-lived heap
# ----------------------------------------------------------------------
CHAIN_P = 6

chain_step = st.tuples(
    st.sets(st.integers(min_value=0, max_value=CHAIN_P - 1), max_size=2),  # remove
    st.sets(st.integers(min_value=0, max_value=CHAIN_P - 1), max_size=2),  # restore
    st.integers(min_value=0, max_value=2),                        # withdraw
    st.lists(                                  # added operators
        st.tuples(
            st.integers(min_value=1, max_value=4),  # clones 0..k-1
            st.booleans(),                          # heavier coordinator
        ),
        max_size=3,
    ),
    st.dictionaries(                           # set_capacities
        st.integers(min_value=0, max_value=CHAIN_P - 1),
        st.sampled_from([0.5, 1.0, 2.0, 3.0]),
        max_size=2,
    ),
)


def chain_delta(schedule, step, index, rng):
    """One valid delta against ``schedule`` from a drawn ``chain_step``."""
    remove, restore, n_withdraw, added, capacities = step
    disabled = schedule.disabled_sites
    resident = sorted(schedule.operators)
    add_items = []
    for i, (k, heavy) in enumerate(added):
        # Clones after the coordinator share one vector, as under EA1, so
        # an added operator forms a run of k (or k - 1) under every sort.
        work = WorkVector([rng.uniform(0.1, 5.0) for _ in range(3)])
        for c in range(k):
            vector = work + work if heavy and c == 0 else work
            add_items.append(CloneItem(f"step{index}.{i}", c, vector))
    return ScheduleDelta(
        remove_sites=tuple(sorted(j for j in remove if j not in disabled)),
        restore_sites=tuple(sorted(j for j in restore if j in disabled)),
        remove_operators=tuple(
            rng.sample(resident, min(n_withdraw, len(resident)))
        ),
        add_items=tuple(add_items),
        set_capacities=tuple(sorted(capacities.items())),
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=9999),
    st.lists(chain_step, min_size=1, max_size=4),
    st.sampled_from([SortKey.MAX_COMPONENT, SortKey.TOTAL, SortKey.INPUT_ORDER]),
    st.sampled_from(REPAIR_RULES),
)
def test_repair_chain_matches_reference(seed, steps, sort, rule):
    """Every step of a delta chain equals the reference, on either heap.

    One side repairs with a fresh heap per step; the other keeps one heap
    across the chain, as the serve pool does.  Added operators have up
    to four clones, so runs longer than one reach repair directly.
    """
    from repro.core.placement_heap import SiteHeap, least_loaded_key

    base = pack_vectors(items_of(15, seed=seed), p=CHAIN_P, overlap=OVERLAP,
                        sort=sort, rule=rule)
    fresh, kept = base, base.copy()
    heap = (
        SiteHeap(kept.enabled_sites(), key=least_loaded_key)
        if rule is PlacementRule.LEAST_LOADED_LENGTH
        else None
    )
    rng = random.Random(seed + 1)
    for index, step in enumerate(steps):
        delta = chain_delta(fresh, step, index, rng)
        try:
            ref = reschedule_reference(fresh, delta, overlap=OVERLAP,
                                       sort=sort, rule=rule)
        except InfeasibleScheduleError:
            with pytest.raises(InfeasibleScheduleError):
                reschedule_schedule(fresh, delta, overlap=OVERLAP,
                                    sort=sort, rule=rule)
            with pytest.raises(InfeasibleScheduleError):
                reschedule_schedule(kept, delta, overlap=OVERLAP,
                                    sort=sort, rule=rule, heap=heap)
            return
        stats = reschedule_schedule(fresh, delta, overlap=OVERLAP,
                                    sort=sort, rule=rule)
        kept_stats = reschedule_schedule(kept, delta, overlap=OVERLAP,
                                         sort=sort, rule=rule, heap=heap)
        assert schedule_to_dict(fresh) == schedule_to_dict(ref)
        assert schedule_to_dict(kept) == schedule_to_dict(ref)
        assert kept_stats == stats
        fresh.validate()


@pytest.mark.parametrize("rule", REPAIR_RULES)
def test_short_run_places_none_of_its_clones(rule):
    """A run that finds too few sites places nothing under the heap rule."""
    base = pack_vectors(items_of(6, seed=2, max_clones=1), p=4, overlap=OVERLAP)
    work = WorkVector([1.0, 1.0, 1.0])
    delta = ScheduleDelta(
        add_items=tuple(CloneItem("wide", k, work) for k in range(5))
    )
    with pytest.raises(InfeasibleScheduleError, match="clone 4 of 'wide'"):
        reschedule_schedule(base, delta, overlap=OVERLAP, rule=rule)
    placed = sum(site.hosts_operator("wide") for site in base.sites)
    assert placed == (0 if rule is PlacementRule.LEAST_LOADED_LENGTH else 4)


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def test_repair_span_when_tracing():
    from repro.obs.tracer import Tracer, use_tracer

    late = CloneItem(operator="late", clone_index=0,
                     work=WorkVector([1.0, 1.0, 1.0]))
    delta = ScheduleDelta(
        remove_sites=(1, 2), add_items=(late,), set_capacities=((0, 2.0),),
    )
    schedule = packed()
    tracer = Tracer()
    with use_tracer(tracer):
        reschedule_schedule(schedule, delta, overlap=OVERLAP)
    (root,) = tracer.roots
    assert root.name == "reschedule_repair"
    assert root.attributes == {
        "removed": 2, "restored": 0, "resized": 1, "added": 1,
    }


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
class TestDeltaSerialization:
    def test_disabled_sites_round_trip(self):
        base = packed(p=6)
        reschedule_schedule(base, ScheduleDelta(remove_sites=(1,)),
                            overlap=OVERLAP)
        payload = schedule_to_dict(base)
        assert payload["disabled_sites"] == [1]
        back = schedule_from_dict(payload)
        assert back.disabled_sites == {1}
        assert schedule_to_dict(back) == payload

    def test_untouched_schedules_omit_disabled_key(self):
        # Byte-compat: schedules that never saw a repair delta serialize
        # exactly as before the reschedule layer existed.
        assert "disabled_sites" not in schedule_to_dict(packed())


# ----------------------------------------------------------------------
# Metric vocabulary
# ----------------------------------------------------------------------
def test_reschedule_metric_names_are_known():
    from repro.obs.names import (
        COUNTER_CLONES_MOVED,
        COUNTER_RESCHEDULES,
        COUNTER_SITES_DRAINED,
        COUNTER_SITES_RESTORED,
        KNOWN_COUNTER_NAMES,
        KNOWN_TIMER_NAMES,
        TIMER_RESCHEDULE,
    )

    for name in (COUNTER_RESCHEDULES, COUNTER_CLONES_MOVED,
                 COUNTER_SITES_DRAINED, COUNTER_SITES_RESTORED):
        assert name in KNOWN_COUNTER_NAMES
    assert TIMER_RESCHEDULE in KNOWN_TIMER_NAMES
