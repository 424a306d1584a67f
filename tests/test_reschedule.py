"""Incremental rescheduling: delta semantics, golden identity, engine wiring.

The repair contract has three legs:

* :func:`repro.core.reschedule.reschedule_schedule` mutated in place is
  *byte-identical* (``schedule_to_dict``) to the naive
  :func:`~repro.core.reschedule.reschedule_reference` oracle, for every
  supported sort × rule combination and for hypothesis-generated deltas;
* an append-only delta under ``SortKey.INPUT_ORDER`` equals cold-packing
  the concatenated item list — repair == re-pack of the mutated input;
* the engine entry point (:func:`repro.engine.reschedule.reschedule`)
  re-derives homes/degrees/instrumentation, never aliases store keys
  across deltas, and leaves the previous result intact by default.
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
from repro.core.schedule import PhasedSchedule
from repro.engine import (
    MetricsRecorder,
    ScheduleResult,
    available_reschedulers,
    get_rescheduler,
    reschedule,
    reschedule_cached,
    reschedule_store_payload,
)
from repro.serialization import (
    schedule_delta_from_dict,
    schedule_delta_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)

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

    def test_rejects_negative_phase(self):
        with pytest.raises(SchedulingError):
            ScheduleDelta(phase_index=-1)

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
    from repro.core import reschedule as core_reschedule

    class Exploder:
        def __init__(self, *a, **kw):
            raise AssertionError("FIRST_FIT repair must not build a SiteHeap")

    monkeypatch.setattr(core_reschedule, "SiteHeap", Exploder)
    base = packed()
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
# Engine entry point
# ----------------------------------------------------------------------
def synthetic_result(p=8, phases=2):
    phased = PhasedSchedule()
    for k in range(phases):
        phased.append(
            pack_vectors(items_of(20, seed=k, max_clones=1), p=p,
                         overlap=OVERLAP),
            f"shelf-{k}",
        )
    return ScheduleResult(algorithm="treeschedule", phased_schedule=phased)


class TestEngineReschedule:
    def test_registry(self):
        assert "repair" in available_reschedulers()
        assert callable(get_rescheduler("repair"))
        with pytest.raises(Exception):
            get_rescheduler("no-such-strategy")

    def test_repaired_result_shape(self):
        prev = synthetic_result()
        delta = ScheduleDelta(remove_sites=(0,), phase_index=1)
        out = reschedule(prev, delta, overlap=OVERLAP)
        assert out is not prev
        assert out.algorithm == prev.algorithm
        assert out.phase_labels == prev.phase_labels
        # Only the targeted phase changed.
        assert 0 in out.phased_schedule.phases[1].disabled_sites
        assert 0 not in prev.phased_schedule.phases[1].disabled_sites
        assert out.phased_schedule.phases[0] is prev.phased_schedule.phases[0]
        assert out.response_time == out.phased_schedule.response_time()
        assert out.degrees == {
            op: home.degree for op, home in out.homes.items()
        }

    def test_instrumentation_counters(self):
        out = reschedule(
            synthetic_result(), ScheduleDelta(remove_sites=(2,)),
            overlap=OVERLAP,
        )
        counters = out.instrumentation.counters
        assert counters["reschedules"] == 1.0
        assert counters["sites_drained"] == 1.0
        assert counters["clones_moved"] >= 1.0
        assert out.instrumentation.timers["reschedule"] > 0.0

    def test_caller_metrics_merged(self):
        metrics = MetricsRecorder()
        metrics.count("unrelated", 5)
        out = reschedule(
            synthetic_result(), ScheduleDelta(remove_sites=(1,)),
            overlap=OVERLAP, metrics=metrics,
        )
        assert metrics.counters["reschedules"] == 1.0
        assert metrics.counters["unrelated"] == 5.0
        # The result's own instrumentation stays scoped to this repair.
        assert "unrelated" not in out.instrumentation.counters

    def test_span_tree_when_tracing(self):
        from repro.obs.tracer import Tracer, use_tracer

        with use_tracer(Tracer()):
            out = reschedule(
                synthetic_result(), ScheduleDelta(remove_sites=(1,)),
                overlap=OVERLAP,
            )
        roots = out.instrumentation.spans
        assert [s["name"] for s in roots] == ["reschedule"]
        assert roots[0]["attributes"]["strategy"] == "repair"
        assert "response_time" in roots[0]["attributes"]
        children = [c["name"] for c in roots[0]["children"]]
        assert "reschedule_repair" in children

    def test_mutate_flag(self):
        prev = synthetic_result()
        reschedule(prev, ScheduleDelta(remove_sites=(3,)), overlap=OVERLAP,
                   mutate=True)
        assert 3 in prev.phased_schedule.phases[0].disabled_sites

    def test_bound_only_rejected(self):
        bound = ScheduleResult.from_value("optbound", 12.5)
        with pytest.raises(SchedulingError):
            reschedule(bound, ScheduleDelta(remove_sites=(0,)), overlap=OVERLAP)

    def test_phase_out_of_range_rejected(self):
        with pytest.raises(SchedulingError):
            reschedule(
                synthetic_result(phases=2),
                ScheduleDelta(remove_sites=(0,), phase_index=2),
                overlap=OVERLAP,
            )

    def test_failed_repair_leaves_prev_intact(self):
        items = [
            CloneItem(operator="wide", clone_index=k,
                      work=WorkVector([1.0, 1.0, 1.0]))
            for k in range(4)
        ]
        phased = PhasedSchedule()
        phased.append(pack_vectors(items, p=4, overlap=OVERLAP), "only")
        prev = ScheduleResult(algorithm="treeschedule", phased_schedule=phased)
        before = schedule_to_dict(prev.phased_schedule.phases[0])
        with pytest.raises(InfeasibleScheduleError):
            reschedule(prev, ScheduleDelta(remove_sites=(0,)), overlap=OVERLAP)
        assert schedule_to_dict(prev.phased_schedule.phases[0]) == before


# ----------------------------------------------------------------------
# Store keying: repaired results never alias
# ----------------------------------------------------------------------
class TestStoreKeying:
    def test_payload_incorporates_delta(self):
        d1 = ScheduleDelta(remove_sites=(1,))
        d2 = ScheduleDelta(remove_sites=(2,))
        assert reschedule_store_payload("base", d1) != \
            reschedule_store_payload("base", d2)
        assert reschedule_store_payload("base", d1) != \
            reschedule_store_payload("other", d1)
        assert reschedule_store_payload("base", d1, name="x") != \
            reschedule_store_payload("base", d1, name="y")

    def test_distinct_store_keys(self, tmp_path):
        from repro.store import ArtifactStore, KIND_RESULT

        store = ArtifactStore(str(tmp_path))
        d1 = ScheduleDelta(remove_sites=(1,))
        d2 = ScheduleDelta(remove_sites=(1,), phase_index=1)
        k1 = store.key(KIND_RESULT, reschedule_store_payload("base", d1))
        k2 = store.key(KIND_RESULT, reschedule_store_payload("base", d2))
        assert k1 != k2

    def test_cached_repair_round_trips(self, tmp_path):
        from repro.store import ArtifactStore

        store = ArtifactStore(str(tmp_path))
        prev = synthetic_result()
        delta = ScheduleDelta(remove_sites=(2,))
        first = reschedule_cached(prev, delta, overlap=OVERLAP,
                                  base_key="base", store=store)
        second = reschedule_cached(prev, delta, overlap=OVERLAP,
                                   base_key="base", store=store)
        assert second.response_time == first.response_time
        assert schedule_to_dict(second.phased_schedule.phases[0]) == \
            schedule_to_dict(first.phased_schedule.phases[0])


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
class TestDeltaSerialization:
    def test_round_trip(self):
        delta = ScheduleDelta(
            remove_sites=(1,), restore_sites=(4,), remove_operators=("op2",),
            add_items=(
                CloneItem(operator="x", clone_index=0,
                          work=WorkVector([1.0, 2.0, 3.0])),
            ),
            phase_index=2,
        )
        assert schedule_delta_from_dict(schedule_delta_to_dict(delta)) == delta

    def test_round_trip_revalidates(self):
        payload = schedule_delta_to_dict(ScheduleDelta(remove_sites=(1,)))
        payload["remove_sites"] = [1, 1]
        with pytest.raises(SchedulingError):
            schedule_delta_from_dict(payload)

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
# Fault-plan integration
# ----------------------------------------------------------------------
class TestFaultPlanDeltas:
    def test_failures_become_delta_pairs(self):
        from repro.sim.faults import FaultPlan, FaultSpec, SiteFaults

        plan = FaultPlan(spec=FaultSpec(), seed=0, sites={
            (0, 2): SiteFaults(fail_at=1.5, restart_delay=3.0),
            (0, 5): SiteFaults(slowdown=0.5),        # not a failure
            (1, 4): SiteFaults(fail_at=0.5),
            (0, 1): SiteFaults(fail_at=2.0),
        })
        deltas = plan.reschedule_deltas()
        assert set(deltas) == {0, 1}
        failure, recovery = deltas[0]
        assert failure.remove_sites == (1, 2)
        assert failure.phase_index == 0
        assert recovery.restore_sites == (1, 2)
        assert deltas[1][0].remove_sites == (4,)

    def test_no_failures_no_deltas(self):
        from repro.sim.faults import FaultPlan, FaultSpec, SiteFaults

        plan = FaultPlan(spec=FaultSpec(), seed=0, sites={
            (0, 2): SiteFaults(slowdown=0.5),
        })
        assert plan.reschedule_deltas() == {}

    def test_repair_applies_to_packed_phase(self):
        from repro.sim.faults import FaultPlan, FaultSpec, SiteFaults

        prev = synthetic_result(p=8, phases=1)
        plan = FaultPlan(spec=FaultSpec(), seed=0, sites={
            (0, 3): SiteFaults(fail_at=1.0, restart_delay=2.0),
        })
        (failure, recovery), = plan.reschedule_deltas().values()
        degraded = reschedule(prev, failure, overlap=OVERLAP)
        assert 3 in degraded.phased_schedule.phases[0].disabled_sites
        recovered = reschedule(degraded, recovery, overlap=OVERLAP)
        assert recovered.phased_schedule.phases[0].disabled_sites == set()


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
