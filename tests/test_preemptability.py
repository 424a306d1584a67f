"""Tests for the partial-preemptability simulation (A2 relaxation)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    ConfigurationError,
    ConvexCombinationOverlap,
    PlacedClone,
    PreemptabilityModel,
    SharingPolicy,
    Site,
    SimulationError,
    WorkVector,
    simulate_phased,
    simulate_phased_degraded,
    tree_schedule,
)
from repro.sim.preemptability import simulate_site_degraded
from repro.sim.simulator import simulate_site

OVERLAP = ConvexCombinationOverlap(0.5)


def site_with(clone_defs, d=2, capacity=1.0):
    site = Site(0, d, capacity)
    for i, comps in enumerate(clone_defs):
        w = WorkVector(comps)
        site.place(
            PlacedClone(
                operator=f"op{i}", clone_index=0, work=w, t_seq=OVERLAP.t_seq(w)
            )
        )
    return site


class TestModel:
    def test_capacity_formula(self):
        model = PreemptabilityModel((1.0, 0.5))
        assert model.effective_capacity(0, 5) == 1.0
        assert model.effective_capacity(1, 1) == 1.0
        # k=3 users at sigma=0.5: 1 / (1 + 2*0.5) = 0.5.
        assert model.effective_capacity(1, 3) == pytest.approx(0.5)

    def test_sigma_zero_is_one_over_k(self):
        model = PreemptabilityModel((0.0,))
        assert model.effective_capacity(0, 4) == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PreemptabilityModel(())
        with pytest.raises(ConfigurationError):
            PreemptabilityModel((1.5,))
        with pytest.raises(ConfigurationError):
            PreemptabilityModel((1.0,)).effective_capacity(0, -1)

    def test_factories(self):
        assert PreemptabilityModel.perfect(3).sigmas == (1.0, 1.0, 1.0)
        sticky = PreemptabilityModel.sticky_disk(3, disk_axis=1, sigma_disk=0.4)
        assert sticky.sigmas == (1.0, 0.4, 1.0)


class TestSiteSimulation:
    def test_perfect_matches_fair_share(self):
        # Bit for bit, on heterogeneous sites too: the model only sets
        # per-resource capacities inside FAIR_SHARE's own loop.
        for capacity in (0.5, 1.0, 2.0):
            site = site_with([[10.0, 2.0], [3.0, 9.0], [5.0, 5.0]], capacity=capacity)
            fair = simulate_site(site, SharingPolicy.FAIR_SHARE)
            degraded = simulate_site_degraded(site, PreemptabilityModel.perfect(2))
            assert degraded.completion_time == fair.completion_time
            assert degraded.traces == fair.traces
            assert degraded.intervals == fair.intervals

    def test_degradation_slows_down(self):
        site = site_with([[2.0, 8.0], [3.0, 7.0], [1.0, 9.0]])
        perfect = simulate_site_degraded(site, PreemptabilityModel.perfect(2))
        sticky = simulate_site_degraded(site, PreemptabilityModel((1.0, 0.3)))
        assert sticky.completion_time > perfect.completion_time

    def test_monotone_in_sigma(self):
        site = site_with([[2.0, 8.0], [3.0, 7.0], [1.0, 9.0]])
        times = [
            simulate_site_degraded(site, PreemptabilityModel((1.0, s))).completion_time
            for s in (1.0, 0.7, 0.4, 0.1)
        ]
        assert all(t2 >= t1 - 1e-9 for t1, t2 in zip(times, times[1:]))

    def test_single_clone_unaffected(self):
        site = site_with([[4.0, 6.0]])
        degraded = simulate_site_degraded(site, PreemptabilityModel((0.0, 0.0)))
        assert degraded.completion_time == pytest.approx(OVERLAP.t_seq(WorkVector([4.0, 6.0])))

    def test_untouched_resource_irrelevant(self):
        # Clones using only the CPU: disk preemptability must not matter.
        site = site_with([[4.0, 0.0], [3.0, 0.0]])
        a = simulate_site_degraded(site, PreemptabilityModel((1.0, 1.0)))
        b = simulate_site_degraded(site, PreemptabilityModel((1.0, 0.0)))
        assert a.completion_time == pytest.approx(b.completion_time)

    def test_dimension_mismatch(self):
        site = site_with([[1.0, 1.0]])
        with pytest.raises(SimulationError):
            simulate_site_degraded(site, PreemptabilityModel((1.0,)))

    @settings(max_examples=25)
    @given(
        st.lists(
            st.lists(st.floats(min_value=0.0, max_value=30.0), min_size=2, max_size=2),
            min_size=1,
            max_size=5,
        ),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_intervals_feasible_under_degraded_capacity(self, clone_defs, sigma):
        site = site_with(clone_defs)
        model = PreemptabilityModel((1.0, sigma))
        result = simulate_site_degraded(site, model)
        # Only clones that actually demand the degraded resource count as
        # its users (an idle resource costs no switching overhead).  The
        # rate is derived exactly as the simulator derives it, so that
        # denormal work amounts that underflow to a zero rate agree.
        uses_disk = set()
        for i, comps in enumerate(clone_defs):
            t = OVERLAP.t_seq(WorkVector(comps))
            if t > 0.0 and comps[1] / t > 0.0:
                uses_disk.add(f"op{i}#0")
        for interval in result.intervals:
            users = sum(1 for label in interval.active if label in uses_disk)
            assert interval.resource_rates[1] <= model.effective_capacity(1, users) + 1e-6


class TestPhased:
    def test_perfect_model_matches_fair_share(self, annotated_query, comm, overlap):
        ts = tree_schedule(
            annotated_query.operator_tree, annotated_query.task_tree,
            p=8, comm=comm, overlap=overlap, f=0.7,
        )
        fair = simulate_phased(ts.phased_schedule, SharingPolicy.FAIR_SHARE)
        degraded = simulate_phased_degraded(
            ts.phased_schedule, PreemptabilityModel.perfect(3)
        )
        assert degraded.response_time == pytest.approx(fair.response_time)

    def test_sticky_disk_costs_time(self, annotated_query, comm, overlap):
        ts = tree_schedule(
            annotated_query.operator_tree, annotated_query.task_tree,
            p=8, comm=comm, overlap=overlap, f=0.7,
        )
        perfect = simulate_phased_degraded(
            ts.phased_schedule, PreemptabilityModel.perfect(3)
        )
        sticky = simulate_phased_degraded(
            ts.phased_schedule, PreemptabilityModel.sticky_disk(3, sigma_disk=0.2)
        )
        assert sticky.response_time > perfect.response_time
        assert sticky.slowdown >= 1.0
