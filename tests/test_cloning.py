"""Tests for operator cloning and degree selection (Sections 4.3, 5.2.1)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    CommunicationModel,
    ConfigurationError,
    ConvexCombinationOverlap,
    CoordinatorPolicy,
    OperatorSpec,
    SchedulingError,
    WorkVector,
    clone_work_vectors,
    coarse_grain_degree,
    parallel_time,
    response_optimal_degree,
    total_work_vector,
    vector_sum,
)

COMM = CommunicationModel(alpha=0.015, beta=0.6e-6)
OVERLAP = ConvexCombinationOverlap(0.5)


def spec(cpu=10.0, disk=5.0, net=0.0, data=1e6, name="op"):
    return OperatorSpec(name=name, work=WorkVector([cpu, disk, net]), data_volume=data)


spec_strategy = st.builds(
    spec,
    cpu=st.floats(min_value=0.0, max_value=100.0),
    disk=st.floats(min_value=0.0, max_value=100.0),
    data=st.floats(min_value=0.0, max_value=1e8),
)


class TestOperatorSpec:
    def test_properties(self):
        s = spec(cpu=3.0, disk=2.0, net=1.0)
        assert s.d == 3
        assert s.processing_area == 6.0

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            OperatorSpec(name="", work=WorkVector([1.0]))

    def test_negative_volume_rejected(self):
        with pytest.raises(ConfigurationError):
            OperatorSpec(name="x", work=WorkVector([1.0]), data_volume=-5.0)


class TestCoordinatorPolicy:
    def test_default_split(self):
        v = CoordinatorPolicy().startup_vector(3, 0.2)
        assert v.components == (0.1, 0.0, 0.1)

    def test_custom_axes(self):
        v = CoordinatorPolicy(cpu_axis=1, network_axis=0, cpu_fraction=0.75).startup_vector(2, 1.0)
        assert v.components == (0.25, 0.75)

    def test_same_axis_accumulates(self):
        v = CoordinatorPolicy(cpu_axis=0, network_axis=0).startup_vector(2, 1.0)
        assert v.components == (1.0, 0.0)

    def test_invalid_fraction(self):
        with pytest.raises(ConfigurationError):
            CoordinatorPolicy(cpu_fraction=1.5)

    def test_axis_out_of_range(self):
        with pytest.raises(ConfigurationError):
            CoordinatorPolicy(cpu_axis=5).startup_vector(3, 1.0)


class TestCloneWorkVectors:
    def test_single_clone_carries_everything(self):
        s = spec()
        clones = clone_work_vectors(s, 1, COMM)
        assert len(clones) == 1
        total = clones[0]
        # W_p + W_c(op, 1) accounting (Section 5.1).
        assert math.isclose(
            total.total(), s.processing_area + COMM.communication_area(1, s.data_volume)
        )

    def test_ea1_even_split_plus_coordinator(self):
        s = spec(cpu=8.0, disk=4.0, data=0.0)
        clones = clone_work_vectors(s, 4, COMM)
        assert len(clones) == 4
        # Non-coordinator clones are exact shares.
        for c in clones[1:]:
            assert c.isclose(WorkVector([2.0, 1.0, 0.0]))
        # Coordinator carries alpha*N split half CPU / half network.
        startup = COMM.startup_cost(4)
        assert math.isclose(clones[0][0], 2.0 + startup / 2)
        assert math.isclose(clones[0][2], 0.0 + startup / 2)

    def test_transfer_time_on_network_axis(self):
        s = spec(cpu=0.0, disk=0.0, data=2e6)
        clones = clone_work_vectors(s, 2, COMM)
        transfer = COMM.transfer_cost(2e6)
        # Each clone carries half the beta*D network time.
        assert math.isclose(clones[1][2], transfer / 2)

    def test_zero_clones_rejected(self):
        with pytest.raises(SchedulingError):
            clone_work_vectors(spec(), 0, COMM)

    @given(spec_strategy, st.integers(min_value=1, max_value=32))
    def test_clones_sum_to_total(self, s, n):
        clones = clone_work_vectors(s, n, COMM)
        assert vector_sum(clones).isclose(
            total_work_vector(s, n, COMM), rel_tol=1e-9, abs_tol=1e-9
        )

    @given(spec_strategy, st.integers(min_value=1, max_value=32))
    def test_section51_area_accounting(self, s, n):
        # sum_k W_op[k] = W_p(op) + W_c(op, N).
        total = total_work_vector(s, n, COMM)
        assert math.isclose(
            total.total(),
            s.processing_area + COMM.communication_area(n, s.data_volume),
            rel_tol=1e-9,
            abs_tol=1e-9,
        )

    @given(spec_strategy, st.integers(min_value=1, max_value=31))
    def test_total_work_vector_non_decreasing_in_n(self, s, n):
        # The Section 7 requirement: work vectors non-decreasing in N.
        smaller = total_work_vector(s, n, COMM)
        larger = total_work_vector(s, n + 1, COMM)
        assert larger.dominates(smaller)


class TestParallelTime:
    def test_equation_1_max_over_clones(self):
        s = spec()
        n = 4
        clones = clone_work_vectors(s, n, COMM)
        expected = max(OVERLAP.t_seq(c) for c in clones)
        assert math.isclose(parallel_time(s, n, COMM, OVERLAP), expected)

    def test_degree_one_equals_sequential(self):
        s = spec()
        clones = clone_work_vectors(s, 1, COMM)
        assert math.isclose(parallel_time(s, 1, COMM, OVERLAP), OVERLAP.t_seq(clones[0]))

    def test_speedup_then_speeddown(self):
        # With startup costs there is an optimal degree beyond which the
        # coordinator's startup share dominates [WFA92].
        s = spec(cpu=30.0, disk=30.0, data=0.0)
        t = [parallel_time(s, n, COMM, OVERLAP) for n in range(1, 400)]
        n_best = t.index(min(t)) + 1
        assert 1 < n_best < 400
        assert t[0] > t[n_best - 1]
        assert t[-1] > t[n_best - 1]

    def test_zero_comm_never_slows_down(self):
        zero = CommunicationModel(alpha=0.0, beta=0.0)
        s = spec(data=0.0)
        times = [parallel_time(s, n, zero, OVERLAP) for n in range(1, 20)]
        assert all(t2 <= t1 + 1e-12 for t1, t2 in zip(times, times[1:]))


class TestDegreeSelection:
    def test_response_optimal_degree_is_argmin(self):
        s = spec(cpu=30.0, disk=30.0)
        p = 64
        n_rt = response_optimal_degree(s, p, COMM, OVERLAP)
        t_star = parallel_time(s, n_rt, COMM, OVERLAP)
        for n in range(1, p + 1):
            assert t_star <= parallel_time(s, n, COMM, OVERLAP) + 1e-12

    def test_ties_prefer_smaller_degree(self):
        zero = CommunicationModel(alpha=0.0, beta=0.0)
        s = OperatorSpec(name="z", work=WorkVector([0.0, 0.0, 0.0]), data_volume=0.0)
        assert response_optimal_degree(s, 8, zero, OVERLAP) == 1

    def test_bad_p_rejected(self):
        with pytest.raises(SchedulingError):
            response_optimal_degree(spec(), 0, COMM, OVERLAP)

    @pytest.mark.parametrize("p", [0, -3])
    @pytest.mark.parametrize("select", ["response", "coarse"])
    def test_both_degree_rules_reject_p_below_one(self, p, select):
        with pytest.raises(SchedulingError, match="number of sites must be >= 1"):
            if select == "response":
                response_optimal_degree(spec(), p, COMM, OVERLAP)
            else:
                coarse_grain_degree(spec(), p, 0.7, COMM, OVERLAP)

    def test_coarse_grain_degree_caps(self):
        s = spec(cpu=30.0, disk=30.0, data=1e6)
        p = 64
        n = coarse_grain_degree(s, p, 0.7, COMM, OVERLAP)
        assert 1 <= n <= p
        assert n <= COMM.n_max(0.7, s.processing_area, s.data_volume)
        # A4 enforcement: never beyond the response-optimal degree.
        n_cap = min(COMM.n_max(0.7, s.processing_area, s.data_volume), p)
        assert n <= response_optimal_degree(s, n_cap, COMM, OVERLAP)

    def test_small_f_restricts_parallelism(self):
        s = spec(cpu=30.0, disk=30.0, data=2e7)
        p = 64
        degrees = [
            coarse_grain_degree(s, p, f, COMM, OVERLAP) for f in (0.15, 0.3, 0.7)
        ]
        assert degrees == sorted(degrees)
        assert degrees[0] < degrees[-1]

    @given(spec_strategy, st.integers(min_value=1, max_value=32),
           st.floats(min_value=0.05, max_value=1.0))
    def test_degree_always_valid(self, s, p, f):
        n = coarse_grain_degree(s, p, f, COMM, OVERLAP)
        assert 1 <= n <= p

    @settings(max_examples=30)
    @given(spec_strategy, st.integers(min_value=2, max_value=24))
    def test_a4_holds_on_selected_range(self, s, p):
        """Parallel time is non-increasing on 1..N for the chosen degree N."""
        n = coarse_grain_degree(s, p, 0.7, COMM, OVERLAP)
        t_n = parallel_time(s, n, COMM, OVERLAP)
        assert t_n <= parallel_time(s, 1, COMM, OVERLAP) + 1e-9
