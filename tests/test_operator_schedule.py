"""Tests for the OPERATORSCHEDULE list heuristic (Section 5.3, Figure 3)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    CommunicationModel,
    ConvexCombinationOverlap,
    InfeasibleScheduleError,
    OperatorSpec,
    PERFECT_OVERLAP,
    RootedPlacement,
    SchedulingError,
    WorkVector,
    certify,
    clone_work_vectors,
    lower_bound,
    operator_schedule,
    optimal_schedule,
    parallel_time,
    theorem51_fixed_degree_bound,
)
from repro.core.operator_schedule import use_pack_memo

COMM = CommunicationModel(alpha=0.015, beta=0.6e-6)
ZERO_COMM = CommunicationModel(alpha=0.0, beta=0.0)
OVERLAP = ConvexCombinationOverlap(0.5)


def spec(name, cpu, disk, net=0.0, data=0.0):
    return OperatorSpec(name=name, work=WorkVector([cpu, disk, net]), data_volume=data)


small_specs = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=1e7),
    ),
    min_size=1,
    max_size=8,
).map(
    lambda raw: [
        spec(f"op{i}", cpu, disk, data=data) for i, (cpu, disk, data) in enumerate(raw)
    ]
)


class TestBasics:
    def test_single_operator_single_site(self):
        result = operator_schedule(
            [spec("a", 1.0, 1.0)], p=1, comm=COMM, overlap=OVERLAP
        )
        assert result.degrees["a"] == 1
        assert result.schedule.clone_count() == 1
        assert result.makespan > 0

    def test_empty_input_rejected(self):
        with pytest.raises(SchedulingError):
            operator_schedule([], p=2, comm=COMM, overlap=OVERLAP)

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchedulingError):
            operator_schedule(
                [spec("a", 1.0, 1.0), spec("a", 2.0, 2.0)],
                p=2,
                comm=COMM,
                overlap=OVERLAP,
            )

    def test_dimension_mismatch_rejected(self):
        a = OperatorSpec(name="a", work=WorkVector([1.0, 1.0]))
        b = OperatorSpec(name="b", work=WorkVector([1.0, 1.0, 1.0]))
        with pytest.raises(SchedulingError):
            operator_schedule([a, b], p=2, comm=COMM, overlap=OVERLAP)

    def test_makespan_matches_schedule(self):
        result = operator_schedule(
            [spec("a", 5.0, 1.0), spec("b", 1.0, 5.0)],
            p=2,
            comm=COMM,
            overlap=OVERLAP,
        )
        assert result.makespan == result.schedule.makespan()

    def test_constraint_a_holds(self):
        result = operator_schedule(
            [spec("a", 20.0, 20.0), spec("b", 5.0, 5.0)],
            p=4,
            comm=COMM,
            overlap=OVERLAP,
        )
        result.schedule.validate(result.degrees)


class TestDegreesOverride:
    def test_explicit_degrees_respected(self):
        result = operator_schedule(
            [spec("a", 8.0, 8.0)],
            p=8,
            comm=COMM,
            overlap=OVERLAP,
            degrees={"a": 3},
        )
        assert result.degrees["a"] == 3
        assert result.schedule.home("a").degree == 3

    def test_degree_above_p_rejected(self):
        with pytest.raises(InfeasibleScheduleError):
            operator_schedule(
                [spec("a", 8.0, 8.0)],
                p=2,
                comm=COMM,
                overlap=OVERLAP,
                degrees={"a": 3},
            )

    def test_degree_below_one_rejected(self):
        with pytest.raises(SchedulingError):
            operator_schedule(
                [spec("a", 8.0, 8.0)],
                p=2,
                comm=COMM,
                overlap=OVERLAP,
                degrees={"a": 0},
            )

    @pytest.mark.parametrize("degree", [True, False, 2.5, 2.0, "2", None])
    def test_non_int_degree_rejected(self, degree):
        with pytest.raises(SchedulingError, match="is not an int"):
            operator_schedule(
                [spec("a", 8.0, 8.0)],
                p=4,
                comm=COMM,
                overlap=OVERLAP,
                degrees={"a": degree},
            )

    def test_bool_degree_is_not_a_pack_memo_hit(self):
        """``True == 1``: the check runs before the memo lookup."""
        kwargs = dict(p=4, comm=COMM, overlap=OVERLAP)
        with use_pack_memo():
            result = operator_schedule([spec("a", 8.0, 8.0)], degrees={"a": 1}, **kwargs)
            assert result.degrees == {"a": 1}
            with pytest.raises(SchedulingError, match="requested degree True"):
                operator_schedule([spec("a", 8.0, 8.0)], degrees={"a": True}, **kwargs)

    def test_partial_override_mixes_with_coarse_grain(self):
        result = operator_schedule(
            [spec("a", 8.0, 8.0), spec("b", 8.0, 8.0)],
            p=4,
            comm=COMM,
            overlap=OVERLAP,
            degrees={"a": 2},
        )
        assert result.degrees["a"] == 2
        assert 1 <= result.degrees["b"] <= 4


class TestRooted:
    def test_rooted_placement_fixed(self):
        rooted = RootedPlacement(spec=spec("r", 4.0, 4.0), site_indices=(2, 0))
        result = operator_schedule(
            [spec("f", 1.0, 1.0)], [rooted], p=3, comm=COMM, overlap=OVERLAP
        )
        assert result.schedule.home("r").site_indices == (2, 0)
        assert result.degrees["r"] == 2

    def test_rooted_site_out_of_range(self):
        rooted = RootedPlacement(spec=spec("r", 4.0, 4.0), site_indices=(5,))
        with pytest.raises(InfeasibleScheduleError):
            operator_schedule([spec("f", 1.0, 1.0)], [rooted], p=3, comm=COMM, overlap=OVERLAP)

    def test_rooted_degree_above_p(self):
        rooted = RootedPlacement(spec=spec("r", 4.0, 4.0), site_indices=(0, 1, 2))
        with pytest.raises(InfeasibleScheduleError):
            operator_schedule([], [rooted], p=2, comm=COMM, overlap=OVERLAP)

    def test_rooted_duplicate_sites_rejected(self):
        with pytest.raises(SchedulingError):
            RootedPlacement(spec=spec("r", 4.0, 4.0), site_indices=(1, 1))

    def test_rooted_only_schedule(self):
        rooted = RootedPlacement(spec=spec("r", 4.0, 4.0), site_indices=(0, 1))
        result = operator_schedule([], [rooted], p=2, comm=COMM, overlap=OVERLAP)
        expected = parallel_time(spec("r", 4.0, 4.0), 2, COMM, OVERLAP)
        assert math.isclose(result.makespan, expected)

    def test_floating_avoids_hot_rooted_site(self):
        # Rooted work pins site 0; the floating clone should go to site 1.
        rooted = RootedPlacement(spec=spec("r", 100.0, 100.0), site_indices=(0,))
        result = operator_schedule(
            [spec("f", 1.0, 1.0)],
            [rooted],
            p=2,
            comm=ZERO_COMM,
            overlap=OVERLAP,
            degrees={"f": 1},
        )
        assert result.schedule.home("f").site_indices == (1,)


class TestListRule:
    def test_complementary_vectors_share_site(self):
        """A CPU-heavy and a disk-heavy operator can overlap on one site.

        With P=1 both land on the site; the multi-dimensional T_site must
        beat the scalar sum of their stand-alone times under perfect
        overlap.
        """
        a, b = spec("a", 10.0, 0.0), spec("b", 0.0, 10.0)
        result = operator_schedule([a, b], p=1, comm=ZERO_COMM, overlap=PERFECT_OVERLAP)
        assert math.isclose(result.makespan, 10.0)

    def test_balances_length_across_sites(self):
        specs = [spec(f"op{i}", 4.0, 0.0) for i in range(4)]
        result = operator_schedule(
            specs, p=2, comm=ZERO_COMM, overlap=PERFECT_OVERLAP, degrees={s.name: 1 for s in specs}
        )
        # LPT on identical jobs: two per site.
        lengths = [site.length() for site in result.schedule.sites]
        assert lengths == [8.0, 8.0]

    def test_largest_vector_first_matters(self):
        # One big job plus several small: big one must not be squeezed last.
        specs = [spec("big", 10.0, 0.0)] + [spec(f"s{i}", 1.0, 0.0) for i in range(5)]
        result = operator_schedule(
            specs, p=2, comm=ZERO_COMM, overlap=PERFECT_OVERLAP, degrees={s.name: 1 for s in specs}
        )
        assert result.makespan == 10.0


class TestTheoremBounds:
    @settings(max_examples=40, deadline=None)
    @given(small_specs, st.integers(min_value=1, max_value=12))
    def test_theorem_51a_bound(self, specs, p):
        """Makespan within (2d+1) of LB for the chosen parallelization."""
        result = operator_schedule(specs, p=p, comm=COMM, overlap=OVERLAP, f=0.7)
        cert = certify(result.makespan, specs, result.degrees, p, COMM, OVERLAP)
        assert cert.satisfied, str(cert)

    @settings(max_examples=40, deadline=None)
    @given(small_specs, st.integers(min_value=1, max_value=12))
    def test_makespan_at_least_lower_bound(self, specs, p):
        result = operator_schedule(specs, p=p, comm=COMM, overlap=OVERLAP, f=0.7)
        lb = lower_bound(specs, result.degrees, p, COMM, OVERLAP)
        assert result.makespan >= lb - 1e-9 * max(1.0, lb)

    @settings(max_examples=40, deadline=None)
    @given(small_specs, st.integers(min_value=1, max_value=12))
    def test_schedule_structurally_valid(self, specs, p):
        result = operator_schedule(specs, p=p, comm=COMM, overlap=OVERLAP, f=0.7)
        result.schedule.validate(result.degrees)
        assert result.schedule.clone_count() == sum(result.degrees.values())

    def test_guarantee_value(self):
        assert theorem51_fixed_degree_bound(3) == 7.0


class TestVersusOptimal:
    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=20.0),
                st.floats(min_value=0.0, max_value=20.0),
            ),
            min_size=2,
            max_size=5,
        ),
        st.integers(min_value=2, max_value=3),
    )
    def test_heuristic_within_bound_of_true_optimum(self, raw, p):
        specs = [spec(f"op{i}", cpu, disk) for i, (cpu, disk) in enumerate(raw)]
        degrees = {s.name: 1 for s in specs}
        heur = operator_schedule(
            specs, p=p, comm=ZERO_COMM, overlap=OVERLAP, degrees=degrees
        )
        opt = optimal_schedule(
            specs, p=p, comm=ZERO_COMM, overlap=OVERLAP, degrees=degrees
        )
        assert heur.makespan >= opt.makespan - 1e-9
        d = specs[0].d
        assert heur.makespan <= (2 * d + 1) * opt.makespan + 1e-9

    def test_known_optimal_instance(self):
        # Two identical unit jobs on two sites: both algorithms hit T_seq.
        specs = [spec("a", 2.0, 0.0), spec("b", 2.0, 0.0)]
        degrees = {"a": 1, "b": 1}
        heur = operator_schedule(specs, p=2, comm=ZERO_COMM, overlap=OVERLAP, degrees=degrees)
        opt = optimal_schedule(specs, p=2, comm=ZERO_COMM, overlap=OVERLAP, degrees=degrees)
        assert math.isclose(heur.makespan, opt.makespan)


class TestDeterminism:
    def test_same_input_same_output(self):
        specs = [spec(f"op{i}", 3.0 + i, 2.0, data=1e5 * i) for i in range(6)]
        r1 = operator_schedule(specs, p=5, comm=COMM, overlap=OVERLAP)
        r2 = operator_schedule(specs, p=5, comm=COMM, overlap=OVERLAP)
        assert r1.makespan == r2.makespan
        assert {k: v.site_indices for k, v in r1.schedule.homes().items()} == {
            k: v.site_indices for k, v in r2.schedule.homes().items()
        }
