"""Tests for the scalar-work list-scheduling baseline."""

from __future__ import annotations

import pytest

from repro import (
    CommunicationModel,
    ConvexCombinationOverlap,
    InfeasibleScheduleError,
    OperatorSpec,
    PERFECT_OVERLAP,
    SchedulingError,
    WorkVector,
    operator_schedule,
    scalar_list_schedule,
)

COMM = CommunicationModel(alpha=0.015, beta=0.6e-6)
ZERO_COMM = CommunicationModel(alpha=0.0, beta=0.0)
OVERLAP = ConvexCombinationOverlap(0.5)


def spec(name, cpu, disk):
    return OperatorSpec(name=name, work=WorkVector([cpu, disk, 0.0]), data_volume=0.0)


class TestBasics:
    def test_schedules_everything(self):
        specs = [spec(f"op{i}", 2.0 + i, 1.0) for i in range(5)]
        result = scalar_list_schedule(specs, p=3, comm=COMM, overlap=OVERLAP)
        result.schedule.validate(result.degrees)
        assert set(result.degrees) == {s.name for s in specs}

    def test_empty_rejected(self):
        with pytest.raises(SchedulingError):
            scalar_list_schedule([], p=2, comm=COMM, overlap=OVERLAP)

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchedulingError):
            scalar_list_schedule(
                [spec("a", 1.0, 1.0), spec("a", 2.0, 2.0)],
                p=2, comm=COMM, overlap=OVERLAP,
            )

    def test_degree_bounds_enforced(self):
        with pytest.raises(InfeasibleScheduleError):
            scalar_list_schedule(
                [spec("a", 1.0, 1.0)], p=2, comm=COMM, overlap=OVERLAP,
                degrees={"a": 3},
            )

    @pytest.mark.parametrize("degree", [True, 2.5])
    def test_non_int_degree_rejected(self, degree):
        with pytest.raises(SchedulingError, match="is not an int"):
            scalar_list_schedule(
                [spec("a", 1.0, 1.0)], p=4, comm=COMM, overlap=OVERLAP,
                degrees={"a": degree},
            )

    def test_dimension_mismatch(self):
        a = OperatorSpec(name="a", work=WorkVector([1.0, 1.0]))
        b = OperatorSpec(name="b", work=WorkVector([1.0, 1.0, 0.0]))
        with pytest.raises(SchedulingError):
            scalar_list_schedule([a, b], p=2, comm=COMM, overlap=OVERLAP)


class TestBlindness:
    def test_multi_dimensional_rule_wins_on_mixed_workload(self):
        """Two CPU-heavy and two disk-heavy unit jobs on two sites:

        The multi-dimensional rule pairs complementary jobs per site
        (T_site = 10 under perfect overlap); the scalar rule cannot see
        the difference and can pair same-resource jobs (T_site = 20).
        """
        specs = [
            spec("cpu1", 10.0, 0.0),
            spec("cpu2", 10.0, 0.0),
            spec("disk1", 0.0, 10.0),
            spec("disk2", 0.0, 10.0),
        ]
        degrees = {s.name: 1 for s in specs}
        multi = operator_schedule(
            specs, p=2, comm=ZERO_COMM, overlap=PERFECT_OVERLAP, degrees=degrees
        )
        scalar = scalar_list_schedule(
            specs, p=2, comm=ZERO_COMM, overlap=PERFECT_OVERLAP, degrees=degrees
        )
        assert multi.makespan <= scalar.makespan + 1e-12
        assert multi.makespan == pytest.approx(10.0)

    def test_same_behaviour_on_one_dimensional_input(self):
        """When all work is on one resource the two rules coincide."""
        specs = [spec(f"op{i}", float(10 - i), 0.0) for i in range(6)]
        degrees = {s.name: 1 for s in specs}
        multi = operator_schedule(
            specs, p=3, comm=ZERO_COMM, overlap=PERFECT_OVERLAP, degrees=degrees
        )
        scalar = scalar_list_schedule(
            specs, p=3, comm=ZERO_COMM, overlap=PERFECT_OVERLAP, degrees=degrees
        )
        assert multi.makespan == pytest.approx(scalar.makespan)
