"""Tests for schedules and the Equation (3) response-time model."""

from __future__ import annotations

import pytest

from repro import (
    OperatorHome,
    PhasedSchedule,
    PlacedClone,
    Schedule,
    SchedulingError,
    Site,
    WorkVector,
)


def clone(op, w, t, k=0):
    return PlacedClone(operator=op, clone_index=k, work=WorkVector(w), t_seq=t)


class TestOperatorHome:
    def test_degree(self):
        home = OperatorHome(operator="a", site_indices=(3, 1, 4))
        assert home.degree == 3

    def test_empty_rejected(self):
        with pytest.raises(SchedulingError):
            OperatorHome(operator="a", site_indices=())

    def test_duplicate_site_rejected(self):
        with pytest.raises(SchedulingError):
            OperatorHome(operator="a", site_indices=(1, 1))


class TestScheduleBasics:
    def test_empty(self):
        s = Schedule(4, 3)
        assert s.p == 4
        assert s.d == 3
        assert s.makespan() == 0.0
        assert s.clone_count() == 0
        assert s.operators == frozenset()

    def test_invalid_p(self):
        with pytest.raises(SchedulingError):
            Schedule(0, 3)

    def test_place_and_metrics(self):
        s = Schedule(2, 2)
        s.place(0, clone("a", [10.0, 15.0], 22.0))
        s.place(0, clone("b", [10.0, 5.0], 10.0, k=0))
        s.place(1, clone("c", [5.0, 10.0], 12.0))
        assert s.clone_count() == 3
        assert s.makespan() == 22.0
        assert s.max_parallel_time() == 22.0
        assert s.max_site_length() == 20.0
        assert s.bottleneck_site().index == 0
        assert not s.is_congestion_bound()

    def test_congestion_bound_case(self):
        s = Schedule(1, 2)
        s.place(0, clone("a", [10.0, 15.0], 22.0))
        s.place(0, clone("b", [5.0, 10.0], 10.0))
        assert s.makespan() == 25.0
        assert s.is_congestion_bound()

    def test_equation3_decomposition(self):
        s = Schedule(3, 2)
        s.place(0, clone("a", [2.0, 1.0], 2.5))
        s.place(1, clone("b", [1.0, 3.0], 3.2))
        assert s.makespan() == max(s.max_parallel_time(), s.max_site_length())

    def test_out_of_range_site(self):
        s = Schedule(2, 2)
        with pytest.raises(SchedulingError):
            s.place(2, clone("a", [1.0, 1.0], 1.0))

    def test_total_work_and_utilization(self):
        s = Schedule(2, 2)
        s.place(0, clone("a", [4.0, 0.0], 4.0))
        s.place(1, clone("b", [0.0, 4.0], 4.0))
        assert s.total_work() == WorkVector([4.0, 4.0])
        util = s.average_utilization()
        assert util == (0.5, 0.5)


class TestHomes:
    def test_home_ordering_by_clone_index(self):
        s = Schedule(3, 2)
        s.place(2, clone("a", [1.0, 1.0], 1.5, k=1))
        s.place(0, clone("a", [1.0, 1.0], 1.5, k=0))
        home = s.home("a")
        assert home.site_indices == (0, 2)
        assert s.homes() == {"a": home}

    def test_missing_home(self):
        with pytest.raises(SchedulingError):
            Schedule(1, 2).home("ghost")


class TestValidation:
    def test_valid_schedule_passes(self):
        s = Schedule(2, 2)
        s.place(0, clone("a", [1.0, 1.0], 1.5, k=0))
        s.place(1, clone("a", [1.0, 1.0], 1.5, k=1))
        s.validate()
        s.validate(degrees={"a": 2})

    def test_degree_mismatch_detected(self):
        s = Schedule(2, 2)
        s.place(0, clone("a", [1.0, 1.0], 1.5, k=0))
        with pytest.raises(SchedulingError):
            s.validate(degrees={"a": 2})

    def test_gapped_clone_indices_detected(self):
        s = Schedule(2, 2)
        s.place(0, clone("a", [1.0, 1.0], 1.5, k=0))
        s.place(1, clone("a", [1.0, 1.0], 1.5, k=2))
        with pytest.raises(SchedulingError):
            s.validate()


class TestCopy:
    def _schedule(self):
        s = Schedule(3, 2, [1.0, 2.0, 0.5])
        s.place(2, clone("a", [0.1, 0.2], 0.25, k=0))
        s.place(0, clone("a", [0.3, 0.7], 0.9, k=1))
        s.place(0, clone("b", [1e-300, 5e-324], 1e-300))
        s.disable_site(1)
        return s

    @staticmethod
    def _state(s):
        return (
            [
                (
                    site.clones,
                    [x.hex() for x in site.load_vector().components],
                    site.length().hex(),
                    site.total_load().hex(),
                    site.max_t_seq().hex(),
                    site.capacity.hex(),
                    site.operators,
                )
                for site in s.sites
            ],
            list(s.homes().items()),
            [x.hex() for x in s.total_work().components],
            s.clone_count(),
            s.disabled_sites,
        )

    def test_copy_has_identical_state(self):
        s = self._schedule()
        assert self._state(s.copy()) == self._state(s)

    def test_copy_is_independent(self):
        s = self._schedule()
        before = self._state(s)
        dup = s.copy()
        dup.place(0, clone("c", [1.0, 1.0], 1.5))
        dup.remove_operator("a")
        dup.enable_site(1)
        dup.place(1, clone("a", [2.0, 0.0], 2.0))
        assert self._state(s) == before
        assert dup.site(0).operators == frozenset({"b", "c"})

    def test_site_copy_is_independent(self):
        site = Site(0, 2, 2.0)
        site.place(clone("a", [1.0, 2.0], 2.5))
        dup = site.copy()
        dup.place(clone("b", [3.0, 0.0], 3.0))
        assert (len(site), site.length(), site.operators) == (1, 2.0, frozenset({"a"}))
        assert (dup.length(), dup.total_load(), dup.capacity) == (4.0, 6.0, 2.0)


class TestPhasedSchedule:
    def _phase(self, t):
        s = Schedule(1, 2)
        s.place(0, clone(f"op{t}", [t, 0.0], t))
        return s

    def test_response_time_is_phase_sum(self):
        ps = PhasedSchedule()
        ps.append(self._phase(2.0), "first")
        ps.append(self._phase(3.0))
        assert ps.num_phases == 2
        assert ps.response_time() == 5.0
        assert ps.phase_makespans() == [2.0, 3.0]
        assert ps.labels == ["first", "phase-1"]

    def test_home_searches_phases(self):
        ps = PhasedSchedule()
        ps.append(self._phase(2.0))
        assert ps.home("op2.0").site_indices == (0,)
        with pytest.raises(SchedulingError):
            ps.home("ghost")

    def test_validate_delegates(self):
        ps = PhasedSchedule()
        ps.append(self._phase(1.0))
        ps.validate()

    def test_empty_phased(self):
        ps = PhasedSchedule()
        assert ps.response_time() == 0.0
        assert ps.num_phases == 0
