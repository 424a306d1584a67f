"""Tests for sites and the Equation (2) time-sharing model."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro import (
    ConvexCombinationOverlap,
    PlacedClone,
    SchedulingError,
    Site,
    WorkVector,
)


def clone(op, w, t, k=0):
    return PlacedClone(operator=op, clone_index=k, work=WorkVector(w), t_seq=t)


class TestPlacedClone:
    """The record's contract: fields, immutability, value semantics, repr."""

    def test_fields_in_order(self):
        work = WorkVector([1.0, 2.0])
        c = PlacedClone("scan", 3, work, 2.5)
        assert (c.operator, c.clone_index, c.work, c.t_seq) == ("scan", 3, work, 2.5)
        assert c == clone("scan", [1.0, 2.0], 2.5, k=3)

    @pytest.mark.parametrize("field", ["operator", "clone_index", "work", "t_seq"])
    def test_fields_are_read_only(self, field):
        c = clone("scan", [1.0, 2.0], 2.5)
        with pytest.raises(AttributeError):
            setattr(c, field, None)
        with pytest.raises(AttributeError):
            c.extra = 1

    def test_equality_and_hash_by_value(self):
        a = clone("scan", [1.0, 2.0], 2.5, k=1)
        b = clone("scan", [1.0, 2.0], 2.5, k=1)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != clone("scan", [1.0, 2.0], 2.5, k=2)
        assert a != clone("scan", [1.0, 2.5], 2.5, k=1)
        assert a != clone("scan", [1.0, 2.0], 3.0, k=1)

    def test_repr(self):
        assert repr(clone("scan(A)", [1.0, 2.5], 3.0, k=2)) == (
            "PlacedClone(operator='scan(A)', clone_index=2, "
            "work=WorkVector([1, 2.5]), t_seq=3.0)"
        )


class TestConstruction:
    def test_empty_site(self):
        s = Site(0, 3)
        assert s.is_empty()
        assert s.t_site() == 0.0
        assert len(s) == 0
        assert s.utilization() == (0.0, 0.0, 0.0)

    def test_invalid_index(self):
        with pytest.raises(SchedulingError):
            Site(-1, 3)

    def test_invalid_dimension(self):
        with pytest.raises(SchedulingError):
            Site(0, 0)


class TestPlacement:
    def test_place_and_introspect(self):
        s = Site(2, 2)
        s.place(clone("a", [1.0, 2.0], 2.5))
        assert not s.is_empty()
        assert s.hosts_operator("a")
        assert not s.hosts_operator("b")
        assert s.operators == frozenset({"a"})
        assert s.load_vector() == WorkVector([1.0, 2.0])

    def test_constraint_a_enforced(self):
        s = Site(0, 2)
        s.place(clone("a", [1.0, 0.0], 1.0, k=0))
        with pytest.raises(SchedulingError):
            s.place(clone("a", [1.0, 0.0], 1.0, k=1))

    def test_dimension_mismatch(self):
        s = Site(0, 3)
        with pytest.raises(SchedulingError):
            s.place(clone("a", [1.0, 2.0], 2.0))

    def test_incremental_load(self):
        s = Site(0, 2)
        s.place(clone("a", [1.0, 2.0], 2.5))
        s.place(clone("b", [3.0, 1.0], 3.5))
        assert s.load_vector() == WorkVector([4.0, 3.0])
        assert s.length() == 4.0
        assert s.load_component(1) == 3.0
        assert s.max_t_seq() == 3.5


class TestEquationTwo:
    def test_paper_example_squeeze(self):
        # (22, [10,15]) with (10, [10,5]): total [20,20] fits inside 22.
        s = Site(0, 2)
        s.place(clone("op1", [10.0, 15.0], 22.0))
        s.place(clone("op2", [10.0, 5.0], 10.0))
        assert s.t_site() == 22.0

    def test_paper_example_congestion(self):
        # (22, [10,15]) with (10, [5,10]): resource 2 congests at 25.
        s = Site(0, 2)
        s.place(clone("op1", [10.0, 15.0], 22.0))
        s.place(clone("op3", [5.0, 10.0], 10.0))
        assert s.t_site() == 25.0

    def test_single_clone(self):
        s = Site(0, 2)
        s.place(clone("a", [3.0, 4.0], 5.0))
        assert s.t_site() == 5.0

    def test_utilization_at_horizon(self):
        s = Site(0, 2)
        s.place(clone("a", [10.0, 5.0], 10.0))
        util = s.utilization()
        assert util == (1.0, 0.5)

    @given(
        st.lists(
            st.tuples(
                st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=2),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_t_site_bounds(self, raw):
        """max(T_seq) <= T_site <= sum(T_seq) for any clone set."""
        model = ConvexCombinationOverlap(0.5)
        s = Site(0, 2)
        ts = []
        for i, (comps, _) in enumerate(raw):
            w = WorkVector(comps)
            t = model.t_seq(w)
            ts.append(t)
            s.place(clone(f"op{i}", comps, t))
        assert s.t_site() >= max(ts) - 1e-9
        assert s.t_site() <= sum(ts) + 1e-6


class TestRecompute:
    def test_recompute_with_other_overlap(self):
        s = Site(0, 2)
        w = [10.0, 5.0]
        s.place(clone("a", w, ConvexCombinationOverlap(0.0).t_seq(WorkVector(w))))
        fresh = s.recompute_t_seq(ConvexCombinationOverlap(1.0))
        assert fresh.max_t_seq() == 10.0
        assert fresh.index == s.index
        # Original untouched.
        assert s.max_t_seq() == 15.0

    def test_repr_mentions_metrics(self):
        s = Site(1, 2)
        s.place(clone("a", [1.0, 2.0], 2.0))
        assert "Site(index=1" in repr(s)
