"""Tests for the batch kernels (repro.core.batch)."""

from __future__ import annotations

import ast
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    CloneItem,
    ConvexCombinationOverlap,
    OperatorSpec,
    SchedulingError,
    WorkVector,
    lower_bound,
    lower_bound_family,
    pack_vectors,
    set_length,
)
from repro.core import batch
from repro.core.granularity import CommunicationModel
from repro.core.resource_model import ConvexCombinationOverlap as Overlap


def vecs(seed, n, d=3):
    rng = random.Random(seed)
    return [WorkVector([rng.uniform(0.0, 10.0) for _ in range(d)]) for _ in range(n)]


class TestSetLengthBatch:
    def test_ragged_groups_with_empty(self):
        groups = [vecs(0, 3), [], vecs(1, 70)]
        out = batch.set_length_batch(groups, d=3)
        assert out == [set_length(groups[0]), 0.0, set_length(groups[2])]

    def test_dimension_mismatch_rejected(self):
        # Both a lone vector and a wide group must be checked against d.
        for size in (1, 64):
            groups = [[WorkVector([1.0, 2.0])] * size]
            with pytest.raises(SchedulingError):
                batch.set_length_batch(groups, d=3)
            with pytest.raises(SchedulingError):
                batch.lower_bounds_batch(groups, [0.0], p=2, d=3)

    def test_invalid_dimensionality(self):
        with pytest.raises(SchedulingError):
            batch.set_length_batch([], d=0)


class TestLowerBoundsBatch:
    def test_matches_scalar_lower_bound(self):
        comm = CommunicationModel(alpha=1.0, beta=0.01)
        overlap = Overlap(0.5)
        rng = random.Random(9)
        specs = [
            OperatorSpec(
                name=f"op{i}",
                work=WorkVector([rng.uniform(1.0, 40.0) for _ in range(3)]),
                data_volume=rng.uniform(10.0, 200.0),
            )
            for i in range(6)
        ]
        family = [
            {spec.name: 1 for spec in specs},
            {spec.name: (2 if i % 2 else 1) for i, spec in enumerate(specs)},
            {spec.name: 3 for spec in specs},
        ]
        batched = lower_bound_family(specs, family, 4, comm, overlap)
        for degrees, lb in zip(family, batched):
            assert lb == pytest.approx(
                lower_bound(specs, degrees, 4, comm, overlap), rel=1e-12
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(SchedulingError):
            batch.lower_bounds_batch([[]], [0.0, 1.0], p=2, d=3)

    def test_invalid_p(self):
        with pytest.raises(SchedulingError):
            batch.lower_bounds_batch([[]], [0.0], p=0, d=3)

    def test_empty_specs_family(self):
        assert lower_bound_family([], [{}, {}], 2, None, None) == [0.0, 0.0]


class TestEq3OverEpsilon:
    @staticmethod
    def _schedule(n=50, p=6, seed=4):
        rng = random.Random(seed)
        items = [
            CloneItem(
                operator=f"op{i}",
                clone_index=0,
                work=WorkVector([rng.uniform(0.1, 10.0) for _ in range(3)]),
            )
            for i in range(n)
        ]
        return items, pack_vectors(items, p=p, overlap=ConvexCombinationOverlap(0.5))

    @staticmethod
    def _heterogeneous_schedule():
        from repro.core.schedule import Schedule
        from repro.core.site import PlacedClone

        overlap = ConvexCombinationOverlap(0.5)
        schedule = Schedule(2, 3, [4.0, 0.5])
        for j, name, raw in ((0, "a", [4.0, 1.0, 1.0]), (1, "b", [2.0, 2.0, 1.0])):
            work = WorkVector(raw)
            schedule.place(
                j,
                PlacedClone(
                    operator=name, clone_index=0, work=work, t_seq=overlap.t_seq(work)
                ),
            )
        return schedule

    def test_matches_recompute_t_seq_per_epsilon(self):
        # The heterogeneous input pins the capacity division of Eq. (2):
        # its makespan at eps = 0.5 is 3.5 / 0.5 = 7.0 on the slow site,
        # while no raw clone time or site length exceeds 5.0.
        _, homogeneous = self._schedule()
        epsilons = (0.0, 0.1, 0.3, 0.5, 0.7, 1.0)
        for schedule in (homogeneous, self._heterogeneous_schedule()):
            spans = batch.eq3_makespans_over_epsilon(schedule, epsilons)
            for eps, span in zip(epsilons, spans):
                overlap = ConvexCombinationOverlap(eps)
                rebuilt = max(
                    site.recompute_t_seq(overlap).t_site() for site in schedule.sites
                )
                assert span == rebuilt

    def test_empty_schedule(self):
        from repro.core.schedule import Schedule

        spans = batch.eq3_makespans_over_epsilon(Schedule(3, 3), (0.1, 0.9))
        assert spans == [0.0, 0.0]

    def test_rejects_out_of_range_epsilon(self):
        _, schedule = self._schedule(n=4, p=2)
        with pytest.raises(SchedulingError):
            batch.eq3_makespans_over_epsilon(schedule, (1.5,))


class TestOverlapRobustness:
    def test_figure_shape_and_values(self):
        from repro.experiments import overlap_robustness

        _, schedule = TestEq3OverEpsilon._schedule()
        fig = overlap_robustness(schedule, (0.1, 0.5, 0.9))
        assert len(fig.series) == 1
        assert fig.series[0].xs == (0.1, 0.5, 0.9)
        expected = batch.eq3_makespans_over_epsilon(schedule, (0.1, 0.5, 0.9))
        assert list(fig.series[0].ys) == expected

    def test_requires_epsilons(self):
        from repro.exceptions import ConfigurationError
        from repro.experiments import overlap_robustness

        _, schedule = TestEq3OverEpsilon._schedule(n=4, p=2)
        with pytest.raises(ConfigurationError):
            overlap_robustness(schedule, ())


class TestFamilyCongestions:
    def test_matches_sequential_fold(self):
        p = 4
        load0 = [3.0, 1.0, 2.0]
        delta = [0.5, 0.25, 0.125]
        steps = 72
        out = batch.family_congestions(load0, delta, steps, p)
        assert len(out) == steps + 1
        load = list(load0)
        expected = [max(load) / p]
        for _ in range(steps):
            load = [a + b for a, b in zip(load, delta)]
            expected.append(max(load) / p)
        assert out == expected  # exact: strict left fold

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        d=st.integers(min_value=1, max_value=4),
        steps=st.integers(min_value=0, max_value=300),
        capacity=st.floats(min_value=0.5, max_value=64.0),
    )
    def test_bit_identical_to_explicit_fold(self, data, d, steps, capacity):
        finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
        load0 = data.draw(st.lists(finite, min_size=d, max_size=d))
        delta = data.draw(st.lists(finite, min_size=d, max_size=d))
        out = batch.family_congestions(
            load0, delta, steps, 3, total_capacity=capacity
        )
        load = list(load0)
        expected = [max(load) / capacity]
        for _ in range(steps):
            for i, c in enumerate(delta):
                load[i] += c
            expected.append(max(load) / capacity)
        assert [v.hex() for v in out] == [v.hex() for v in expected]

    def test_zero_steps(self):
        assert batch.family_congestions([4.0], [1.0], 0, 2) == [2.0]


def test_numpy_flag_matches_environment():
    """HAVE_NUMPY must mirror actual importability (the no-numpy CI job
    exercises the False side)."""
    try:
        import numpy  # noqa: F401

        available = True
    except ImportError:
        available = False
    assert batch.HAVE_NUMPY is available


def test_core_never_imports_numpy():
    """The scheduling core is pure Python: no module in it imports numpy."""
    core = pathlib.Path(batch.__file__).parent
    offenders = []
    for path in sorted(core.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
