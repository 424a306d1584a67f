"""Differential oracle for degree selection (Equation (1), Section 6.1).

:class:`~repro.core.cloning.ParallelTimeCurve` hoists everything that
does not depend on the degree, and :func:`response_optimal_degree` stops
at the first degree whose ``T_par`` does not fall.  The reference below
takes the long way: clone vectors from :class:`WorkVector` arithmetic,
the maximum ``T_seq`` over both kinds of clone, and a scan over every
degree ``1..p``.  Degrees must agree exactly, ``T_par`` and the clone and
total vectors bit for bit, and the scan must stop right after ``N_rt``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cloning import (
    CoordinatorPolicy,
    OperatorSpec,
    ParallelTimeCurve,
    clone_work_vectors,
    coarse_grain_degree,
    parallel_time,
    response_optimal_degree,
    total_work_vector,
)
from repro.core.granularity import CommunicationModel
from repro.core.resource_model import ConvexCombinationOverlap
from repro.core.work_vector import WorkVector

#: The scan's tie margin: a degree must be faster by this relative factor.
MARGIN = 1.0 - 1e-12


class CountingOverlap(ConvexCombinationOverlap):
    """EA2 overlap that records every ``T_seq`` evaluation."""

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "calls", [])

    def t_seq(self, work: WorkVector) -> float:
        self.calls.append(work)
        return super().t_seq(work)


# ----------------------------------------------------------------------
# The reference: WorkVector arithmetic and a full scan.
# ----------------------------------------------------------------------
def reference_vectors(spec, n, comm, policy):
    """``(share, coordinator, total)`` built from WorkVector arithmetic."""
    d = spec.d
    net_axis = policy.network_axis if policy.network_axis is not None else d - 1
    base = spec.work + WorkVector.unit(d, net_axis, comm.transfer_cost(spec.data_volume))
    share = base / n
    startup = comm.startup_cost(n)
    if startup > 0.0:
        startup_vector = policy.startup_vector(d, startup)
        return share, share + startup_vector, base + startup_vector
    return share, share, base


def reference_parallel_time(spec, n, comm, overlap, policy):
    """Equation (1): the maximum ``T_seq`` over the coordinator and a share."""
    share, coordinator, _ = reference_vectors(spec, n, comm, policy)
    t_coord = overlap.t_seq(coordinator)
    if n == 1:
        return t_coord
    return max(t_coord, overlap.t_seq(share))


def reference_times(spec, p, comm, overlap, policy):
    return [reference_parallel_time(spec, n, comm, overlap, policy) for n in range(1, p + 1)]


def reference_degree(times):
    """The full scan: the first degree that no later one beats by the margin."""
    best_n, best_t = 1, times[0]
    for n, t in enumerate(times[1:], start=2):
        if t < best_t * MARGIN:
            best_n, best_t = n, t
    return best_n


def bits(values):
    return [float(v).hex() for v in values]


# ----------------------------------------------------------------------
# Random operators and models.
# ----------------------------------------------------------------------
def magnitude(lo: float, hi: float):
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0**e)


@st.composite
def problems(draw, max_p: int = 4096):
    d = draw(st.integers(min_value=1, max_value=4))
    # Work components spanning six orders of magnitude, some idle.
    work = draw(
        st.lists(st.one_of(st.just(0.0), magnitude(-3.0, 3.0)), min_size=d, max_size=d)
    )
    data = draw(st.one_of(st.just(0.0), magnitude(0.0, 8.0)))
    alpha = draw(st.one_of(st.just(0.0), st.just(0.015), magnitude(-6.0, 0.0)))
    beta = draw(st.one_of(st.just(0.0), st.just(0.6e-6), magnitude(-9.0, -5.0)))
    epsilon = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)))
    cpu_axis = draw(st.integers(min_value=0, max_value=d - 1))
    network_axis = draw(
        st.one_of(st.none(), st.just(cpu_axis), st.integers(min_value=0, max_value=d - 1))
    )
    cpu_fraction = draw(st.one_of(st.just(0.5), st.floats(min_value=0.0, max_value=1.0)))
    p = draw(
        st.one_of(
            st.integers(min_value=1, max_value=64),
            st.integers(min_value=65, max_value=max_p),
            st.just(max_p),
        )
    )
    return (
        OperatorSpec(name="op", work=WorkVector(work), data_volume=data),
        p,
        CommunicationModel(alpha=alpha, beta=beta),
        epsilon,
        CoordinatorPolicy(cpu_axis=cpu_axis, network_axis=network_axis, cpu_fraction=cpu_fraction),
    )


# ----------------------------------------------------------------------
# The oracle.
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(problems())
def test_response_optimal_degree_matches_full_scan(problem):
    spec, p, comm, epsilon, policy = problem
    overlap = CountingOverlap(epsilon)
    n_rt = response_optimal_degree(spec, p, comm, overlap, policy)
    evaluations = len(overlap.calls)

    times = reference_times(spec, p, comm, ConvexCombinationOverlap(epsilon), policy)
    assert n_rt == reference_degree(times)
    # One T_seq per degree up to the first one that does not fall.
    stop = next((n for n in range(2, p + 1) if times[n - 1] >= times[n - 2]), p)
    assert evaluations == stop
    assert evaluations <= n_rt + 2
    if evaluations == n_rt + 2:
        # A near-tie: degree N_rt + 1 fell, but by less than the margin.
        assert times[n_rt - 1] * MARGIN <= times[n_rt] < times[n_rt - 1]


@settings(max_examples=100, deadline=None)
@given(problems(max_p=512))
def test_hoisted_curve_is_bit_identical_to_work_vector_arithmetic(problem):
    spec, p, comm, epsilon, policy = problem
    overlap = ConvexCombinationOverlap(epsilon)
    curve = ParallelTimeCurve(spec, comm, policy)
    for n in range(1, p + 1):
        expected = bits([reference_parallel_time(spec, n, comm, overlap, policy)])
        assert bits([curve.t_par(n, overlap)]) == expected
        assert bits([parallel_time(spec, n, comm, overlap, policy)]) == expected
        share, coordinator, total = reference_vectors(spec, n, comm, policy)
        assert bits(curve.total(n)) == bits(total)
        assert bits(total_work_vector(spec, n, comm, policy)) == bits(total)
        if n <= 8:
            clones = clone_work_vectors(spec, n, comm, policy)
            assert [bits(c) for c in clones] == [bits(coordinator)] + [bits(share)] * (n - 1)


@settings(max_examples=100, deadline=None)
@given(problems(max_p=1024), st.sampled_from([0.05, 0.2, 0.7, 2.0]))
def test_coarse_grain_degree_matches_full_scan(problem, f):
    spec, p, comm, epsilon, policy = problem
    overlap = ConvexCombinationOverlap(epsilon)
    n_cap = min(comm.n_max(f, spec.processing_area, spec.data_volume), p)
    expected = 1
    if n_cap > 1:
        expected = min(n_cap, reference_degree(reference_times(spec, n_cap, comm, overlap, policy)))
    assert coarse_grain_degree(spec, p, f, comm, overlap, policy) == expected


def test_paper_operator_stops_after_the_optimum():
    """A Table 2 operator on 4096 sites evaluates ``N_rt + 1`` degrees, not ``P``."""
    spec = OperatorSpec(name="scan", work=WorkVector([10.0, 5.0, 0.0]), data_volume=1e6)
    comm = CommunicationModel(alpha=0.015, beta=0.6e-6)
    overlap = CountingOverlap(0.5)
    n_rt = response_optimal_degree(spec, 4096, comm, overlap)
    assert 1 < n_rt < 100
    assert len(overlap.calls) == n_rt + 1
