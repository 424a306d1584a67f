"""Differential oracle for degree selection (Equation (1), Section 6.1).

:class:`~repro.core.cloning.ParallelTimeCurve` hoists everything that
does not depend on the degree, and :func:`response_optimal_degree`
bisects the convex ``T_par`` curve for the first degree that does not
fall, then walks back and replays the scan's tie rule.  The reference
below takes the long way: clone vectors from :class:`WorkVector`
arithmetic, the maximum ``T_seq`` over both kinds of clone, and a scan
over every degree ``1..p``.  Degrees must agree exactly, ``T_par`` and the
clone and total vectors bit for bit, and degree selection must stay
within the bisection's ``O(log p)`` evaluation bound, exact ties included.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cloning import (
    CoordinatorPolicy,
    OperatorSpec,
    ParallelTimeCurve,
    clone_work_vectors,
    coarse_grain_degree,
    minimum_parallel_time,
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


#: ``c`` in the bound ``2*ceil(log2(p + 1)) + c``: the walk-back evaluates
#: one more degree per step it takes past the bisection's last probe pair,
#: i.e. per degree of a stretch flat to within the tie margin.  Over 3,000
#: draws each of :func:`problems` and :func:`exact_ties` no call needed more
#: than ``2*ceil(log2(p + 1)) - 1``; ``c = 2`` admits a flat stretch of three
#: degrees without any of the bisection's memo hits.
WALK_BACK = 2


def evaluation_bound(p: int) -> int:
    """The bisection's ``T_seq`` budget: two per step, plus :data:`WALK_BACK`."""
    return 2 * math.ceil(math.log2(p + 1)) + WALK_BACK


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


@st.composite
def exact_ties(draw):
    """Operators whose ``T_par`` ties (or nearly ties) at degrees ``m, m+1``.

    With ``beta = 0``, the whole startup on one axis and no overlap
    (``eps = 0``, ``T_seq`` = the component sum), ``T(n) = sum(B)/n + alpha*n``
    for the base vector ``B``, and ``alpha = sum(B) / (m(m+1))`` makes
    ``T(m) == T(m+1)``.  Scaling ``alpha`` by ``1 ± 1e-13`` or ``1 + 1e-15``
    puts the two degrees within the ``1e-12`` tie margin of each other,
    ``1 ± 1e-11`` just outside it; ``eps > 0`` bends the curve around the tie.
    """
    d = draw(st.integers(min_value=1, max_value=4))
    work = draw(
        st.lists(st.one_of(st.just(0.0), magnitude(-3.0, 3.0)), min_size=d, max_size=d)
    )
    m = draw(st.integers(min_value=1, max_value=3000))
    scale = draw(
        st.sampled_from([1.0, 1.0 - 1e-13, 1.0 + 1e-13, 1.0 - 1e-11, 1.0 + 1e-11, 1.0 + 1e-15])
    )
    epsilon = draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)))
    axis = draw(st.integers(min_value=0, max_value=d - 1))
    p = max(1, m + draw(st.integers(min_value=-2, max_value=3)))
    return (
        OperatorSpec(name="tie", work=WorkVector(work)),
        p,
        CommunicationModel(alpha=sum(work) / (m * (m + 1)) * scale, beta=0.0),
        epsilon,
        CoordinatorPolicy(cpu_axis=axis, network_axis=axis),
    )


# ----------------------------------------------------------------------
# The oracle.
# ----------------------------------------------------------------------
def check_against_full_scan(spec, p, comm, epsilon, policy):
    """Assert the scan's degree within the bisection's evaluation bound."""
    overlap = CountingOverlap(epsilon)
    n_rt = response_optimal_degree(spec, p, comm, overlap, policy)
    times = reference_times(spec, p, comm, ConvexCombinationOverlap(epsilon), policy)
    assert n_rt == reference_degree(times)
    assert len(overlap.calls) <= evaluation_bound(p)
    return n_rt, times


@settings(max_examples=80, deadline=None)
@given(problems())
def test_response_optimal_degree_matches_full_scan(problem):
    check_against_full_scan(*problem)


@settings(max_examples=80, deadline=None)
@given(exact_ties())
def test_ties_resolve_like_the_full_scan(problem):
    check_against_full_scan(*problem)


@settings(max_examples=30, deadline=None)
@given(problems())
def test_curve_without_startup_falls_to_p(problem):
    """With ``alpha = 0`` every degree speeds up a working operator."""
    spec, p, _, epsilon, policy = problem
    n_rt, times = check_against_full_scan(
        spec, p, CommunicationModel(alpha=0.0, beta=0.0), epsilon, policy
    )
    assert n_rt == (p if times[0] > 0.0 else 1)


@settings(max_examples=30, deadline=None)
@given(problems())
def test_flat_curve_keeps_one_clone(problem):
    """An operator with no work and no startup is equally fast at any degree."""
    spec, p, _, epsilon, policy = problem
    idle = OperatorSpec(name="idle", work=WorkVector([0.0] * spec.d))
    n_rt, times = check_against_full_scan(
        idle, p, CommunicationModel(alpha=0.0, beta=0.0), epsilon, policy
    )
    assert n_rt == 1 and set(times) == {0.0}


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
    """A Table 2 operator on 4096 sites evaluates 22 degrees, not ``N_rt + 1 = 35``."""
    spec = OperatorSpec(name="scan", work=WorkVector([10.0, 5.0, 0.0]), data_volume=1e6)
    comm = CommunicationModel(alpha=0.015, beta=0.6e-6)
    overlap = CountingOverlap(0.5)
    assert response_optimal_degree(spec, 4096, comm, overlap) == 34
    assert len(overlap.calls) == 22
    # Each degree's T_par is evaluated at most once.
    assert len({w.components for w in overlap.calls}) == 22


# ----------------------------------------------------------------------
# The screen's t_min: the smallest T_par over 1..p, to the bit.
# ----------------------------------------------------------------------
#: Window probes beyond the bisection's budget.  The window's stop probes
#: are mostly degrees the bisection has already evaluated: over 3,000
#: draws each of :func:`problems` and :func:`exact_ties` no call needed
#: more than ``2*ceil(log2(p + 1))`` evaluations in all.  Two more admit a
#: stretch of two degrees within ``1e-9`` of the minimum.
WINDOW = 2


def check_minimum_against_full_scan(spec, p, comm, epsilon, policy):
    overlap = CountingOverlap(epsilon)
    t_min = minimum_parallel_time(ParallelTimeCurve(spec, comm, policy), p, overlap)
    times = reference_times(spec, p, comm, ConvexCombinationOverlap(epsilon), policy)
    assert bits([t_min]) == bits([min(times)])
    assert len(overlap.calls) <= 2 * math.ceil(math.log2(p + 1)) + WINDOW
    return times


@settings(max_examples=80, deadline=None)
@given(problems())
def test_minimum_parallel_time_matches_full_scan(problem):
    check_minimum_against_full_scan(*problem)


@settings(max_examples=80, deadline=None)
@given(exact_ties())
def test_minimum_at_exact_and_near_ties_matches_full_scan(problem):
    check_minimum_against_full_scan(*problem)


@settings(max_examples=30, deadline=None)
@given(problems())
def test_minimum_of_a_flat_curve(problem):
    """No work and no startup: every degree is 0.0; a falling curve ends at p."""
    spec, p, _, epsilon, policy = problem
    no_startup = CommunicationModel(alpha=0.0, beta=0.0)
    idle = OperatorSpec(name="idle", work=WorkVector([0.0] * spec.d))
    assert set(check_minimum_against_full_scan(idle, p, no_startup, epsilon, policy)) == {0.0}
    check_minimum_against_full_scan(spec, p, no_startup, epsilon, policy)


class NoisyPlateau:
    """A convex ``T_par`` curve with a flat bottom, computed with ulp noise.

    ``max(floor, a/n + b*n)`` plus ``-2..2`` ulps drawn per ``n``: on
    the plateau the smallest computed value can sit at any degree, not
    where a bisection lands, so only the window finds it.  Stands in for
    :class:`ParallelTimeCurve` (``minimum_parallel_time`` calls ``t_par``).
    """

    def __init__(self, a: float, b: float, floor: float, seed: int) -> None:
        self.a, self.b, self.floor, self.seed = a, b, floor, seed
        self.calls = 0

    def t_par(self, n: int, overlap) -> float:
        self.calls += 1
        exact = max(self.floor, self.a / n + self.b * n)
        noise = random.Random(self.seed * 65537 + n).randint(-2, 2)
        return exact + noise * math.ulp(exact)


@settings(max_examples=150, deadline=None)
@given(
    a=magnitude(-2.0, 4.0),
    b=magnitude(-4.0, 0.0),
    lift=st.one_of(st.just(1.0), st.floats(min_value=1.0, max_value=1.5)),
    seed=st.integers(min_value=0, max_value=10**6),
    p=st.integers(min_value=1, max_value=512),
)
def test_minimum_on_a_noisy_plateau_matches_full_scan(a, b, lift, seed, p):
    floor = lift * min(a / n + b * n for n in range(1, p + 1))
    curve = NoisyPlateau(a, b, floor, seed)
    expected = min(curve.t_par(n, None) for n in range(1, p + 1))
    assert bits([minimum_parallel_time(curve, p, None)]) == bits([expected])
