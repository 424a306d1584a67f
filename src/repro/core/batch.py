"""Batch kernels for bounds, Equation (3) sweeps and the malleable family.

The figure sweeps evaluate the same small formulas thousands of times:
``l(S)`` of a set of work vectors (the congestion side of the ``LB(N̄)``
lower bound), the Equation (3) makespan of a packing re-evaluated under
many overlap parameters (sensitivity analysis), and the congestion curve
of the Section 7 greedy family.  This module evaluates each of them for a
whole batch in one call.

Every kernel is exact pure Python: it performs the same left-to-right
float operations as the scalar formula it batches, so results are
bit-identical to the scalar code on every host.  numpy is not needed
here; :data:`HAVE_NUMPY` only reports whether the optional extra (used
by workload generation and plan sampling) is installed.
"""

from __future__ import annotations

import importlib.util
from collections.abc import Sequence
from itertools import accumulate, repeat

from repro.exceptions import SchedulingError
from repro.core.schedule import Schedule
from repro.core.work_vector import WorkVector, vector_sum

#: Whether the optional numpy extra is installed (no kernel branches on it).
HAVE_NUMPY = importlib.util.find_spec("numpy") is not None

__all__ = [
    "HAVE_NUMPY",
    "set_length_batch",
    "lower_bounds_batch",
    "eq3_makespans_over_epsilon",
    "family_congestions",
]


def set_length_batch(
    groups: Sequence[Sequence[WorkVector]], d: int
) -> list[float]:
    """Return ``l(S_k)`` for every group ``S_k`` in one pass.

    Ragged groups are supported; empty groups yield ``0.0``.  Every
    vector must have dimensionality ``d``.
    """
    if d < 1:
        raise SchedulingError(f"dimensionality must be >= 1, got {d}")
    out = []
    for g in map(list, groups):
        for v in g:
            if v.d != d:
                raise SchedulingError(
                    f"dimensionality mismatch in set_length_batch: {v.d} vs {d}"
                )
        out.append(vector_sum(g).length() if g else 0.0)
    return out


def lower_bounds_batch(
    groups: Sequence[Sequence[WorkVector]],
    h_values: Sequence[float],
    p: int,
    d: int,
    *,
    total_capacity: float | None = None,
) -> list[float]:
    """Return ``LB_k = max{ l(S_k)/C, h_k }`` for a family of candidates.

    ``groups[k]`` holds candidate ``k``'s total work vectors
    (communication included) and ``h_values[k]`` its slowest operator's
    parallel time — the two inputs of the Section 7 lower bound.  ``C``
    is the total system capacity: ``P`` on a homogeneous cluster (the
    default), ``sum of site capacities`` on a heterogeneous one.  With
    ``total_capacity == float(p)`` the division is bit-identical to the
    historical ``/ p``.
    """
    if p < 1:
        raise SchedulingError(f"number of sites must be >= 1, got {p}")
    if len(groups) != len(h_values):
        raise SchedulingError(
            f"lower_bounds_batch: {len(groups)} groups vs {len(h_values)} h values"
        )
    denom = float(p) if total_capacity is None else float(total_capacity)
    if not denom > 0.0:
        raise SchedulingError(
            f"total capacity must be positive, got {total_capacity!r}"
        )
    lengths = set_length_batch(groups, d)
    return [max(length / denom, h) for length, h in zip(lengths, h_values)]


def eq3_makespans_over_epsilon(
    schedule: Schedule, epsilons: Sequence[float]
) -> list[float]:
    """Re-evaluate a fixed packing's Equation (3) makespan per epsilon.

    Under the EA2 convex-combination overlap model
    ``T(W) = eps·l(W) + (1-eps)·sum(W)``, the site loads of a placement do
    not depend on ``eps`` — only the stand-alone clone times do.  The
    makespan of the *same* clone-to-site mapping under overlap ``eps`` is
    therefore

        ``max_j max{ max_{c on s_j} (eps·l(w̄_c) + (1-eps)·sum(w̄_c)),
        l(work(s_j)) } / capacity(s_j)``

    evaluated here for a whole grid of epsilons at once.  This is the
    sensitivity-sweep question "how robust is this placement to the
    overlap calibration?" answered without re-running the scheduler: for
    each ``eps`` the result equals rebuilding every site via
    :meth:`repro.core.site.Site.recompute_t_seq` with
    ``ConvexCombinationOverlap(eps)`` and taking the makespan.
    """
    for eps in epsilons:
        if not 0.0 <= eps <= 1.0:
            raise SchedulingError(f"overlap parameter must lie in [0, 1], got {eps}")
    sites = [
        (
            [(c.work.length(), c.work.total()) for c in site.clones],
            site.length(),
            site.capacity,
        )
        for site in schedule.sites
        if not site.is_empty()
    ]
    out = []
    for eps in epsilons:
        rest = 1.0 - eps
        out.append(
            max(
                (
                    max(max(eps * ln + rest * tt for ln, tt in clones), length) / cap
                    for clones, length, cap in sites
                ),
                default=0.0,
            )
        )
    return out


def family_congestions(
    load0: Sequence[float],
    delta: Sequence[float],
    steps: int,
    p: int,
    *,
    total_capacity: float | None = None,
) -> list[float]:
    """Congestion curve ``l(S(N̄^k))/C`` of the greedy family in one pass.

    ``C`` is the total system capacity (default: the site count ``P``,
    the homogeneous case; division by ``float(p)`` is bit-identical to
    the historical ``/ p``).

    The Section 7 family starts from the degree-1 total-work vector
    ``load0`` and every step adds the same startup quantum ``delta``
    (one more clone of the slowest operator).  The reference generator
    maintains the load with a sequential left fold ``load += delta`` and
    reports ``max(load)/p`` per candidate.  Each component is folded here
    with :func:`itertools.accumulate` — a strict left fold in C, so every
    partial sum is bit-identical to repeated addition (``load0 +
    k*delta`` would round differently).

    Returns ``steps + 1`` values: candidate 0 (all degrees 1) through
    candidate ``steps``.
    """
    if p < 1:
        raise SchedulingError(f"number of sites must be >= 1, got {p}")
    if steps < 0:
        raise SchedulingError(f"steps must be >= 0, got {steps}")
    if len(delta) != len(load0):
        raise SchedulingError(
            f"family_congestions: load0 has d={len(load0)}, delta has d={len(delta)}"
        )
    denom = float(p) if total_capacity is None else float(total_capacity)
    if not denom > 0.0:
        raise SchedulingError(
            f"total capacity must be positive, got {total_capacity!r}"
        )
    cols = [
        accumulate(repeat(c, steps), initial=start) for start, c in zip(load0, delta)
    ]
    return [peak / denom for peak in map(max, zip(*cols))]
