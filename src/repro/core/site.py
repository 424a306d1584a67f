"""Resource sites and the effects of time-sharing (Equation 2, Section 5.2.2).

A :class:`Site` models one shared-nothing system node: a collection of
``d`` preemptable resources that can be time-shared among the operator
clones mapped to it.  Because all resources are preemptable (assumptions
A2/A3), the execution time for all the clones scheduled at site ``s_j`` is
determined by the ability to overlap the processing of resource requests by
different operators:

    ``T_site(s_j) = max{ max_{W in work(s_j)} T_seq(W),  l(work(s_j)) }``

— either some single clone's stand-alone time dominates (its idle resource
capacity absorbs everyone else's work), or some resource is congested and
the total effective time demanded of it, ``l(work(s_j))``, dominates.

Sites optionally carry a *capacity* (relative speed, default ``1.0``): a
site of capacity ``c`` processes every resource ``c`` times faster, so
its execution time is ``T_site / c`` and placement decisions compare
*capacity-normalized* loads (``length() / capacity``).  Work vectors and
raw load statistics stay in unit-capacity seconds, so all incremental
bookkeeping is untouched; dividing by a capacity of exactly ``1.0`` is a
bit-exact no-op in IEEE-754, which makes the homogeneous paths
byte-identical to the pre-capacity code.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.exceptions import SchedulingError
from repro.core.resource_model import OverlapModel
from repro.core.work_vector import WorkVector

__all__ = ["PlacedClone", "Site"]


def _check_capacity(capacity: float, index: int) -> None:
    if not capacity > 0.0 or capacity != capacity or capacity == float("inf"):
        raise SchedulingError(
            f"site {index}: capacity must be a positive finite number, "
            f"got {capacity!r}"
        )


class PlacedClone(NamedTuple):
    """One operator clone resident at a site (an immutable record).

    A named tuple: building one is cheap, which matters because every
    placement and every decoded stored clone makes one.  Fields are
    read-only; equality and hashing are by value.

    Attributes
    ----------
    operator:
        Name of the operator this clone belongs to (constraint (A) of
        Section 5.3 forbids two clones of the same operator on one site).
    clone_index:
        Index of this clone within its operator's partitioning
        (``0`` is the coordinator under EA1).
    work:
        The clone's work vector (communication costs included).
    t_seq:
        The clone's stand-alone sequential execution time
        ``T_seq(work)`` under the overlap model in force.
    """

    operator: str
    clone_index: int
    work: WorkVector
    t_seq: float


class Site:
    """A ``d``-resource site accumulating operator clones.

    Tracks the resident clone set ``work(s_j)``, the componentwise load
    vector (sum of resident work vectors), and the Equation (2) site
    execution time.  The per-component load is maintained incrementally so
    the list scheduler's "least filled site" query is O(1).
    """

    __slots__ = (
        "index",
        "_d",
        "_clones",
        "_load",
        "_length",
        "_total_load",
        "_operators",
        "_max_t_seq",
        "_capacity",
    )

    def __init__(self, index: int, d: int, capacity: float = 1.0):
        if index < 0:
            raise SchedulingError(f"site index must be >= 0, got {index}")
        if d < 1:
            raise SchedulingError(f"site dimensionality must be >= 1, got {d}")
        _check_capacity(capacity, index)
        self.index = index
        self._d = d
        self._clones: list[PlacedClone] = []
        self._load = [0.0] * d
        self._length = 0.0
        self._total_load = 0.0
        self._operators: set[str] = set()
        self._max_t_seq = 0.0
        self._capacity = float(capacity)

    @classmethod
    def _adopt(
        cls, index: int, d: int, capacity: float, clones: list[PlacedClone],
        operators: set[str], load: list[float], length: float, total_load: float,
        max_t_seq: float,
    ) -> "Site":
        """Trusted constructor: a site over statistics the caller folded.

        The caller owns the checks :meth:`place` would make and must have
        folded ``load``, ``length``, ``total_load`` and ``max_t_seq``
        over ``clones`` in placement order exactly as :meth:`_add` does
        (see :func:`~repro.serialization.schedule_from_dict`).  Only the
        capacity is checked here.  The containers are adopted, not copied.
        """
        _check_capacity(capacity, index)
        site = cls.__new__(cls)
        site.index = index
        site._d = d
        site._clones = clones
        site._load = load
        site._length = length
        site._total_load = total_load
        site._operators = operators
        site._max_t_seq = max_t_seq
        site._capacity = float(capacity)
        return site

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def d(self) -> int:
        """Number of resources at this site."""
        return self._d

    @property
    def capacity(self) -> float:
        """Relative speed of this site (``1.0`` = the paper's unit site)."""
        return self._capacity

    def set_capacity(self, capacity: float) -> None:
        """Change this site's capacity in place (the elasticity primitive).

        Resident clones are untouched — only the rate at which the site
        processes them changes, so a capacity change never forces a
        migration by itself.  Callers holding derived state keyed on the
        normalized length (e.g. a :class:`~repro.core.placement_heap.SiteHeap`)
        must re-key the site afterwards.
        """
        _check_capacity(capacity, self.index)
        self._capacity = float(capacity)

    @property
    def clones(self) -> tuple[PlacedClone, ...]:
        """The clones resident at this site, in placement order."""
        return tuple(self._clones)

    @property
    def operators(self) -> frozenset[str]:
        """Names of the operators with a clone at this site."""
        return frozenset(self._operators)

    def __len__(self) -> int:
        return len(self._clones)

    def is_empty(self) -> bool:
        """Return ``True`` when no clone has been placed here."""
        return not self._clones

    def hosts_operator(self, operator: str) -> bool:
        """Return ``True`` when a clone of ``operator`` is already here.

        This is the allowability test of the Figure 3 list-scheduling rule
        (``work(s) ∩ L_i = ∅``).
        """
        return operator in self._operators

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def place(self, clone: PlacedClone) -> None:
        """Place ``clone`` at this site.

        Raises
        ------
        SchedulingError
            If a clone of the same operator is already resident
            (constraint (A)) or the work vector has the wrong
            dimensionality.
        """
        if clone.work.d != self._d:
            raise SchedulingError(
                f"site {self.index}: clone of {clone.operator!r} has d={clone.work.d}, "
                f"site has d={self._d}"
            )
        if clone.operator in self._operators:
            raise SchedulingError(
                f"site {self.index}: already hosts a clone of {clone.operator!r} "
                "(constraint (A) of Section 5.3)"
            )
        self._add(clone)

    def _add(self, clone: PlacedClone) -> None:
        """Fold ``clone`` into the running statistics, unchecked.

        The caller has already made :meth:`place`'s checks (see
        :meth:`~repro.core.schedule.Schedule.place_operator`).
        """
        self._clones.append(clone)
        self._operators.add(clone.operator)
        load = self._load
        length = self._length
        total = self._total_load
        for i, c in enumerate(clone.work.components):
            updated = load[i] + c
            load[i] = updated
            total += c
            if updated > length:
                length = updated
        self._length = length
        self._total_load = total
        if clone.t_seq > self._max_t_seq:
            self._max_t_seq = clone.t_seq

    def copy(self) -> "Site":
        """Return an independent site with identical statistics.

        Clones are immutable and shared; the statistics are copied, not
        re-folded.
        """
        return Site._adopt(
            self.index, self._d, self._capacity, list(self._clones),
            set(self._operators), list(self._load), self._length,
            self._total_load, self._max_t_seq,
        )

    # ------------------------------------------------------------------
    # Paper metrics
    # ------------------------------------------------------------------
    def load_vector(self) -> WorkVector:
        """Return the componentwise sum of the resident work vectors."""
        return WorkVector._from_trusted(tuple(self._load))

    def load_component(self, resource: int) -> float:
        """Return the total effective time demanded of one resource."""
        return self._load[resource]

    def length(self) -> float:
        """Return ``l(work(s_j))``: the maximum load component.

        This is the quantity the Figure 3 list-scheduling rule minimizes
        when choosing the least filled allowable site.  Maintained
        incrementally on :meth:`place` (loads only grow), so the query
        is O(1) rather than a rescan of the resident clones.
        """
        return self._length

    def normalized_length(self) -> float:
        """Return ``l(work(s_j)) / capacity``: the placement cost.

        This is what the Figure 3 rule minimizes on a heterogeneous
        cluster — the *time* the most congested resource needs at this
        site's speed.  With capacity ``1.0`` the division is a bit-exact
        no-op, so homogeneous placement keys are unchanged.
        """
        return self._length / self._capacity

    def normalized_total_load(self) -> float:
        """Return ``total_load() / capacity`` (the scalar-load placement cost)."""
        return self._total_load / self._capacity

    def resulting_length(self, work: WorkVector) -> float:
        """Return ``l(work(s_j) ∪ {work})``: length after a tentative placement.

        Computed directly off the running load vector in O(d) without
        materializing the tentative sum; used by the
        ``MIN_RESULTING_LENGTH`` ablation rule.
        """
        if work.d != self._d:
            raise SchedulingError(
                f"site {self.index}: tentative vector has d={work.d}, site has d={self._d}"
            )
        return max(a + b for a, b in zip(self._load, work.components))

    def normalized_resulting_length(self, work: WorkVector) -> float:
        """Return :meth:`resulting_length` divided by this site's capacity."""
        return self.resulting_length(work) / self._capacity

    def total_load(self) -> float:
        """Return the sum of all load components (scalar total work).

        Maintained incrementally; used as the deterministic tie-break of
        the list-scheduling rule and by scalar (1-D) baselines.
        """
        return self._total_load

    def max_t_seq(self) -> float:
        """Return ``max_{W in work(s_j)} T_seq(W)`` over resident clones."""
        return self._max_t_seq

    def t_site(self) -> float:
        """Equation (2): execution time for all clones at this site.

        ``T_site = max{ max T_seq, l(work(s_j)) } / capacity`` — the
        larger of the slowest resident clone's stand-alone time and the
        most congested resource's total demand, scaled by the site's
        speed.  Dividing by the default capacity ``1.0`` is bit-exact,
        so homogeneous makespans are unchanged.
        """
        if not self._clones:
            return 0.0
        return max(self._max_t_seq, self.length()) / self._capacity

    def utilization(self) -> tuple[float, ...]:
        """Per-resource utilization ``(load[i] / capacity) / T_site`` (zeros when idle)."""
        t = self.t_site()
        if t <= 0.0:
            return (0.0,) * self._d
        return tuple((c / self._capacity) / t for c in self._load)

    def recompute_t_seq(self, overlap: OverlapModel) -> "Site":
        """Return a copy of this site with clone times re-derived.

        Useful for sensitivity analysis: re-evaluate an existing placement
        under a different overlap model without re-running the scheduler.
        """
        fresh = Site(self.index, self._d, self._capacity)
        for clone in self._clones:
            fresh.place(
                PlacedClone(
                    operator=clone.operator,
                    clone_index=clone.clone_index,
                    work=clone.work,
                    t_seq=overlap.t_seq(clone.work),
                )
            )
        return fresh

    def __repr__(self) -> str:
        return (
            f"Site(index={self.index}, clones={len(self._clones)}, "
            f"l={self.length() if self._clones else 0.0:.6g}, "
            f"t_site={self.t_site():.6g})"
        )
