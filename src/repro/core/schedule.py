"""Schedules and their response times (Definition 5.1, Equation 3).

A *schedule* maps the ``sum_i N_i`` operator clones of a set of concurrent
operators to the ``P`` available sites so that no two clones of the same
operator land on the same site (Definition 5.1).  Its response time is
determined by the most heavily loaded site:

    ``T_par(SCHED, P) = max_j T_site(s_j)
                      = max{ max_i T_par(op_i, N_i),  max_j l(work(s_j)) }``

(Equation 3) — the larger of the slowest executing operator and the load at
the most congested resource in the system.

:class:`Schedule` represents the outcome of scheduling one synchronized
phase; :class:`PhasedSchedule` strings phases together for a full bushy
plan (Section 5.4), whose response time is the sum of the per-phase
makespans.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from itertools import accumulate, chain, islice
from operator import add, itemgetter

from repro.exceptions import SchedulingError
from repro.core.site import PlacedClone, Site, _check_capacity
from repro.core.work_vector import WorkVector

__all__ = ["Schedule", "PhasedSchedule", "OperatorHome"]

_operator = itemgetter(0)


def _site_capacities(p: int, capacities: Sequence[float] | None) -> list[float]:
    """The capacity of each of ``p`` sites, checked as :class:`Schedule` checks it.

    ``P >= 1``, one entry per site, and each a positive finite number
    (``1.0`` each when ``capacities`` is ``None``); the first failing
    check raises :class:`SchedulingError`.
    """
    if p < 1:
        raise SchedulingError(f"number of sites must be >= 1, got {p}")
    if capacities is None:
        return [1.0] * p
    if len(capacities) != p:
        raise SchedulingError(
            f"capacities has {len(capacities)} entries; expected P={p}"
        )
    for j, capacity in enumerate(capacities):
        _check_capacity(capacity, j)
    return [float(capacity) for capacity in capacities]


@dataclass(frozen=True)
class OperatorHome:
    """The *home* of an operator: the sites allotted to its execution.

    Section 3.1: an operator is *rooted* when its home is fixed by data
    placement constraints, *floating* when the scheduler is free to choose
    it.  Homes produced while scheduling one phase become rooting
    constraints for dependent operators in later phases (e.g. a hash
    join's probe must execute at the home of its build).

    Attributes
    ----------
    operator:
        Operator name.
    site_indices:
        Site index of each clone, ordered by clone index (entry 0 is the
        coordinator's site).
    """

    operator: str
    site_indices: tuple[int, ...]

    @property
    def degree(self) -> int:
        """The operator's degree of partitioned parallelism."""
        return len(self.site_indices)

    def __post_init__(self) -> None:
        if not self.site_indices:
            raise SchedulingError(f"home of {self.operator!r} must be non-empty")
        if len(set(self.site_indices)) != len(self.site_indices):
            raise SchedulingError(
                f"home of {self.operator!r} repeats a site: {self.site_indices} "
                "(constraint (A) of Section 5.3)"
            )


class Schedule:
    """A clone-to-site mapping for one set of concurrent operators.

    Construct an empty schedule over ``p`` fresh ``d``-dimensional sites,
    then :meth:`place` clones (typically via the scheduling algorithms).
    """

    def __init__(self, p: int, d: int, capacities: "tuple[float, ...] | list[float] | None" = None):
        self._sites = [
            Site(j, d, capacity)
            for j, capacity in enumerate(_site_capacities(p, capacities))
        ]
        self._d = d
        self._homes: dict[str, list[tuple[int, int]]] = {}
        # Running totals maintained on every place() so the aggregate
        # queries below never rescan the site array.
        self._total_work = [0.0] * d
        self._clone_count = 0
        # Sites taken out of service (failed and not yet restored); they
        # keep their slot so indices stay dense, but placement on them is
        # rejected.  Only the rescheduling layer flips these flags.
        self._disabled: set[int] = set()

    @classmethod
    def _adopt(
        cls, d: int, sites: list[Site], homes: dict[str, list[tuple[int, int]]],
        total_work: list[float], clone_count: int,
    ) -> "Schedule":
        """Trusted constructor: wrap sites and aggregates the caller built.

        ``sites`` must be indexed ``0..P-1`` with dimensionality ``d``,
        and ``homes``, ``total_work`` and ``clone_count`` must be what
        :meth:`place` would have folded over their clones (see
        :func:`~repro.serialization.schedule_from_dict`).  Nothing is
        re-checked or copied.
        """
        if not sites:
            raise SchedulingError("a schedule needs at least one site")
        # One placeholder site keeps __init__ the single owner of the
        # schedule's fields (and of the check that ``d >= 1``).
        sched = cls(1, d)
        sched._sites = sites
        sched._homes = homes
        sched._total_work = total_work
        sched._clone_count = clone_count
        return sched

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def p(self) -> int:
        """Number of system sites ``P``."""
        return len(self._sites)

    @property
    def d(self) -> int:
        """Site dimensionality (number of resources per site)."""
        return self._d

    @property
    def sites(self) -> tuple[Site, ...]:
        """The sites of the system, by index."""
        return tuple(self._sites)

    def site(self, index: int) -> Site:
        """Return site ``index``."""
        return self._sites[index]

    @property
    def operators(self) -> frozenset[str]:
        """Names of all operators with at least one placed clone."""
        return frozenset(self._homes)

    def has_operator(self, operator: str) -> bool:
        """True when ``operator`` has a placed clone (O(1), no set copy)."""
        return operator in self._homes

    def clone_count(self) -> int:
        """Total number of placed clones ``N = sum_i N_i`` (maintained O(1))."""
        return self._clone_count

    @property
    def disabled_sites(self) -> frozenset[int]:
        """Indices of sites currently taken out of service."""
        return frozenset(self._disabled)

    def enabled_sites(self) -> tuple[Site, ...]:
        """The in-service sites, by index (all sites minus the disabled)."""
        if not self._disabled:
            return tuple(self._sites)
        return tuple(s for s in self._sites if s.index not in self._disabled)

    def capacities(self) -> tuple[float, ...]:
        """Per-site capacities, by index (all ``1.0`` on a homogeneous cluster)."""
        return tuple(s.capacity for s in self._sites)

    def is_uniform_capacity(self) -> bool:
        """True when every site runs at the default unit capacity."""
        return all(s.capacity == 1.0 for s in self._sites)

    def total_capacity(self) -> float:
        """Sum of site capacities (``P`` exactly on a homogeneous cluster)."""
        return sum(s.capacity for s in self._sites)

    def set_site_capacity(self, site_index: int, capacity: float) -> None:
        """Resize one site in place (see :meth:`Site.set_capacity`)."""
        self._check_site_index(site_index)
        self._sites[site_index].set_capacity(capacity)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _check_site_index(self, site_index: int) -> None:
        if not 0 <= site_index < len(self._sites):
            raise SchedulingError(
                f"site index {site_index} out of range 0..{len(self._sites) - 1}"
            )

    def place(self, site_index: int, clone: PlacedClone) -> None:
        """Place ``clone`` on site ``site_index`` (enforces constraint (A))."""
        self._check_site_index(site_index)
        if site_index in self._disabled:
            raise SchedulingError(f"site {site_index} is out of service")
        self._sites[site_index].place(clone)
        self._homes.setdefault(clone.operator, []).append(
            (clone.clone_index, site_index)
        )
        for i, c in enumerate(clone.work.components):
            self._total_work[i] += c
        self._clone_count += 1

    def place_operator(
        self, operator: str, placements: Sequence[tuple[int, PlacedClone]]
    ) -> None:
        """Place a run of ``operator``'s clones, one ``(site, clone)`` pair each.

        The bulk form of :meth:`place`: every check it makes (site index
        range, out-of-service site, dimensionality, constraint (A) against
        the schedule *and* within the run), plus that each clone belongs
        to ``operator``, runs before anything is mutated.  Site loads,
        homes and the total-work vector are then folded pair by pair in
        the given order, so the result is bit-identical to calling
        :meth:`place` once per pair.
        """
        count = len(placements)
        if not count:
            return
        sites = self._sites
        p = len(sites)
        d = self._d
        disabled = self._disabled
        checked = None
        for j, clone in placements:
            if not 0 <= j < p:
                self._check_site_index(j)
            if j in disabled:
                raise SchedulingError(f"site {j} is out of service")
            if clone.operator != operator:
                raise SchedulingError(
                    f"clone {clone.clone_index} of {clone.operator!r} "
                    f"in a run of {operator!r}"
                )
            if clone.work is not checked:
                if clone.work.d != d:
                    raise SchedulingError(
                        f"site {j}: clone of {operator!r} has d={clone.work.d}, "
                        f"site has d={d}"
                    )
                checked = clone.work
            if sites[j].hosts_operator(operator):
                raise self._constraint_a(j, operator)
        if count > 1:
            taken: set[int] = set()
            for j, _ in placements:
                if j in taken:
                    raise self._constraint_a(j, operator)
                taken.add(j)
        homes = self._homes.setdefault(operator, [])
        total = self._total_work
        for j, clone in placements:
            sites[j]._add(clone)
            homes.append((clone.clone_index, j))
            total = list(map(add, total, clone.work.components))
        self._total_work = total
        self._clone_count += count

    @staticmethod
    def _constraint_a(site_index: int, operator: str) -> SchedulingError:
        return SchedulingError(
            f"site {site_index}: already hosts a clone of {operator!r} "
            "(constraint (A) of Section 5.3)"
        )

    def disable_site(self, site_index: int) -> None:
        """Take a site out of service (no new placements allowed on it)."""
        self._check_site_index(site_index)
        self._disabled.add(site_index)

    def enable_site(self, site_index: int) -> None:
        """Return a site to service (idempotent)."""
        self._check_site_index(site_index)
        self._disabled.discard(site_index)

    def drain_site(self, site_index: int) -> tuple[PlacedClone, ...]:
        """Remove and return all clones of one site (in placement order).

        The site is replaced by a fresh empty one; homes and the running
        aggregates are updated.  The running total-work vector is
        adjusted by subtraction, which may drift from a full
        re-accumulation by floating-point rounding — acceptable because
        no placement decision reads it (site-level statistics are
        rebuilt exactly).
        """
        self._check_site_index(site_index)
        site = self._sites[site_index]
        clones = site.clones
        self._sites[site_index] = Site(site_index, self._d, site.capacity)
        total = self._total_work
        for clone in clones:
            self._drop_home(clone.operator, clone.clone_index, site_index)
            for i, c in enumerate(clone.work.components):
                total[i] -= c
        self._clone_count -= len(clones)
        return clones

    def remove_operator(self, operator: str) -> tuple[tuple[int, PlacedClone], ...]:
        """Remove every clone of ``operator``; returns ``(site, clone)`` pairs.

        Each affected site is rebuilt from its remaining clones in the
        original placement order, so the surviving incremental statistics
        stay bit-identical to a from-scratch fold.
        """
        if operator not in self._homes:
            raise SchedulingError(f"operator {operator!r} has no placed clones")
        pairs = self._homes.pop(operator)
        removed: list[tuple[int, PlacedClone]] = []
        total = self._total_work
        for _, site_index in pairs:
            old = self._sites[site_index]
            fresh = Site(site_index, self._d, old.capacity)
            for clone in old.clones:
                if clone.operator == operator:
                    removed.append((site_index, clone))
                    for i, c in enumerate(clone.work.components):
                        total[i] -= c
                    self._clone_count -= 1
                else:
                    fresh._add(clone)
            self._sites[site_index] = fresh
        return tuple(removed)

    def _drop_home(self, operator: str, clone_index: int, site_index: int) -> None:
        pairs = self._homes[operator]
        pairs.remove((clone_index, site_index))
        if not pairs:
            del self._homes[operator]

    def copy(self) -> "Schedule":
        """Deep-enough copy: fresh sites and aggregates, shared immutable clones.

        Every statistic is copied, not re-folded, so the copy's state is
        identical to this schedule's.
        """
        dup = Schedule._adopt(
            self._d,
            [site.copy() for site in self._sites],
            {op: list(pairs) for op, pairs in self._homes.items()},
            list(self._total_work),
            self._clone_count,
        )
        dup._disabled = set(self._disabled)
        return dup

    def snapshot(self) -> tuple:
        """An immutable, compact record of this schedule's whole state.

        :meth:`from_snapshot` rebuilds an independent schedule from it
        with identical statistics.  Whatever ``P`` and the clone count,
        the record is a few flat tuples: the (immutable, shared) clones,
        site after site; the site statistics; the homes' ``(clone, site)``
        pairs.  No site, list or set is kept, so a store of many records
        (the pack memo of
        :func:`~repro.core.operator_schedule.use_pack_memo`) holds few
        objects for the garbage collector to track.
        """
        sites = self._sites
        stats: list[float] = []
        for site in sites:
            stats += (site._length, site._total_load, site._max_t_seq, *site._load)
        homes = self._homes
        return (
            self._d,
            None if self.is_uniform_capacity() else self.capacities(),
            tuple(chain.from_iterable(s._clones for s in sites)),
            tuple(accumulate(len(site._clones) for site in sites)),
            tuple(stats),
            tuple(homes),
            tuple(map(len, homes.values())),
            tuple(chain.from_iterable(chain.from_iterable(homes.values()))),
            tuple(self._total_work),
            self._clone_count,
            tuple(self._disabled),
        )

    @classmethod
    def from_snapshot(
        cls, snapshot: tuple, names: Mapping[str, str] | None = None
    ) -> "Schedule":
        """A fresh schedule from a :meth:`snapshot`, operators renamed by ``names``.

        ``names`` (if given) must map every operator to a distinct name.
        Loads do not depend on names, so nothing is re-folded: sites,
        clone order, homes order and every statistic are the snapshot's.
        """
        (
            d, capacities, clones, ends, stats, operators, counts, pairs,
            total_work, clone_count, disabled,
        ) = snapshot
        if names is not None:
            operators = map(names.__getitem__, operators)
        width = 3 + d
        sites = []
        start = 0
        for j, end in enumerate(ends):
            if names is None:
                run = list(clones[start:end])
            else:
                run = [
                    PlacedClone(names[op], k, work, t)
                    for op, k, work, t in clones[start:end]
                ]
            base = j * width
            sites.append(
                Site._adopt(
                    j, d, 1.0 if capacities is None else capacities[j], run,
                    set(map(_operator, run)), list(stats[base + 3 : base + width]),
                    stats[base], stats[base + 1], stats[base + 2],
                )
            )
            start = end
        flat = iter(pairs)
        homes = {
            op: list(islice(zip(flat, flat), count))
            for op, count in zip(operators, counts)
        }
        schedule = cls._adopt(d, sites, homes, list(total_work), clone_count)
        schedule._disabled = set(disabled)
        return schedule

    # ------------------------------------------------------------------
    # Homes
    # ------------------------------------------------------------------
    def home(self, operator: str) -> OperatorHome:
        """Return the home (clone-ordered site indices) of ``operator``."""
        try:
            pairs = self._homes[operator]
        except KeyError:
            raise SchedulingError(f"operator {operator!r} has no placed clones") from None
        ordered = tuple(site for _, site in sorted(pairs))
        return OperatorHome(operator=operator, site_indices=ordered)

    def homes(self) -> dict[str, OperatorHome]:
        """Return the home of every placed operator."""
        return {op: self.home(op) for op in self._homes}

    # ------------------------------------------------------------------
    # Response-time metrics (Equation 3)
    # ------------------------------------------------------------------
    def makespan(self) -> float:
        """Equation (3): ``max_j T_site(s_j)`` over all sites."""
        return max((s.t_site() for s in self._sites), default=0.0)

    def max_parallel_time(self) -> float:
        """The left input of Equation (3)'s max: ``max_i T_par(op_i, N_i)``.

        Computed as the maximum stand-alone clone time across all sites,
        which equals ``max_i T_par`` because every operator's parallel
        time is the maximum of its clones' sequential times (Equation 1).
        """
        return max((s.max_t_seq() for s in self._sites), default=0.0)

    def max_site_length(self) -> float:
        """The right input of Equation (3)'s max: ``max_j l(work(s_j))``."""
        return max(
            (s.length() for s in self._sites if not s.is_empty()), default=0.0
        )

    def bottleneck_site(self) -> Site:
        """Return the site attaining the makespan."""
        return max(self._sites, key=lambda s: s.t_site())

    def is_congestion_bound(self) -> bool:
        """True when the makespan is set by resource congestion.

        i.e. ``max_j l(work(s_j)) >= max_i T_par(op_i, N_i)``: the most
        congested resource, not the slowest operator, limits the schedule.
        """
        return self.max_site_length() >= self.max_parallel_time()

    def total_work(self) -> WorkVector:
        """Componentwise total work over the whole system.

        Maintained incrementally on :meth:`place`, so this is O(d)
        regardless of the number of sites or clones.
        """
        return WorkVector(self._total_work)

    def average_utilization(self) -> tuple[float, ...]:
        """System-wide per-resource utilization at the makespan horizon."""
        t = self.makespan()
        if t <= 0.0:
            return (0.0,) * self._d
        total = self.total_work()
        return tuple(c / (t * len(self._sites)) for c in total.components)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, degrees: dict[str, int] | None = None) -> None:
        """Check Definition 5.1's structural constraints.

        * constraint (A): no two clones of one operator on one site — this
          is enforced on placement, but re-verified here for safety;
        * clone indices of each operator are ``0..N_i-1`` with no gaps;
        * when ``degrees`` is given, each operator has exactly its
          prescribed number of clones.

        Raises
        ------
        SchedulingError
            On any violation.
        """
        for site in self._sites:
            seen: set[str] = set()
            for clone in site.clones:
                if clone.operator in seen:
                    raise SchedulingError(
                        f"site {site.index} hosts two clones of {clone.operator!r}"
                    )
                seen.add(clone.operator)
        for op, pairs in self._homes.items():
            indices = sorted(idx for idx, _ in pairs)
            if indices != list(range(len(indices))):
                raise SchedulingError(
                    f"operator {op!r} has clone indices {indices}; expected "
                    f"0..{len(indices) - 1}"
                )
            if degrees is not None and op in degrees and len(indices) != degrees[op]:
                raise SchedulingError(
                    f"operator {op!r} has {len(indices)} clones; expected {degrees[op]}"
                )

    def __repr__(self) -> str:
        return (
            f"Schedule(P={self.p}, d={self.d}, operators={len(self._homes)}, "
            f"clones={self.clone_count()}, makespan={self.makespan():.6g})"
        )


@dataclass
class PhasedSchedule:
    """A sequence of synchronized phases for a bushy plan (Section 5.4).

    Each phase contains independent tasks executed concurrently after the
    completion of all tasks in the previous phase; the plan's response
    time is therefore the sum of the per-phase makespans.

    Attributes
    ----------
    phases:
        Per-phase schedules, in execution order (deepest task-tree level
        first).
    labels:
        Optional per-phase labels (e.g. the task names of that phase).
    """

    phases: list[Schedule] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)

    def append(self, schedule: Schedule, label: str = "") -> None:
        """Add the next phase."""
        self.phases.append(schedule)
        self.labels.append(label or f"phase-{len(self.phases) - 1}")

    @property
    def num_phases(self) -> int:
        """Number of synchronized phases (the height of the task tree)."""
        return len(self.phases)

    def response_time(self) -> float:
        """Total response time: the sum of per-phase makespans."""
        return sum(s.makespan() for s in self.phases)

    def phase_makespans(self) -> list[float]:
        """Per-phase makespans in execution order."""
        return [s.makespan() for s in self.phases]

    def total_work(self) -> WorkVector:
        """Componentwise work totals summed over all phases.

        Raises
        ------
        SchedulingError
            If the schedule has no phases (no dimensionality to sum in).
        """
        if not self.phases:
            raise SchedulingError("total_work() of an empty PhasedSchedule")
        acc = [0.0] * self.phases[0].d
        for schedule in self.phases:
            for i, c in enumerate(schedule.total_work().components):
                acc[i] += c
        return WorkVector(acc)

    def validate(self) -> None:
        """Validate every phase's structural constraints."""
        for schedule in self.phases:
            schedule.validate()

    def home(self, operator: str) -> OperatorHome:
        """Return the home of ``operator``, searching phases in order."""
        for schedule in self.phases:
            if operator in schedule.operators:
                return schedule.home(operator)
        raise SchedulingError(f"operator {operator!r} not found in any phase")

    def __repr__(self) -> str:
        return (
            f"PhasedSchedule(phases={self.num_phases}, "
            f"response_time={self.response_time():.6g})"
        )
