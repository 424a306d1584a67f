"""The OPERATORSCHEDULE list-scheduling heuristic (Section 5.3, Figure 3).

Scheduling a collection of independent query tasks — concurrently executable
operators forming producer/consumer pipelines — reduces to an instance of
the ``d``-dimensional *bin-design* problem (the dual of vector packing)
[CGJ84]: pack the ``N = sum_i N_i`` clone work vectors into ``P``
``d``-dimensional bins (the sites), subject to

* **(A)** no two vectors of the same operator in the same bin, and
* **(B)** the data-placement constraints of rooted operators,

minimizing the required common bin capacity, i.e. the maximum resource
usage in the system.  The problem is NP-hard (it contains classical
multiprocessor scheduling at ``d = 1``), so the paper uses a Graham-style
list scheduling heuristic [Gra66]:

1. place the work vectors of all rooted operators at their fixed sites;
2. compute the coarse-grain degree of parallelism
   ``N_i = min{N_max(op_i, f), P}`` for every floating operator and clone
   it into ``N_i`` work vectors;
3. consider the floating work vectors in non-increasing order of their
   maximum component ``l(w̄)``; pack each into the *least filled allowable*
   site — the site ``s`` with minimal ``l(work(s))`` among those holding no
   other clone of the same operator.

Theorem 5.1 bounds the makespan within ``2d + 1`` of the optimal schedule
with the same degrees of parallelism, and within ``2d(fd + 1) + 1`` of the
optimal ``CG_f`` schedule.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import attrgetter

from repro.exceptions import InfeasibleScheduleError, SchedulingError
from repro.core.cloning import (
    DEFAULT_COORDINATOR_POLICY,
    CoordinatorPolicy,
    OperatorSpec,
    clone_work_vectors,
    coarse_grain_degree,
)
from repro.core.granularity import CommunicationModel
from repro.core.resource_model import OverlapModel
from repro.obs.names import (
    COUNTER_CLONES_PLACED,
    COUNTER_PLACEMENT_SCANS,
    SPAN_LIST_PLACEMENT,
    TIMER_LIST_SCHEDULE,
)
from repro.obs.tracer import current_tracer
from repro.core.schedule import Schedule, _site_capacities
from repro.core.site import PlacedClone, Site
from repro.core.work_vector import WorkVector

__all__ = [
    "RootedPlacement",
    "OperatorScheduleResult",
    "operator_schedule",
    "use_pack_memo",
]


@dataclass(frozen=True)
class RootedPlacement:
    """A rooted operator together with its fixed home.

    The clone work vectors are derived from ``spec`` exactly as for a
    floating operator of the same degree; only the placement is
    predetermined (e.g. a probe executing at the sites holding its hash
    table).

    Attributes
    ----------
    spec:
        The operator's requirements.
    site_indices:
        Site of each clone, by clone index (entry 0 hosts the coordinator).
    """

    spec: OperatorSpec
    site_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.site_indices:
            raise SchedulingError(
                f"rooted operator {self.spec.name!r} needs at least one site"
            )
        if len(set(self.site_indices)) != len(self.site_indices):
            raise SchedulingError(
                f"rooted operator {self.spec.name!r} repeats a site "
                f"{self.site_indices} (constraint (A))"
            )

    @property
    def degree(self) -> int:
        """The rooted operator's (fixed) degree of parallelism."""
        return len(self.site_indices)


@dataclass(frozen=True)
class OperatorScheduleResult:
    """Outcome of one OPERATORSCHEDULE invocation.

    Attributes
    ----------
    schedule:
        The clone-to-site mapping (constraints (A) and (B) hold).
    degrees:
        Chosen degree of parallelism per operator (floating and rooted).
    makespan:
        The Equation (3) response time of ``schedule``.
    """

    schedule: Schedule
    degrees: dict[str, int]
    makespan: float


def _check_unique_names(
    floating: Sequence[OperatorSpec], rooted: Sequence[RootedPlacement]
) -> None:
    seen: set[str] = set()
    for spec in [*floating, *(r.spec for r in rooted)]:
        if spec.name in seen:
            raise SchedulingError(f"duplicate operator name {spec.name!r}")
        seen.add(spec.name)


def _check_degree_types(
    floating: Sequence[OperatorSpec], degrees: Mapping[str, int] | None
) -> None:
    """Every forced degree is an ``int``; ``True`` is not a degree of 1."""
    if not degrees:
        return
    for spec in floating:
        if spec.name in degrees:
            n = degrees[spec.name]
            if isinstance(n, bool) or not isinstance(n, int):
                raise SchedulingError(
                    f"operator {spec.name!r}: requested degree {n!r} is not an int"
                )


def _check_rooted_home(placement: RootedPlacement, p: int) -> None:
    """A rooted operator's home fits on ``p`` sites (Figure 3 step 1)."""
    name = placement.spec.name
    if placement.degree > p:
        raise InfeasibleScheduleError(
            f"rooted operator {name!r} has degree {placement.degree} > P={p}"
        )
    for site_index in placement.site_indices:
        if not 0 <= site_index < p:
            raise InfeasibleScheduleError(
                f"rooted operator {name!r}: site {site_index} outside 0..{p - 1}"
            )


def _common_dimensionality(
    floating: Sequence[OperatorSpec], rooted: Sequence[RootedPlacement]
) -> int:
    specs = [*floating, *(r.spec for r in rooted)]
    if not specs:
        raise SchedulingError("nothing to schedule: no floating or rooted operators")
    d = specs[0].d
    for spec in specs:
        if spec.d != d:
            raise SchedulingError(
                f"operator {spec.name!r} has d={spec.d}; expected {d}"
            )
    return d


def _clone_vectors(
    spec: OperatorSpec,
    n: int,
    comm: CommunicationModel,
    policy: CoordinatorPolicy,
    vectors: dict | None,
) -> Sequence[WorkVector]:
    """:func:`clone_work_vectors`, reused by content when ``vectors`` is a memo.

    ``vectors`` holds the clone vectors of one ``(comm, policy)`` pair;
    they depend on the spec only through its work and data volume.
    """
    if vectors is None:
        return clone_work_vectors(spec, n, comm, policy)
    key = (spec.work.components, spec.data_volume, n)
    clones = vectors.get(key)
    if clones is None:
        vectors[key] = clones = tuple(clone_work_vectors(spec, n, comm, policy))
    return clones


#: The memo of the innermost :func:`use_pack_memo` scope, if any: stored
#: packings by content, and clone vectors by ``(comm, policy)``.
_PACK_MEMO: ContextVar[tuple[dict, dict] | None] = ContextVar(
    "repro_pack_memo", default=None
)

_by_name = attrgetter("spec.name")
_name = attrgetter("name")


@contextmanager
def use_pack_memo() -> Iterator[None]:
    """Reuse :func:`operator_schedule` packings by content in the ``with`` body.

    Inside the scope each distinct packing problem is packed once; a
    later call with the same content, under any operator names that
    keep the floating operators' name order, gets a fresh schedule
    rebuilt from the stored one with the names mapped position by
    position (see :func:`operator_schedule` for the key and why it is
    exact).  A pack that does run reuses the clone work vectors of
    operators already cloned in the scope at the same degree.  Only
    successful results are stored, so a failing call raises every time,
    and a call given a ``metrics`` recorder always packs from scratch.
    Scopes nest (an inner one starts empty), and the memo is dropped
    when the scope exits, however it exits.  Outside every scope the
    function packs as if no memo existed.
    """
    token = _PACK_MEMO.set(({}, {}))
    try:
        yield
    finally:
        _PACK_MEMO.reset(token)


def _pack_key(
    ordered: Sequence[OperatorSpec],
    rooted: Sequence[RootedPlacement],
    degrees: Mapping[str, int] | None,
    settings: tuple,
) -> tuple:
    """The content of one packing problem, with every operator name left out.

    A floating operator contributes ``(components, data volume)``, plus
    its forced degree when ``degrees`` names it (the longer tuple never
    equals the shorter); a rooted one ``(components, data volume,
    sites)``.
    """
    forced = degrees or {}
    return (
        settings,
        tuple(
            (r.spec.work.components, r.spec.data_volume, r.site_indices)
            for r in rooted
        ),
        tuple(
            (s.work.components, s.data_volume, forced[s.name])
            if s.name in forced
            else (s.work.components, s.data_volume)
            for s in ordered
        ),
    )


def operator_schedule(
    floating: Sequence[OperatorSpec],
    rooted: Sequence[RootedPlacement] = (),
    *,
    p: int,
    comm: CommunicationModel,
    overlap: OverlapModel,
    f: float = 0.7,
    degrees: Mapping[str, int] | None = None,
    policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
    metrics=None,
    capacities: Sequence[float] | None = None,
) -> OperatorScheduleResult:
    """Schedule concurrent operators on ``p`` sites (Figure 3).

    Parameters
    ----------
    floating:
        Operators whose parallelization and placement the scheduler is
        free to choose.
    rooted:
        Operators whose homes are fixed by data placement constraints.
    p:
        Number of system sites ``P``.
    comm:
        Communication-cost model (supplies ``alpha``, ``beta`` and the
        Proposition 4.1 degree bound).
    overlap:
        Overlap model mapping clone work vectors to sequential times.
    f:
        Granularity parameter of the ``CG_f`` restriction.
    degrees:
        Optional externally chosen degrees of parallelism for floating
        operators (used by the malleable scheduler of Section 7).  Any
        operator absent from the mapping falls back to the coarse-grain
        degree.
    policy:
        Startup-cost charging policy (EA1 default: half CPU, half network
        at the coordinator clone).
    metrics:
        Optional :class:`~repro.engine.metrics.MetricsRecorder`; when
        given, the kernel records ``placement_scans`` (heap entries
        examined during step 3), ``clones_placed``, and a
        ``list_schedule`` wall-clock timer.
    capacities:
        Optional per-site capacities for a heterogeneous cluster; the
        step 3 rule then minimizes the capacity-normalized length.
        Omitted (or all ``1.0``), the schedule is byte-identical to the
        homogeneous kernel.

    Returns
    -------
    OperatorScheduleResult
        Schedule, chosen degrees, and Equation (3) makespan.

    Notes
    -----
    Inside a :func:`use_pack_memo` scope (plan search opens one), a call
    without ``metrics`` is keyed on its content: ``p``, ``f``, ``comm``,
    ``overlap``, ``policy`` and ``capacities``; each rooted operator's
    ``(work components, data volume, sites)`` in the given order; each
    floating operator's ``(work components, data volume)``, plus its
    forced degree if ``degrees`` names it, in name order.  A call whose
    key was packed before gets that schedule with the operator names
    mapped position by position.  This is exact: the steps above use
    names only for equality (constraint (A), dict keys, the uniqueness
    check) and for step 3's ``(-length, name, clone)`` tie-break among
    floating clones, and a renaming that keeps the floating operators'
    name order keeps both.  The floating input order does not matter:
    step 3 sorts every clone.  The result is a fresh schedule, so no
    caller can change what a later call gets, and ``degrees`` follows
    this call's order.

    Raises
    ------
    InfeasibleScheduleError
        If a rooted placement or requested degree does not fit on ``p``
        sites.
    SchedulingError
        On duplicate names, inconsistent dimensionalities, or a forced
        degree below 1 or not an ``int`` (``bool`` included).
    """
    _check_unique_names(floating, rooted)
    _check_degree_types(floating, degrees)
    scope = _PACK_MEMO.get() if metrics is None else None
    memo = vectors = None
    if scope is not None:
        ordered = sorted(floating, key=_name)
        settings = (
            p, f, comm, overlap, policy,
            None if capacities is None else tuple(capacities),
        )
        key = _pack_key(ordered, rooted, degrees, settings)
        memo, by_model = scope
        try:
            entry = memo.get(key)
        except TypeError:  # an unhashable model: pack without the memo
            memo = None
        else:
            if entry is not None:
                return _reuse(entry, floating, ordered, rooted)
            vectors = by_model.setdefault((comm, policy), {})
    result = _pack(
        floating, rooted, p, comm, overlap, f, degrees, policy, metrics,
        capacities, vectors,
    )
    if memo is not None:
        memo[key] = _entry(result, ordered, rooted)
    return result


def _entry(
    result: OperatorScheduleResult,
    ordered: Sequence[OperatorSpec],
    rooted: Sequence[RootedPlacement],
) -> tuple:
    """What the pack memo keeps of one result: no caller can reach it."""
    degrees = result.degrees
    return (
        (*map(_by_name, rooted), *map(_name, ordered)),
        result.schedule.snapshot(),
        tuple(degrees[spec.name] for spec in ordered),
        result.makespan,
    )


def _reuse(
    entry: tuple,
    floating: Sequence[OperatorSpec],
    ordered: Sequence[OperatorSpec],
    rooted: Sequence[RootedPlacement],
) -> OperatorScheduleResult:
    """A fresh result from a memo entry, under this call's operator names."""
    stored_names, snapshot, floating_degrees, makespan = entry
    names = (*map(_by_name, rooted), *map(_name, ordered))
    schedule = Schedule.from_snapshot(
        snapshot, None if names == stored_names else dict(zip(stored_names, names))
    )
    by_name = dict(zip(names[len(rooted):], floating_degrees))
    chosen = {placement.spec.name: placement.degree for placement in rooted}
    for spec in floating:
        chosen[spec.name] = by_name[spec.name]
    return OperatorScheduleResult(schedule=schedule, degrees=chosen, makespan=makespan)


def _pack(
    floating: Sequence[OperatorSpec],
    rooted: Sequence[RootedPlacement],
    p: int,
    comm: CommunicationModel,
    overlap: OverlapModel,
    f: float,
    degrees: Mapping[str, int] | None,
    policy: CoordinatorPolicy,
    metrics,
    capacities: Sequence[float] | None,
    vectors: dict | None,
) -> OperatorScheduleResult:
    """Figure 3 proper: steps 1-3 of :func:`operator_schedule`.

    ``vectors`` is the scope's clone-vector memo for ``(comm, policy)``,
    or ``None``.

    The kernel runs on flat per-site state, one list entry per site: the
    resident clones, operator set, load vector, length, total load and
    maximum ``T_seq``.  Every clone is folded into them exactly as
    :meth:`Schedule.place_operator` folds it (same checks, same order of
    floating-point additions), and the sites and the schedule are built
    once at the end through the trusted ``_adopt`` constructors.  The
    schedule, its statistics and the makespan are bit-identical to
    placing the clones one by one with :meth:`Schedule.place`.
    """
    d = _common_dimensionality(floating, rooted)
    caps = _site_capacities(p, capacities)
    clones: list[list[PlacedClone]] = [[] for _ in range(p)]
    hosted: list[set[str]] = [set() for _ in range(p)]
    loads = [[0.0] * d for _ in range(p)]
    lengths = [0.0] * p
    totals = [0.0] * p
    max_t_seq = [0.0] * p
    homes: dict[str, list[tuple[int, int]]] = {}
    total_work = [0.0] * d
    t_seq = overlap.t_seq

    def fold(operator: str, sites: Sequence[int], run: Sequence[tuple]) -> None:
        """Place ``run``'s ``(_, operator, clone, work)`` items on ``sites``, pairwise.

        One ``T_seq`` per distinct work vector: under EA1 every clone
        after the coordinator carries the same vector object.
        """
        home = homes.setdefault(operator, [])
        last = None
        t = 0.0
        for j, (_, _, k, work) in zip(sites, run):
            if work is not last:
                if work.d != d:
                    raise SchedulingError(
                        f"site {j}: clone of {operator!r} has d={work.d}, "
                        f"site has d={d}"
                    )
                t = t_seq(work)
                last = work
            resident = hosted[j]
            if operator in resident:
                raise Schedule._constraint_a(j, operator)
            resident.add(operator)
            clones[j].append(PlacedClone(operator, k, work, t))
            home.append((k, j))
            load = loads[j]
            length = lengths[j]
            total = totals[j]
            for i, c in enumerate(work.components):
                updated = load[i] + c
                load[i] = updated
                total += c
                if updated > length:
                    length = updated
                total_work[i] += c
            lengths[j] = length
            totals[j] = total
            if t > max_t_seq[j]:
                max_t_seq[j] = t

    # Step 1: place the work vectors of all rooted operators at their
    # respective sites.
    chosen: dict[str, int] = {}
    for placement in rooted:
        _check_rooted_home(placement, p)
        name = placement.spec.name
        n = placement.degree
        works = _clone_vectors(placement.spec, n, comm, policy, vectors)
        fold(
            name,
            placement.site_indices,
            [(None, name, k, work) for k, work in enumerate(works)],
        )
        chosen[name] = n

    # Step 2: degree of coarse-grain parallelism for every floating
    # operator, and the clone lists L_i.
    pending: list[tuple[float, str, int, WorkVector]] = []
    for spec in floating:
        name = spec.name
        if degrees is not None and name in degrees:
            n = degrees[name]
            if n < 1:
                raise SchedulingError(
                    f"operator {name!r}: requested degree {n} < 1"
                )
            if n > p:
                raise InfeasibleScheduleError(
                    f"operator {name!r}: requested degree {n} > P={p}"
                )
        else:
            n = coarse_grain_degree(spec, p, f, comm, overlap, policy)
        chosen[name] = n
        for k, work in enumerate(_clone_vectors(spec, n, comm, policy, vectors)):
            pending.append((-work.length(), name, k, work))

    # Step 3: list scheduling in non-increasing order of l(w̄); ties in the
    # vector order are broken deterministically by operator name and clone
    # index.  Among allowable sites, the rule picks one minimizing
    # l(work(s)) (Figure 3); sites tied on length are distinguished by
    # total load, then index — the paper permits any minimizer, and the
    # total-load tie-break avoids piling work onto a site whose length
    # happens to sit on a different resource.  The heap holds one
    # (length, total load, index) entry per site, capacity-normalized;
    # the key ends in the site index, so its minimum is the exact site a
    # linear scan would choose.  The order keeps each operator's
    # equal-length clones (all but an EA1 coordinator carrying startup
    # cost) in one run.  Placing a clone on a site makes that site
    # unallowable for the rest of its run and leaves every other key
    # alone, so a run of k clones lands on the k smallest allowable keys
    # at once: one heap pass, whose popped sites hosting the operator are
    # set aside and pushed back after it, and the run's sites re-keyed.
    # A one-shot pack never re-keys a queued site, so every entry stays
    # fresh and the heap needs no lazy deletion.
    count = len(pending)
    timer = metrics.timer(TIMER_LIST_SCHEDULE) if metrics is not None else nullcontext()
    with current_tracer().span(SPAN_LIST_PLACEMENT, clones=count, p=p), timer:
        # (name, clone) pairs are unique: the sort never compares vectors.
        pending.sort()
        heap = [
            (lengths[j] / caps[j], totals[j] / caps[j], j) for j in range(p)
        ]
        heapify(heap)
        scans = 0
        start = 0
        while start < count:
            name = pending[start][1]
            end = start + 1
            while end < count and pending[end][1] == name:
                end += 1
            want = end - start
            sites: list[int] = []
            skipped = []
            while heap:
                entry = heappop(heap)
                scans += 1
                if name in hosted[entry[2]]:
                    skipped.append(entry)
                    continue
                sites.append(entry[2])
                if len(sites) == want:
                    break
            if len(sites) < want:
                _, name, k, _ = pending[start + len(sites)]
                raise InfeasibleScheduleError(
                    f"no allowable site left for clone {k} of {name!r} "
                    f"(degree {chosen[name]} on P={p} sites)"
                )
            fold(name, sites, pending[start:end])
            for j in sites:
                heappush(heap, (lengths[j] / caps[j], totals[j] / caps[j], j))
            for entry in skipped:
                heappush(heap, entry)
            start = end
        if metrics is not None:
            metrics.count(COUNTER_PLACEMENT_SCANS, scans)
            metrics.count(COUNTER_CLONES_PLACED, count)

    schedule = Schedule._adopt(
        d,
        [
            Site._adopt(
                j, d, caps[j], clones[j], hosted[j], loads[j], lengths[j],
                totals[j], max_t_seq[j],
            )
            for j in range(p)
        ],
        homes,
        total_work,
        sum(chosen.values()),
    )
    makespan = max(
        max(max_t_seq[j], lengths[j]) / caps[j] if clones[j] else 0.0
        for j in range(p)
    )
    return OperatorScheduleResult(schedule=schedule, degrees=chosen, makespan=makespan)
