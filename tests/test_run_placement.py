"""Run placement: one heap pass, one ``T_seq`` and one fold per run.

``operator_schedule`` step 3 (the Figure 3 kernel, on flat per-site
state) and the ``LEAST_LOADED_LENGTH`` rule of ``pack_vectors`` and
``reschedule_schedule`` (:func:`repro.core.placement_heap.place_runs`)
place each maximal run of one operator's consecutive clones at once.
The oracle here places clone by clone, with no heap: a linear min-scan
over the allowable sites with the kernel's own key, one ``T_seq`` and
one checked ``Schedule.place`` per clone.  Hypothesis holds the two
equal bit for bit (``float.hex``) on clone order per site, loads,
lengths, ``max_t_seq``, homes and the schedule's total-work vector, and
on the class and message of every failing case.  For
``operator_schedule`` it also holds the degrees (order included), the
makespan and the ``placement_scans``/``clones_placed`` counters equal,
inside and outside a pack-memo scope; the reference counts a run's
scans as the sites whose key is at most the run's last chosen key,
which is what one heap pass pops.  Repair's runs are held to
``reschedule_reference`` by ``tests/test_reschedule.py``.

The rejection table pins :meth:`Schedule.place_operator`'s checks: each
bad run raises :class:`SchedulingError` before anything is mutated.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    CloneItem,
    CommunicationModel,
    ConvexCombinationOverlap,
    InfeasibleScheduleError,
    MetricsRecorder,
    OperatorSpec,
    PlacementRule,
    RootedPlacement,
    SchedulingError,
    SiteHeap,
    SortKey,
    WorkVector,
    operator_schedule,
    pack_vectors,
)
from repro.core.cloning import (
    DEFAULT_COORDINATOR_POLICY,
    clone_work_vectors,
    coarse_grain_degree,
)
from repro.core.operator_schedule import use_pack_memo
from repro.core.placement_heap import least_loaded_key
from repro.core.schedule import Schedule
from repro.core.site import PlacedClone, Site
from repro.core.vector_packing import _sorted_items
from repro.obs.names import (
    COUNTER_CLONES_PLACED,
    COUNTER_PLACEMENT_SCANS,
    SPAN_LIST_PLACEMENT,
    TIMER_LIST_SCHEDULE,
)
from repro.obs.tracer import Tracer, use_tracer

OVERLAP = ConvexCombinationOverlap(0.5)


# ----------------------------------------------------------------------
# The per-clone reference loops
# ----------------------------------------------------------------------
def least_key_site(schedule, operator, key):
    """The allowable site with the smallest key, by a linear min-scan."""
    allowable = [s for s in schedule.sites if not s.hosts_operator(operator)]
    return min(allowable, key=key) if allowable else None


def per_clone_operator_schedule(
    floating, rooted=(), *, p, comm, overlap, f=0.7, degrees=None, capacities=None
):
    """``operator_schedule`` as it placed clones before run placement.

    Returns the schedule, the degrees and the heap scans of step 3.
    """
    policy = DEFAULT_COORDINATOR_POLICY
    for spec in floating:
        if degrees is not None and spec.name in degrees:
            n = degrees[spec.name]
            if type(n) is not int:
                raise SchedulingError(
                    f"operator {spec.name!r}: requested degree {n!r} is not an int"
                )
    d = [*floating, *(r.spec for r in rooted)][0].d
    schedule = Schedule(p, d, capacities)
    chosen = {}
    for placement in rooted:
        n = placement.degree
        if n > p:
            raise InfeasibleScheduleError(
                f"rooted operator {placement.spec.name!r} has degree {n} > P={p}"
            )
        clones = clone_work_vectors(placement.spec, n, comm, policy)
        for k, (site_index, work) in enumerate(zip(placement.site_indices, clones)):
            if not 0 <= site_index < p:
                raise InfeasibleScheduleError(
                    f"rooted operator {placement.spec.name!r}: site {site_index} "
                    f"outside 0..{p - 1}"
                )
            schedule.place(
                site_index,
                PlacedClone(placement.spec.name, k, work, overlap.t_seq(work)),
            )
        chosen[placement.spec.name] = n
    pending = []
    for spec in floating:
        if degrees is not None and spec.name in degrees:
            n = degrees[spec.name]
            if n < 1:
                raise SchedulingError(
                    f"operator {spec.name!r}: requested degree {n} < 1"
                )
            if n > p:
                raise InfeasibleScheduleError(
                    f"operator {spec.name!r}: requested degree {n} > P={p}"
                )
        else:
            n = coarse_grain_degree(spec, p, f, comm, overlap, policy)
        chosen[spec.name] = n
        for k, work in enumerate(clone_work_vectors(spec, n, comm, policy)):
            pending.append((work.length(), spec.name, k, work))
    pending.sort(key=lambda item: (-item[0], item[1], item[2]))
    scans = 0
    for position, (_, op_name, k, work) in enumerate(pending):
        if position == 0 or pending[position - 1][1] != op_name:
            scans += run_scans(schedule, op_name, pending, position)
        best = least_key_site(schedule, op_name, figure3_key)
        if best is None:
            raise InfeasibleScheduleError(
                f"no allowable site left for clone {k} of {op_name!r} "
                f"(degree {chosen[op_name]} on P={p} sites)"
            )
        schedule.place(best.index, PlacedClone(op_name, k, work, overlap.t_seq(work)))
    return schedule, chosen, scans


def figure3_key(site):
    """Figure 3's site order: normalized length, then total load, then index."""
    return (site.normalized_length(), site.normalized_total_load(), site.index)


def run_scans(schedule, operator, pending, start):
    """Sites one heap pass pops for the run of ``operator`` at ``start``.

    Every site whose key is at most the key of the run's last chosen
    site: the ``k`` smallest allowable keys, and the unallowable sites
    set aside among them.  A run that does not fit counts nothing (the
    pack fails).
    """
    k = 1
    while start + k < len(pending) and pending[start + k][1] == operator:
        k += 1
    keys = [figure3_key(site) for site in schedule.sites]
    allowable = sorted(
        figure3_key(site) for site in schedule.sites if not site.hosts_operator(operator)
    )
    if len(allowable) < k:
        return 0
    return sum(1 for key in keys if key <= allowable[k - 1])


def per_clone_pack(items, *, p, overlap, sort, rng=None, capacities=None):
    """``pack_vectors``' least-loaded rule as it placed clone by clone."""
    schedule = Schedule(p, items[0].work.d, capacities)
    for item in _sorted_items(items, sort, rng):
        op = item.operator
        site = least_key_site(schedule, op, least_loaded_key)
        if site is None:
            raise InfeasibleScheduleError(
                f"no allowable site for clone {item.clone_index} of {item.operator!r}"
            )
        schedule.place(
            site.index,
            PlacedClone(op, item.clone_index, item.work, overlap.t_seq(item.work)),
        )
    return schedule


# ----------------------------------------------------------------------
# Exact state
# ----------------------------------------------------------------------
def _hex(values):
    return [float(v).hex() for v in values]


def state(schedule):
    """Everything placement folds, floats as ``float.hex``."""
    sites = []
    for site in schedule.sites:
        sites.append(
            (
                [
                    (c.operator, c.clone_index, _hex(c.work.components), c.t_seq.hex())
                    for c in site.clones
                ],
                _hex(site.load_vector().components),
                site.length().hex(),
                site.total_load().hex(),
                site.max_t_seq().hex(),
                sorted(site.operators),
            )
        )
    homes = [(op, list(pairs)) for op, pairs in schedule._homes.items()]
    return (
        sites,
        homes,
        _hex(schedule._total_work),
        schedule.clone_count(),
        schedule.disabled_sites,
    )


def outcome(call):
    """``("ok", state)`` or ``(exception type, message)``."""
    try:
        result = call()
    except SchedulingError as exc:
        return (type(exc).__name__, str(exc))
    schedule = result[0] if isinstance(result, tuple) else result
    return ("ok", state(schedule), result[1] if isinstance(result, tuple) else None)


# ----------------------------------------------------------------------
# operator_schedule oracle
# ----------------------------------------------------------------------
# A small value set makes lengths tie across operators; 0.0 allows
# all-zero vectors, whose placement leaves a site's key unchanged.
component = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 7.25, 40.0])

operator_case = st.fixed_dictionaries(
    {
        "d": st.integers(min_value=1, max_value=3),
        "p": st.integers(min_value=1, max_value=9),
        "alpha": st.sampled_from([0.0, 0.015, 1.0]),
        "beta": st.sampled_from([0.0, 0.6e-6, 0.01]),
        "f": st.sampled_from([0.3, 0.7, 1.0]),
        "raw": st.lists(
            st.tuples(
                st.lists(component, min_size=3, max_size=3),
                st.sampled_from([0.0, 10.0, 500.0, 1e6]),
                # requested degree: None = coarse grain; p + 1 is infeasible
                st.one_of(st.none(), st.integers(min_value=1, max_value=10)),
                # rooted?
                st.booleans(),
            ),
            min_size=1,
            max_size=7,
        ),
        # a rooted operator with a home site outside 0..p-1
        "outside": st.integers(min_value=0, max_value=9).map(lambda n: n == 0),
        # a forced degree that is not an int, on the first floating operator
        "bad_degree": st.sampled_from([None] * 8 + [True, 2.5]),
        "capacities": st.one_of(
            st.none(),
            st.lists(st.sampled_from([0.5, 1.0, 2.0, 4.0]), min_size=9, max_size=9),
        ),
        # a bad capacity list: one entry short, or one zero or NaN entry
        "bad_capacities": st.sampled_from([None] * 6 + ["short", 0.0, float("nan")]),
        "seed": st.integers(min_value=0, max_value=2**16),
    }
)


def build_operator_case(case):
    d, p = case["d"], case["p"]
    rng = random.Random(case["seed"])
    floating, rooted, degrees = [], [], {}
    for i, (comps, data, degree, is_rooted) in enumerate(case["raw"]):
        spec = OperatorSpec(
            name=f"op{i % 3}{i}", work=WorkVector(comps[:d]), data_volume=data
        )
        if is_rooted:
            n = min(degree or 1, p)
            rooted.append(RootedPlacement(spec, tuple(rng.sample(range(p), n))))
        else:
            floating.append(spec)
            if degree is not None:
                degrees[spec.name] = degree
    if floating and case["bad_degree"] is not None:
        degrees[floating[0].name] = case["bad_degree"]
    if rooted and case["outside"]:
        last = rooted[-1]
        rooted[-1] = RootedPlacement(last.spec, (*last.site_indices[:-1], p))
    capacities = None if case["capacities"] is None else case["capacities"][:p]
    bad = case["bad_capacities"]
    if bad == "short":
        capacities = [1.0] * (p - 1)
    elif bad is not None:
        capacities = [*(capacities or [1.0] * p)]
        capacities[rng.randrange(p)] = bad
    kwargs = dict(
        p=p,
        comm=CommunicationModel(alpha=case["alpha"], beta=case["beta"]),
        overlap=OVERLAP,
        f=case["f"],
        degrees=degrees,
        capacities=capacities,
    )
    return floating, rooted, kwargs


def kernel_outcome(call):
    """``("ok", state, degrees, makespan, counters)`` or the error's class and message.

    ``counters`` is ``(placement_scans, clones_placed)`` when the call
    records metrics, else ``None``.
    """
    metrics = MetricsRecorder()
    try:
        schedule, degrees, makespan, scans = call(metrics)
    except SchedulingError as exc:
        return (type(exc).__name__, str(exc))
    return ("ok", state(schedule), list(degrees.items()), makespan.hex(), scans)


def check_kernel(floating, rooted, kwargs):
    """``operator_schedule`` equals the per-clone loop, with and without the memo."""

    def reference(metrics):
        schedule, degrees, scans = per_clone_operator_schedule(floating, rooted, **kwargs)
        return schedule, degrees, schedule.makespan(), scans

    def recorded(metrics):
        result = operator_schedule(floating, rooted, metrics=metrics, **kwargs)
        assert TIMER_LIST_SCHEDULE in metrics.timers
        counters = metrics.counters
        assert counters[COUNTER_CLONES_PLACED] == result.schedule.clone_count() - sum(
            r.degree for r in rooted
        )
        return (
            result.schedule, result.degrees, result.makespan,
            counters[COUNTER_PLACEMENT_SCANS],
        )

    def memoized(metrics):
        result = operator_schedule(floating, rooted, **kwargs)
        return result.schedule, result.degrees, result.makespan, None

    expected = kernel_outcome(reference)
    assert kernel_outcome(recorded) == expected
    unscanned = expected[:4] + (None,) if expected[0] == "ok" else expected
    assert kernel_outcome(memoized) == unscanned
    with use_pack_memo():
        assert kernel_outcome(memoized) == unscanned  # a miss
        assert kernel_outcome(memoized) == unscanned  # a hit, if it packed


@settings(max_examples=400, deadline=None)
@given(operator_case)
def test_operator_schedule_equals_per_clone_loop(case):
    check_kernel(*build_operator_case(case))


def test_operator_schedule_oracle_covers_long_runs():
    """A forced degree of p on few sites: every floating clone run is long."""
    specs = [
        OperatorSpec(name=f"op{i}", work=WorkVector([2.0, 1.0 + i, 0.5]), data_volume=1e3)
        for i in range(5)
    ]
    rooted = [RootedPlacement(OperatorSpec("r", WorkVector([9.0, 0.0, 1.0])), (3, 0, 5))]
    kwargs = dict(
        p=8,
        comm=CommunicationModel(alpha=0.0, beta=0.01),
        overlap=OVERLAP,
        degrees={spec.name: 8 for spec in specs},
        capacities=[1.0, 2.0, 0.5, 1.0, 4.0, 1.0, 1.0, 2.0],
    )
    result = operator_schedule(specs, rooted, **kwargs)
    expected = per_clone_operator_schedule(specs, rooted, **kwargs)
    assert state(result.schedule) == state(expected[0])
    assert result.degrees == expected[1]
    check_kernel(specs, rooted, kwargs)


@pytest.mark.parametrize(
    "name, floating, rooted, kwargs",
    [
        (
            # Equal-length clones of different operators: name order only.
            "tied lengths, alpha 0",
            [OperatorSpec(f"t{i}", WorkVector([3.0, 3.0])) for i in (2, 0, 1)],
            [],
            dict(p=5, comm=CommunicationModel(alpha=0.0, beta=0.0)),
        ),
        (
            "all-zero vectors",
            [OperatorSpec(f"z{i}", WorkVector([0.0, 0.0, 0.0])) for i in range(3)],
            [RootedPlacement(OperatorSpec("r", WorkVector([0.0, 0.0, 0.0])), (1, 2))],
            dict(p=4, comm=CommunicationModel(alpha=0.0, beta=0.0), degrees={"z1": 4}),
        ),
        (
            "forced degree above P",
            [OperatorSpec("a", WorkVector([1.0, 2.0])), OperatorSpec("b", WorkVector([2.0, 1.0]))],
            [],
            dict(p=3, comm=CommunicationModel(alpha=0.015, beta=0.0), degrees={"b": 4}),
        ),
        (
            "rooted degree above P",
            [OperatorSpec("a", WorkVector([1.0]))],
            [RootedPlacement(OperatorSpec("r", WorkVector([1.0])), (0, 1, 2))],
            dict(p=2, comm=CommunicationModel(alpha=0.0, beta=0.0)),
        ),
        (
            "capacities of the wrong length",
            [OperatorSpec("a", WorkVector([1.0]))],
            [],
            dict(p=3, comm=CommunicationModel(alpha=0.0, beta=0.0), capacities=[1.0, 2.0]),
        ),
        (
            "a zero capacity",
            [OperatorSpec("a", WorkVector([1.0]))],
            [RootedPlacement(OperatorSpec("r", WorkVector([1.0])), (5,))],
            dict(p=3, comm=CommunicationModel(alpha=0.0, beta=0.0), capacities=[1.0, 0.0, 2.0]),
        ),
        (
            "a NaN capacity",
            [OperatorSpec("a", WorkVector([1.0]))],
            [],
            dict(
                p=2, comm=CommunicationModel(alpha=0.0, beta=0.0),
                capacities=[float("nan"), 1.0],
            ),
        ),
    ],
    ids=lambda value: value if isinstance(value, str) else "",
)
def test_operator_schedule_oracle_edge_cases(name, floating, rooted, kwargs):
    check_kernel(floating, rooted, {"overlap": OVERLAP, **kwargs})


def test_list_placement_span_and_timer():
    specs = [OperatorSpec(f"op{i}", WorkVector([1.0 + i, 2.0])) for i in range(3)]
    rooted = [RootedPlacement(OperatorSpec("r", WorkVector([1.0, 1.0])), (0, 2))]
    metrics = MetricsRecorder()
    with use_tracer(Tracer(enabled=True)) as tracer:
        result = operator_schedule(
            specs, rooted, p=6, comm=CommunicationModel(alpha=0.015, beta=0.0),
            overlap=OVERLAP, degrees={"op1": 4}, metrics=metrics,
        )
    spans = [span for span in tracer.iter_spans() if span.name == SPAN_LIST_PLACEMENT]
    floating_clones = result.schedule.clone_count() - 2
    assert [span.attributes for span in spans] == [{"clones": floating_clones, "p": 6}]
    assert set(metrics.timers) == {TIMER_LIST_SCHEDULE}
    assert metrics.counters[COUNTER_CLONES_PLACED] == floating_clones


# ----------------------------------------------------------------------
# pack_vectors oracle
# ----------------------------------------------------------------------
pack_case = st.fixed_dictionaries(
    {
        "d": st.integers(min_value=1, max_value=3),
        "p": st.integers(min_value=1, max_value=7),
        # per operator: clone count (may exceed p: infeasible), coordinator
        # vector, shared vector of the other clones, and whether the
        # coordinator shares the others' vector object (alpha = 0)
        "ops": st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=5),
                st.lists(component, min_size=3, max_size=3),
                st.lists(component, min_size=3, max_size=3),
                st.booleans(),
            ),
            min_size=1,
            max_size=8,
        ),
        "shuffle": st.booleans(),
        "capacities": st.one_of(
            st.none(), st.lists(st.sampled_from([0.5, 1.0, 2.0, 4.0]), min_size=7, max_size=7)
        ),
        "seed": st.integers(min_value=0, max_value=2**16),
    }
)


def build_items(case):
    d = case["d"]
    items = []
    for i, (n, coord, share, same) in enumerate(case["ops"]):
        shared = WorkVector(share[:d])
        first = shared if same else WorkVector(coord[:d])
        items.append(CloneItem(f"op{i % 4}{i}", 0, first))
        items.extend(CloneItem(f"op{i % 4}{i}", k, shared) for k in range(1, n))
    if case["shuffle"]:
        # Interleaves one operator's clones for the input-order key.
        random.Random(case["seed"]).shuffle(items)
    return items


@pytest.mark.parametrize("sort", list(SortKey), ids=lambda key: key.value)
@settings(max_examples=120, deadline=None)
@given(case=pack_case)
def test_pack_vectors_equals_per_clone_loop(sort, case):
    items = build_items(case)
    p = case["p"]
    capacities = None if case["capacities"] is None else case["capacities"][:p]

    def fast():
        return pack_vectors(
            items,
            p=p,
            overlap=OVERLAP,
            sort=sort,
            rule=PlacementRule.LEAST_LOADED_LENGTH,
            rng=random.Random(case["seed"]),
            capacities=capacities,
        )

    def slow():
        return per_clone_pack(
            items,
            p=p,
            overlap=OVERLAP,
            sort=sort,
            rng=random.Random(case["seed"]),
            capacities=capacities,
        )

    assert outcome(fast) == outcome(slow)


def test_infeasible_run_names_the_first_unplaced_clone():
    items = [CloneItem("a", k, WorkVector([1.0, 2.0])) for k in range(5)]
    with pytest.raises(InfeasibleScheduleError, match="clone 3 of 'a'"):
        pack_vectors(items, p=3, overlap=OVERLAP)
    with pytest.raises(InfeasibleScheduleError, match="clone 3 of 'a'"):
        per_clone_pack(items, p=3, overlap=OVERLAP, sort=SortKey.MAX_COMPONENT)


def test_zero_vectors_keep_keys_and_still_spread():
    """All-zero clones leave every key unchanged: pure index tie-breaks."""
    zero = WorkVector([0.0, 0.0])
    items = [CloneItem(f"z{i}", k, zero) for i in range(3) for k in range(3)]
    fast = pack_vectors(items, p=4, overlap=OVERLAP)
    slow = per_clone_pack(items, p=4, overlap=OVERLAP, sort=SortKey.MAX_COMPONENT)
    assert state(fast) == state(slow)
    fast.validate()


# ----------------------------------------------------------------------
# SiteHeap.take
# ----------------------------------------------------------------------
def _site(j, load, operators=()):
    site = Site(j, 1)
    for op in operators:
        site.place(PlacedClone(op, 0, WorkVector([0.0]), 0.0))
    if load:
        site.place(PlacedClone(f"load{j}", 0, WorkVector([load]), load))
    return site


def test_take_returns_smallest_allowable_keys_in_order():
    sites = [_site(0, 3.0), _site(1, 1.0, ["a"]), _site(2, 2.0), _site(3, 0.5)]
    heap = SiteHeap(sites, key=least_loaded_key)
    taken = heap.take("a", 2)
    assert [s.index for s in taken] == [3, 2]
    assert heap.scans == 3  # site 3, site 1 (set aside), site 2
    for k, site in enumerate(taken):
        site.place(PlacedClone("a", k, WorkVector([5.0]), 5.0))
        heap.update(site)
    # Site 1 was re-pushed: it is still there for another operator.
    assert [s.index for s in heap.take("b", 1)] == [1]


def test_take_drops_a_repeated_entry_of_a_taken_site():
    """``update`` on a queued site with an unchanged key queues a twin entry."""
    sites = [_site(0, 1.0), _site(1, 2.0), _site(2, 3.0)]
    heap = SiteHeap(sites, key=least_loaded_key)
    heap.add_batch(sites[:1])
    assert [s.index for s in heap.take("a", 2)] == [0, 1]


def test_take_shortfall_leaves_every_site_queued():
    sites = [_site(0, 1.0), _site(1, 2.0, ["a"]), _site(2, 3.0)]
    heap = SiteHeap(sites, key=least_loaded_key)
    assert [s.index for s in heap.take("a", 3)] == [0, 2]
    assert [s.index for s in heap.take("b", 3)] == [0, 1, 2]


# ----------------------------------------------------------------------
# Schedule.place_operator rejection table
# ----------------------------------------------------------------------
def _clone(op, k, comps=(1.0, 2.0)):
    return PlacedClone(op, k, WorkVector(list(comps)), max(comps))


def _base_schedule():
    schedule = Schedule(4, 2)
    schedule.place_operator("a", [(0, _clone("a", 0, (3.0, 1.0))), (2, _clone("a", 1))])
    schedule.place(1, _clone("b", 0, (0.5, 0.25)))
    schedule.disable_site(3)
    return schedule


REJECTIONS = {
    "index below range": ("c", [(0, _clone("c", 0)), (-1, _clone("c", 1))], "out of range"),
    "index above range": ("c", [(1, _clone("c", 0)), (4, _clone("c", 1))], "out of range"),
    "disabled site": ("c", [(0, _clone("c", 0)), (3, _clone("c", 1))], "out of service"),
    "wrong d": ("c", [(0, _clone("c", 0)), (1, _clone("c", 1, (1.0, 1.0, 1.0)))], "d=3"),
    "foreign operator": ("c", [(0, _clone("c", 0)), (1, _clone("b", 1))], "in a run of 'c'"),
    "site hosts operator": ("a", [(1, _clone("a", 2)), (2, _clone("a", 3))], "already hosts"),
    "site repeated in run": ("c", [(1, _clone("c", 0)), (1, _clone("c", 1))], "already hosts"),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_place_operator_rejects_without_mutation(case):
    operator, run, message = REJECTIONS[case]
    schedule = _base_schedule()
    before = state(schedule)
    with pytest.raises(SchedulingError, match=message):
        schedule.place_operator(operator, run)
    assert state(schedule) == before


def test_place_operator_matches_place_and_ignores_empty_runs():
    bulk = Schedule(3, 2)
    bulk.place_operator("a", [])
    assert not bulk.has_operator("a")
    one_by_one = Schedule(3, 2)
    run = [(2, _clone("a", 0, (0.1, 0.7))), (0, _clone("a", 1, (0.2, 0.3)))]
    bulk.place(0, _clone("b", 0, (0.3, 0.1)))
    one_by_one.place(0, _clone("b", 0, (0.3, 0.1)))
    bulk.place_operator("a", run)
    for j, clone in run:
        one_by_one.place(j, clone)
    assert state(bulk) == state(one_by_one)
    assert bulk.home("a").site_indices == (2, 0)
