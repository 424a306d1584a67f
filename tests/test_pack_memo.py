"""The shelf-pack memo: a packing reused by content, under any operator names.

Inside a :func:`~repro.core.operator_schedule.use_pack_memo` scope,
:func:`~repro.core.operator_schedule.operator_schedule` keys each call on
its content with the operator names left out, and answers a repeated
content from the stored schedule with the names mapped position by
position.  The oracle is the same call outside any scope.  Each case
runs a problem, a renamed copy of it (a hit or, when the renaming
changes the floating name order, a miss) and a copy with one field of
its content changed (a miss), twice each in one scope and once in no
scope; both sides must agree on every site's state as
``float.hex``, clone order, homes order, degrees (order included), the
makespan, and on the class and message of every error.  The renamings
cover equal-length clones of different operators, whose order the name
tie-break decides, rooted operators, forced and infeasible degrees and
heterogeneous capacities.  A caller that mutates a returned schedule
must not change what a later call gets.  No numpy required.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cloning import CoordinatorPolicy, OperatorSpec
from repro.core.granularity import CommunicationModel
from repro.core.operator_schedule import (
    RootedPlacement,
    operator_schedule,
    use_pack_memo,
)
from repro.core.resource_model import ConvexCombinationOverlap
from repro.core.schedule import Schedule
from repro.core.site import PlacedClone
from repro.core.work_vector import WorkVector
from repro.engine.metrics import MetricsRecorder
from repro.exceptions import ReproError

#: The module itself: ``repro.core`` re-exports a function of the same name.
pack_module = sys.modules[operator_schedule.__module__]

COMM = CommunicationModel(alpha=0.015, beta=0.6e-6)
OVERLAP = ConvexCombinationOverlap(0.5)

#: A few work vectors, so that different operators often share one and
#: their equal-length clones are ordered by name alone.
WORKS = [(2.0, 0.5, 1.0), (1.0, 1.0, 0.0), (0.25, 3.0, 0.5), (6.0, 2.0, 2.0)]
NAMES = ["a", "b", "build(J1)", "m", "probe(J0)", "scan(R2)", "x", "z"]


@st.composite
def problems(draw):
    """``(floating, rooted, forced degrees, p, capacities, policy)``.

    Forced degrees range over ``0..p+1`` (both ends infeasible) and a
    rooted operator may name a site outside ``0..p-1``.
    """
    p = draw(st.integers(1, 6))
    n_floating = draw(st.integers(0, 4))
    n_rooted = draw(st.integers(0 if n_floating else 1, 2))
    names = draw(st.permutations(NAMES))[: n_floating + n_rooted]

    def spec(name):
        work = draw(st.sampled_from(WORKS) | st.tuples(*[st.floats(0.0, 8.0)] * 3))
        volume = draw(st.sampled_from([0.0, 1e6, 4e6]))
        return OperatorSpec(name, WorkVector(work), data_volume=volume)

    floating = [spec(name) for name in names[:n_floating]]
    rooted = []
    for name in names[n_floating:]:
        sites = draw(st.permutations(range(p)))[: draw(st.integers(1, p))]
        if draw(st.integers(0, 9)) == 0:
            sites[-1] = p  # outside 0..p-1: infeasible
        rooted.append(RootedPlacement(spec(name), tuple(sites)))
    forced = {
        spec.name: draw(st.integers(0, p + 1))
        for spec in floating
        if draw(st.booleans())
    }
    capacities = draw(
        st.none() | st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=p, max_size=p)
    )
    policy = draw(
        st.sampled_from([CoordinatorPolicy(), CoordinatorPolicy(cpu_fraction=1.0)])
    )
    return floating, rooted, forced, p, capacities, policy


def renamed(problem, names: dict[str, str]):
    """The same problem with every operator renamed by ``names``."""
    floating, rooted, forced, p, capacities, policy = problem
    return (
        [OperatorSpec(names[s.name], s.work, s.data_volume) for s in floating],
        [
            RootedPlacement(
                OperatorSpec(names[r.spec.name], r.spec.work, r.spec.data_volume),
                r.site_indices,
            )
            for r in rooted
        ],
        {names[name]: n for name, n in forced.items()},
        p,
        capacities,
        policy,
    )


@st.composite
def tweaked(draw, problem):
    """``problem`` with one field of its content changed, names kept."""
    floating, rooted, forced, p, capacities, policy = problem
    floating, rooted, forced = list(floating), list(rooted), dict(forced)
    field = draw(st.sampled_from(["forced", "capacities", "volume", "sites", "policy", "p"]))
    if field == "forced" and floating:
        name = draw(st.sampled_from(floating)).name
        if name in forced and draw(st.booleans()):
            del forced[name]
        else:
            forced[name] = draw(st.integers(1, p).filter(lambda n: n != forced.get(name)))
    elif field == "capacities":
        capacities = None if capacities is not None else [2.0] + [1.0] * (p - 1)
    elif field == "volume" and floating:
        i = draw(st.integers(0, len(floating) - 1))
        spec = floating[i]
        floating[i] = OperatorSpec(spec.name, spec.work, spec.data_volume + 5e5)
    elif field == "sites" and rooted:
        i = draw(st.integers(0, len(rooted) - 1))
        placement = rooted[i]
        rooted[i] = RootedPlacement(
            placement.spec, tuple((j + 1) % (p + 1) for j in placement.site_indices)
        )
    elif field == "policy":
        policy = CoordinatorPolicy(cpu_fraction=1.0 - policy.cpu_fraction)
    else:
        p, capacities = p + 1, None
    return floating, rooted, forced, p, capacities, policy


def call(problem, **kw):
    floating, rooted, forced, p, capacities, policy = problem
    return operator_schedule(
        floating, rooted, p=p, comm=COMM, overlap=OVERLAP, degrees=forced,
        policy=policy, capacities=capacities, **kw,
    )


def _hex(values) -> list[str]:
    return [float(x).hex() for x in values]


def schedule_state(schedule: Schedule):
    """A schedule's whole state, floats as ``float.hex``, order included."""
    return {
        "sites": [
            (
                site.index,
                site.capacity.hex(),
                [
                    (c.operator, c.clone_index, _hex(c.work.components), c.t_seq.hex())
                    for c in site.clones
                ],
                sorted(site.operators),
                _hex(site.load_vector().components),
                site.length().hex(),
                site.total_load().hex(),
                site.max_t_seq().hex(),
            )
            for site in schedule.sites
        ],
        # Placement order of operators, and of each operator's clones.
        "homes": [(op, list(pairs)) for op, pairs in schedule._homes.items()],
        "total_work": _hex(schedule.total_work().components),
        "clone_count": schedule.clone_count(),
        "disabled": sorted(schedule.disabled_sites),
    }


def outcome(problem):
    """What one call gives: the result's state, or the error it raises."""
    try:
        result = call(problem)
    except ReproError as exc:
        return (type(exc).__name__, str(exc))
    return (
        schedule_state(result.schedule),
        list(result.degrees.items()),
        result.makespan.hex(),
    )


def count_packs(monkeypatch) -> list[int]:
    """Counts the packs actually computed (memo misses and unscoped calls)."""
    counted = [0]
    pack = pack_module._pack

    def counting(*args, **kwargs):
        counted[0] += 1
        return pack(*args, **kwargs)

    monkeypatch.setattr(pack_module, "_pack", counting)
    return counted


@pytest.fixture
def packs(monkeypatch):
    return count_packs(monkeypatch)


@settings(max_examples=250, deadline=None)
@given(problem=problems(), data=st.data())
def test_memoized_calls_match_unscoped_calls(problem, data):
    old = [s.name for s in problem[0]] + [r.spec.name for r in problem[1]]
    new = data.draw(st.permutations(NAMES))[: len(old)]
    other = renamed(problem, dict(zip(old, new)))
    changed = data.draw(tweaked(problem))
    expected = [outcome(problem), outcome(other), outcome(changed)]
    with use_pack_memo():
        # A miss; a hit (or a miss, if the floating name order changed);
        # a problem of other content under the first names; then each
        # again, from the memo.
        got = [outcome(case) for case in (problem, other, changed) * 2]
    assert got == expected + expected


@settings(max_examples=100, deadline=None)
@given(problem=problems(), data=st.data())
def test_an_order_keeping_renaming_is_packed_once(problem, data):
    floating_names = sorted(s.name for s in problem[0])
    rooted_names = [r.spec.name for r in problem[1]]
    new = data.draw(st.permutations(NAMES))[: len(floating_names) + len(rooted_names)]
    names = dict(zip(floating_names, sorted(new[: len(floating_names)])))
    names.update(zip(rooted_names, new[len(floating_names):]))
    other = renamed(problem, names)
    # The floating input order does not matter either.
    other[0].reverse()
    with pytest.MonkeyPatch.context() as m:
        counted = count_packs(m)
        with use_pack_memo():
            first, second = outcome(problem), outcome(other)
        packed = counted[0]
    # A failure is not stored, so the renamed call packs (and fails) again.
    failed = isinstance(first[0], str)
    assert packed == (2 if failed else 1)
    assert second == outcome(other)


SPECS = [
    OperatorSpec("scan(R1)", WorkVector([4.0, 2.0, 0.5]), data_volume=2e6),
    OperatorSpec("scan(R2)", WorkVector([4.0, 2.0, 0.5]), data_volume=2e6),
    OperatorSpec("build(J1)", WorkVector([1.0, 0.0, 0.25]), data_volume=1e6),
]
ROOTED = [RootedPlacement(OperatorSpec("probe(J0)", WorkVector([3.0, 1.0, 1.0])), (2, 0, 1))]
PROBLEM = (SPECS, ROOTED, {}, 8, None, CoordinatorPolicy())


def test_a_mutated_result_does_not_reach_a_later_hit(packs):
    expected = outcome(PROBLEM)
    with use_pack_memo():
        for _ in range(3):
            result = call(PROBLEM)
            assert outcome(PROBLEM) == expected
            # Mutate everything a caller can reach.
            schedule = result.schedule
            schedule.place(7, PlacedClone("extra", 0, WorkVector([9.0, 9.0, 9.0]), 9.0))
            schedule.drain_site(0)
            schedule.remove_operator("probe(J0)")
            schedule.set_site_capacity(1, 4.0)
            schedule.disable_site(3)
            result.degrees.clear()
            assert outcome(PROBLEM) == expected
    # One pack for the scope, plus the unscoped reference.
    assert packs[0] == 2


def test_degrees_follow_the_call_order():
    with use_pack_memo():
        first = call(PROBLEM)
        second = call((SPECS[::-1], *PROBLEM[1:]))
    assert list(first.degrees) == ["probe(J0)", "scan(R1)", "scan(R2)", "build(J1)"]
    assert list(second.degrees) == ["probe(J0)", "build(J1)", "scan(R2)", "scan(R1)"]
    assert second.degrees == first.degrees


def test_a_metrics_recorder_bypasses_the_memo(packs):
    with use_pack_memo():
        call(PROBLEM)
        metrics = MetricsRecorder()
        call(PROBLEM, metrics=metrics)
        call(PROBLEM)
    assert packs[0] == 2
    assert metrics.counters["clones_placed"] > 0


def test_scopes_nest_and_drop_their_memo(packs):
    with use_pack_memo():
        call(PROBLEM)
        with use_pack_memo():
            call(PROBLEM)  # an inner scope starts empty
        call(PROBLEM)
    call(PROBLEM)  # no scope: no memo
    assert packs[0] == 3


# ----------------------------------------------------------------------
# The stored form: Schedule.snapshot / Schedule.from_snapshot
# ----------------------------------------------------------------------
@st.composite
def placed_schedules(draw):
    """Random placements, with capacities, disabled sites and empty sites."""
    p = draw(st.integers(1, 5))
    n_ops = draw(st.integers(0, 4))
    works = [WorkVector(w) for w in WORKS]
    next_clone = [0] * n_ops
    schedule = Schedule(
        p, 3,
        draw(st.none() | st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=p, max_size=p)),
    )
    for j in range(p):
        for op in draw(st.permutations(range(n_ops)))[: draw(st.integers(0, n_ops))]:
            work = draw(st.sampled_from(works))
            schedule.place(j, PlacedClone(f"op{op}", next_clone[op], work, work.length()))
            next_clone[op] += 1
    for j in draw(st.sets(st.integers(0, p - 1))):
        schedule.disable_site(j)
    return schedule


@settings(max_examples=150, deadline=None)
@given(schedule=placed_schedules(), data=st.data())
def test_snapshot_round_trip_keeps_the_state(schedule, data):
    snapshot = schedule.snapshot()
    assert schedule_state(Schedule.from_snapshot(snapshot)) == schedule_state(schedule)
    ops = list(schedule._homes)
    names = dict(zip(ops, data.draw(st.permutations(NAMES))))
    relabeled = Schedule.from_snapshot(snapshot, names)
    expected = schedule_state(schedule)
    for site in expected["sites"]:
        site[2][:] = [(names[op], *rest) for op, *rest in site[2]]
        site[3][:] = sorted(names[op] for op in site[3])
    expected["homes"] = [(names[op], pairs) for op, pairs in expected["homes"]]
    assert schedule_state(relabeled) == expected
    # Rebuilt schedules share nothing mutable with the snapshot.
    relabeled.drain_site(0)
    assert schedule_state(Schedule.from_snapshot(snapshot)) == schedule_state(schedule)
