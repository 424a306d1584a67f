"""A scored plan costs one pack: the search-scoped memos and the kept schedule.

Inside one :func:`repro.search.search_plans` call, degrees
(:func:`~repro.core.cloning.coarse_grain_degree`), operator costs
(:func:`~repro.cost.annotate.compute_operator_spec`) and shelf packs
(:func:`~repro.core.operator_schedule.operator_schedule`) are memoized
by content, and the best candidate scored inline keeps its schedule,
which becomes the winner's.  The oracle for every search below is the
same search with those four scopes replaced by no-ops: every candidate
is then expanded, annotated, degree-selected and packed from scratch,
and the winner is scheduled again by
:func:`~repro.search.score.schedule_candidate`.
Both must agree on the winner, the full ranking (objectives by
``float.hex``), the frontier, :class:`~repro.search.PlanSearchStats` and
the winner's serialized schedule, which must also equal an independent
TREESCHEDULE run of the winner plan.  No numpy required.
"""

from __future__ import annotations

import contextlib
import sys
from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.cloning as cloning
import repro.cost.annotate as annotate
import repro.search.score as score_module
import repro.search.search as search_module
from repro import Catalog, QueryGraph, Relation
from repro.core.cloning import (
    DEFAULT_COORDINATOR_POLICY,
    CoordinatorPolicy,
    OperatorSpec,
    coarse_grain_degree,
    use_degree_memo,
)
from repro.core.granularity import CommunicationModel
from repro.core.operator_schedule import operator_schedule, use_pack_memo
from repro.core.resource_model import ConvexCombinationOverlap, OverlapModel
from repro.core.schedule import PhasedSchedule, Schedule
from repro.core.site import PlacedClone
from repro.core.tree_schedule import tree_schedule
from repro.core.work_vector import WorkVector
from repro.cost.annotate import (
    annotate_plan,
    compute_operator_spec,
    use_operator_cost_memo,
)
from repro.cost.params import PAPER_PARAMETERS
from repro.engine.result import ScheduleResult
from repro.exceptions import SchedulingError
from repro.plans.operator_tree import EdgeKind, OperatorTree, expand_plan
from repro.plans.physical_ops import OperatorKind, PhysicalOperator, scan_op
from repro.plans.query_graph import prufer_tree_edges
from repro.plans.task_tree import build_task_tree
from repro.search import candidate_point, evaluate_candidate, search_plans
from repro.search.score import _plan_store_payload, max_site_load, use_schedule_sink
from repro.serialization import schedule_result_to_dict
from repro.store import KIND_POINT, NO_STORE, ArtifactStore, point_key_payload

#: The module itself: ``repro.core`` re-exports a function of the same name.
pack_module = sys.modules[operator_schedule.__module__]

PARAMS = PAPER_PARAMETERS
COMM = PARAMS.communication_model()
OVERLAP = ConvexCombinationOverlap(0.5)


def query(cards: list[int], edges: list[tuple[int, int]]):
    names = [f"R{i}" for i in range(len(cards))]
    catalog = Catalog([Relation(name, tuples) for name, tuples in zip(names, cards)])
    return QueryGraph(names, [(names[a], names[b]) for a, b in edges]), catalog


def chain(cards: list[int]):
    return query(cards, [(i, i + 1) for i in range(len(cards) - 1)])


def star(cards: list[int]):
    return query(cards, [(0, i) for i in range(1, len(cards))])


QUERIES = {
    "chain5": chain([180_000, 3_500, 64_000, 900, 41_000]),
    "chain6-equal": chain([1_000] * 6),
    "star5": star([20_000, 1_000, 7_000, 150_000, 2_100]),
    # 4,862 plans: above max_exhaustive, so the seeded local search runs.
    "chain10-local": chain([1_000 * (i * 13 % 17 + 1) for i in range(10)]),
}
MODES = {
    "pruned": {},
    "unpruned": {"prune": False},
    "pareto": {"pareto": True, "pareto_eps": 0.05},
}


def _no_scope(*args):
    return contextlib.nullcontext()


def unmemoized(monkeypatch):
    """Replace the four search scopes by no-ops (the pre-memo pipeline)."""
    for name in (
        "use_degree_memo",
        "use_operator_cost_memo",
        "use_pack_memo",
        "use_schedule_sink",
    ):
        monkeypatch.setattr(search_module, name, _no_scope)


def schedule_dict(result) -> dict:
    payload = schedule_result_to_dict(result)
    payload.pop("instrumentation")
    return payload


def fingerprint(result):
    """Everything a memoized search must share with the oracle."""

    def row(sp):
        return (
            sp.key,
            sp.plan.pretty(),
            sp.response_time.hex(),
            sp.num_phases,
            sp.total_work.hex(),
            sp.max_site_load.hex(),
        )

    return (
        row(result.winner),
        [row(sp) for sp in result.candidates],
        [sp.key for sp in result.frontier],
        result.stats,
        schedule_dict(result.schedule),
    )


def independent_schedule(plan, *, p, policy=DEFAULT_COORDINATOR_POLICY):
    op_tree = expand_plan(plan)
    annotate_plan(op_tree, PARAMS)
    return tree_schedule(
        op_tree, build_task_tree(op_tree), p=p, comm=COMM, overlap=OVERLAP,
        f=0.7, shelf="min", policy=policy,
    )


class Runs:
    """Counts TREESCHEDULE runs made through the scorer in this process."""

    def __init__(self, monkeypatch):
        self.count = 0
        run = score_module.tree_schedule

        def counted(*args, **kwargs):
            self.count += 1
            return run(*args, **kwargs)

        monkeypatch.setattr(score_module, "tree_schedule", counted)


def search(graph, catalog, **kw):
    kw.setdefault("p", 16)
    kw.setdefault("seed", 3)
    kw.setdefault("chunk_size", 4)
    kw.setdefault("store", NO_STORE)
    return search_plans(graph, catalog, **kw)


# ----------------------------------------------------------------------
# Memoized search == unmemoized search
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("name", list(QUERIES))
def test_memoized_search_matches_the_unmemoized_oracle(monkeypatch, name, mode):
    graph, catalog = QUERIES[name]
    runs = Runs(monkeypatch)
    result = search(graph, catalog, **MODES[mode])
    memo_runs, runs.count = runs.count, 0
    with monkeypatch.context() as m:
        unmemoized(m)
        expected = search(graph, catalog, **MODES[mode])
    assert fingerprint(result) == fingerprint(expected)
    # One pack per scored plan; the oracle schedules its winner again.
    assert memo_runs == result.stats.scored
    assert runs.count == result.stats.scored + 1
    assert schedule_dict(result.schedule) == schedule_dict(
        independent_schedule(result.winner.plan, p=16)
    )


@st.composite
def tree_queries(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    prufer = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=max(n - 2, 0), max_size=max(n - 2, 0),
        )
    )
    edges = prufer_tree_edges(prufer) if n > 2 else [(0, 1)][: n - 1]
    cards = draw(
        st.lists(
            st.one_of(st.integers(1, 250_000), st.sampled_from([1_000, 20_000])),
            min_size=n, max_size=n,
        )
    )
    return query(cards, edges)


@settings(max_examples=15, deadline=None)
@given(
    q=tree_queries(),
    p=st.sampled_from([1, 2, 16, 64]),
    mode=st.sampled_from(list(MODES)),
    chunk_size=st.sampled_from([1, 3, 16]),
)
def test_random_trees_match_the_unmemoized_oracle(q, p, mode, chunk_size):
    graph, catalog = q
    result = search(graph, catalog, p=p, chunk_size=chunk_size, **MODES[mode])
    with pytest.MonkeyPatch.context() as m:
        unmemoized(m)
        expected = search(graph, catalog, p=p, chunk_size=chunk_size, **MODES[mode])
    assert fingerprint(result) == fingerprint(expected)


@pytest.mark.parametrize("name", ["chain5", "chain10-local"])
def test_two_workers_match_one(name):
    graph, catalog = QUERIES[name]
    assert fingerprint(search(graph, catalog, workers=2)) == fingerprint(
        search(graph, catalog)
    )


def test_a_winner_scored_in_a_pool_worker_falls_back(monkeypatch):
    graph, catalog = QUERIES["chain5"]
    runs = Runs(monkeypatch)
    # One chunk of four, all scored in pool workers: nothing is kept in
    # this process, so the winner is scheduled here once more.
    result = search(graph, catalog, workers=2)
    assert result.stats.scored == 4
    assert runs.count == 1


@pytest.mark.parametrize("name", ["chain5", "chain10-local"])
def test_cold_and_warm_store_match_the_oracle(monkeypatch, tmp_path, name):
    graph, catalog = QUERIES[name]
    runs = Runs(monkeypatch)
    store = ArtifactStore(tmp_path / "memo")
    cold = search(graph, catalog, store=store)
    cold_runs, runs.count = runs.count, 0
    warm = search(graph, catalog, store=store)
    warm_runs, runs.count = runs.count, 0
    with monkeypatch.context() as m:
        unmemoized(m)
        oracle_store = ArtifactStore(tmp_path / "oracle")
        expected_cold = search(graph, catalog, store=oracle_store)
        expected_warm = search(graph, catalog, store=oracle_store)
    assert fingerprint(cold) == fingerprint(expected_cold)
    assert fingerprint(warm) == fingerprint(expected_warm)
    scored = cold.stats.scored
    assert (cold.stats.store_hits, cold.stats.store_misses) == (0, scored + 1)
    assert (warm.stats.store_hits, warm.stats.store_misses) == (scored + 1, 0)
    # The kept schedule is what the cold search writes under KIND_PLAN,
    # so the warm search schedules nothing at all.
    assert (cold_runs, warm_runs) == (scored, 0)
    assert sorted(p.name for p in (tmp_path / "memo").rglob("*") if p.is_file()) == sorted(
        p.name for p in (tmp_path / "oracle").rglob("*") if p.is_file()
    )


def only_the_winner_point(tmp_path, name):
    """A store holding nothing but the winner's point value (no plan entry)."""
    graph, catalog = QUERIES[name]
    store = ArtifactStore(tmp_path / name)
    winner = search(graph, catalog, store=store).winner
    point = candidate_point(
        winner.plan, p=16, f=0.7, shelf="min", params=PARAMS, comm=COMM,
        overlap=OVERLAP,
    )
    keep = store.path_for(
        KIND_POINT, store.key(KIND_POINT, point_key_payload(point, evaluate_candidate))
    )
    for path in (tmp_path / name).rglob("*.json"):
        if path != keep:
            path.unlink()
    return store


def test_a_store_served_winner_falls_back(monkeypatch, tmp_path):
    # Every other candidate is scored inline and may be kept, but the
    # winner comes from the point store: its schedule is made once more.
    graph, catalog = QUERIES["chain5"]
    store = only_the_winner_point(tmp_path / "memo", "chain5")
    runs = Runs(monkeypatch)
    result = search(graph, catalog, store=store)
    assert result.stats.store_hits == 1
    assert runs.count == result.stats.scored
    with monkeypatch.context() as m:
        unmemoized(m)
        expected = search(
            graph, catalog, store=only_the_winner_point(tmp_path / "oracle", "chain5")
        )
    assert fingerprint(result) == fingerprint(expected)


# ----------------------------------------------------------------------
# The coordinator policy reaches the scorer
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fraction", [0.0, 1.0])
def test_policy_changes_the_score_and_pruning_keeps_the_winner(fraction):
    graph, catalog = QUERIES["chain5"]
    policy = CoordinatorPolicy(cpu_fraction=fraction)
    default = search(graph, catalog)
    pruned = search(graph, catalog, policy=policy)
    exhaustive = search(graph, catalog, policy=policy, prune=False)
    assert pruned.winner.response_time != default.winner.response_time
    assert pruned.winner.key == exhaustive.winner.key
    assert pruned.winner.response_time == exhaustive.winner.response_time
    assert pruned.schedule.response_time == pruned.winner.response_time
    assert schedule_dict(pruned.schedule) == schedule_dict(
        independent_schedule(pruned.winner.plan, p=16, policy=policy)
    )


def test_policy_keys_the_point_and_only_a_non_default_plan_entry():
    graph, catalog = QUERIES["chain5"]
    plan = search(graph, catalog).winner.plan
    kw = dict(p=16, f=0.7, shelf="min", params=PARAMS, comm=COMM, overlap=OVERLAP)
    default = candidate_point(plan, **kw)
    other = candidate_point(plan, policy=CoordinatorPolicy(cpu_fraction=0.0), **kw)
    assert "policy" not in _plan_store_payload(default)
    assert _plan_store_payload(other)["policy"] == other.policy
    assert point_key_payload(default, evaluate_candidate) != point_key_payload(
        other, evaluate_candidate
    )
    assert evaluate_candidate(default) != evaluate_candidate(other)


# ----------------------------------------------------------------------
# Scopes do not leak
# ----------------------------------------------------------------------
def active_scopes():
    return (
        cloning._DEGREE_MEMO.get(),
        annotate._COST_MEMO.get(),
        score_module._SCHEDULE_SINK.get(),
        pack_module._PACK_MEMO.get(),
    )


def test_scopes_are_open_only_inside_the_search(monkeypatch):
    seen = []
    evaluate = search_module.evaluate_candidate

    def spying(point):
        seen.append(all(scope is not None for scope in active_scopes()))
        return evaluate(point)

    monkeypatch.setattr(search_module, "evaluate_candidate", spying)
    graph, catalog = QUERIES["chain5"]
    search(graph, catalog)
    assert seen and all(seen)
    assert active_scopes() == (None, None, None, None)


def test_scopes_are_reset_when_the_search_raises(monkeypatch):
    def failing(point):
        raise RuntimeError("scorer failed")

    monkeypatch.setattr(search_module, "evaluate_candidate", failing)
    graph, catalog = QUERIES["chain5"]
    with pytest.raises(RuntimeError, match="scorer failed"):
        search(graph, catalog)
    assert active_scopes() == (None, None, None, None)


def test_scopes_nest_and_restore():
    with use_degree_memo(), use_schedule_sink(print), use_pack_memo():
        outer = active_scopes()
        with use_degree_memo(), use_operator_cost_memo(PARAMS), use_pack_memo():
            inner = active_scopes()
            assert inner[0] is not outer[0] and inner[0] == {}
            assert inner[1] == (PARAMS, {})
            assert inner[3] is not outer[3] and inner[3] == ({}, {})
        assert active_scopes() == outer
    assert active_scopes() == (None, None, None, None)


# ----------------------------------------------------------------------
# The degree memo
# ----------------------------------------------------------------------
SPEC = OperatorSpec("probe(J1)", WorkVector([2.0, 0.5, 1.0]), data_volume=4e6)
DEGREE_ARGS = dict(p=64, f=0.7, comm=COMM, overlap=OVERLAP, policy=DEFAULT_COORDINATOR_POLICY)


def degree(spec=SPEC, **changes):
    args = {**DEGREE_ARGS, **changes}
    return coarse_grain_degree(
        spec, args["p"], args["f"], args["comm"], args["overlap"], args["policy"]
    )


@pytest.fixture
def optimal_calls(monkeypatch):
    """Counts the response-optimal scans behind ``coarse_grain_degree``."""
    calls = []
    scan = cloning.response_optimal_degree

    def counted(*args):
        calls.append(args[0].name)
        return scan(*args)

    monkeypatch.setattr(cloning, "response_optimal_degree", counted)
    return calls


def test_degree_memo_ignores_the_operator_name(optimal_calls):
    expected = degree()
    assert expected > 1  # the memoized path runs the scan
    with use_degree_memo():
        assert degree() == expected
        assert degree(replace(SPEC, name="build(J9)")) == expected
    assert optimal_calls == ["probe(J1)", "probe(J1)"]


CHANGED_FIELDS = {
    "work": {"spec": replace(SPEC, work=WorkVector([2.0, 0.5, 1.5]))},
    "data_volume": {"spec": replace(SPEC, data_volume=8e6)},
    "p": {"p": 32},
    "f": {"f": 0.5},
    "comm": {"comm": CommunicationModel(alpha=COMM.alpha * 2, beta=COMM.beta)},
    "overlap": {"overlap": ConvexCombinationOverlap(0.3)},
    "policy": {"policy": CoordinatorPolicy(cpu_fraction=0.0)},
}


@pytest.mark.parametrize("field", list(CHANGED_FIELDS))
def test_any_changed_key_field_bypasses_the_memo(field):
    changes = CHANGED_FIELDS[field]
    expected = degree(**changes)
    with use_degree_memo():
        degree()
        assert degree(**changes) == expected
        assert len(cloning._DEGREE_MEMO.get()) == 2


@dataclass
class UnhashableOverlap(OverlapModel):
    """A mutable dataclass: ``eq`` without ``frozen`` leaves it unhashable."""

    epsilon: float = 0.5

    def _t_seq_unchecked(self, work: WorkVector) -> float:
        return self.epsilon * work.length() + (1.0 - self.epsilon) * work.total()


def test_an_unhashable_model_computes_without_the_memo():
    expected = degree(overlap=UnhashableOverlap())
    with use_degree_memo():
        assert degree(overlap=UnhashableOverlap()) == expected
        assert cloning._DEGREE_MEMO.get() == {}


def test_failures_are_not_memoized():
    with use_degree_memo():
        for _ in range(2):
            with pytest.raises(SchedulingError, match="number of sites"):
                degree(p=0)
        assert cloning._DEGREE_MEMO.get() == {}


@settings(max_examples=40, deadline=None)
@given(
    work=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=4),
    volume=st.floats(0.0, 1e8),
    p=st.integers(1, 128),
    f=st.sampled_from([0.1, 0.7, 1.0]),
)
def test_memoized_degrees_equal_computed_ones(work, volume, p, f):
    spec = OperatorSpec("op", WorkVector(work), data_volume=volume)
    expected = degree(spec, p=p, f=f)
    with use_degree_memo():
        assert degree(spec, p=p, f=f) == expected
        assert degree(replace(spec, name="twin"), p=p, f=f) == expected


# ----------------------------------------------------------------------
# The operator-cost memo
# ----------------------------------------------------------------------
@pytest.fixture
def cost_calls(monkeypatch):
    calls = []
    cost = annotate.operator_cost

    def counted(kind, *args):
        calls.append(kind)
        return cost(kind, *args)

    monkeypatch.setattr(annotate, "operator_cost", counted)
    return calls


def lone_scan(name="A", tuples=5_000, pipelined=False):
    """One scan in its own tree, with or without a pipeline consumer."""
    tree = OperatorTree()
    scan = tree.add_operator(scan_op(Relation(name, tuples)))
    if pipelined:
        probe = tree.add_operator(
            PhysicalOperator(
                name="probe(J1)", kind=OperatorKind.PROBE, input_tuples=tuples,
                output_tuples=tuples, join_id="J1",
            )
        )
        tree.add_edge(scan, probe, EdgeKind.PIPELINE)
    return scan, tree


def test_cost_memo_ignores_the_operator_name(cost_calls):
    (a, tree_a), (b, tree_b) = lone_scan("A"), lone_scan("B")
    expected_a = compute_operator_spec(a, tree_a, PARAMS)
    with use_operator_cost_memo(PARAMS):
        spec_a = compute_operator_spec(a, tree_a, PARAMS)
        spec_b = compute_operator_spec(b, tree_b, PARAMS)
    assert spec_a == expected_a
    assert spec_b == replace(expected_a, name="scan(B)")
    assert len(cost_calls) == 2  # one outside the scope, one inside


@pytest.mark.parametrize(
    "changed",
    [
        {"tuples": 6_000},
        {"pipelined": True},
    ],
    ids=["cardinality", "pipelining"],
)
def test_a_changed_cost_key_bypasses_the_memo(cost_calls, changed):
    base, base_tree = lone_scan()
    other, other_tree = lone_scan("B", **changed)
    expected = compute_operator_spec(other, other_tree, PARAMS)
    cost_calls.clear()
    with use_operator_cost_memo(PARAMS):
        compute_operator_spec(base, base_tree, PARAMS)
        assert compute_operator_spec(other, other_tree, PARAMS) == expected
    assert len(cost_calls) == 2


def test_the_cost_key_holds_the_kind_and_both_cardinalities(cost_calls):
    tree = OperatorTree()
    ops = [
        PhysicalOperator(name="build(J1)", kind=OperatorKind.BUILD,
                         input_tuples=900, join_id="J1"),
        PhysicalOperator(name="store(J1)", kind=OperatorKind.STORE,
                         input_tuples=900, join_id="J1"),
        PhysicalOperator(name="probe(J2)", kind=OperatorKind.PROBE,
                         input_tuples=900, output_tuples=10, join_id="J2"),
        PhysicalOperator(name="probe(J3)", kind=OperatorKind.PROBE,
                         input_tuples=900, output_tuples=20, join_id="J3"),
    ]
    for op in ops:
        tree.add_operator(op)
    expected = [compute_operator_spec(op, tree, PARAMS) for op in ops]
    cost_calls.clear()
    with use_operator_cost_memo(PARAMS):
        assert [compute_operator_spec(op, tree, PARAMS) for op in ops] == expected
    assert len(cost_calls) == len(ops)


def test_other_parameters_bypass_the_cost_memo(cost_calls):
    scan, tree = lone_scan()
    other = PARAMS.scaled(cpu_mips=2 * PARAMS.cpu_mips)
    expected = compute_operator_spec(scan, tree, other)
    cost_calls.clear()
    with use_operator_cost_memo(PARAMS):
        compute_operator_spec(scan, tree, PARAMS)
        assert compute_operator_spec(scan, tree, other) == expected
        compute_operator_spec(scan, tree, PARAMS)
    assert len(cost_calls) == 2


# ----------------------------------------------------------------------
# max_site_load reads loads, not timelines
# ----------------------------------------------------------------------
def max_site_load_from_timelines(result) -> float:
    """The timeline-based objective, as it was computed before."""
    accumulated: dict[int, list[float]] = {}
    for shelf in result.timelines:
        for site in shelf.sites:
            acc = accumulated.get(site.site_index)
            if acc is None:
                accumulated[site.site_index] = list(site.load)
            else:
                for axis, value in enumerate(site.load):
                    acc[axis] += value
    if not accumulated:
        return 0.0
    return max(max(load) for load in accumulated.values())


@pytest.mark.parametrize("p", [1, 4, 64])
@pytest.mark.parametrize("name", ["chain5", "star5"])
def test_max_site_load_is_bit_identical_to_the_timeline_sum(name, p):
    graph, catalog = QUERIES[name]
    for sp in search(graph, catalog, p=p, prune=False).candidates:
        result = independent_schedule(sp.plan, p=p)
        assert max_site_load(result).hex() == max_site_load_from_timelines(result).hex()
        assert max_site_load(result).hex() == sp.max_site_load.hex()


def test_max_site_load_sums_components_before_taking_the_max():
    # Site 0 is CPU-bound in one phase and disk-bound in the next: its
    # accumulated load is (3, 2, 0), so the objective is 3, not 3 + 2.
    phased = PhasedSchedule()
    for op, work in (("a", (3.0, 0.0, 0.0)), ("b", (0.0, 2.0, 0.0))):
        schedule = Schedule(2, 3)
        vector = WorkVector(work)
        schedule.place(0, PlacedClone(op, 0, vector, OVERLAP.t_seq(vector)))
        phased.append(schedule)
    result = ScheduleResult(algorithm="treeschedule", phased_schedule=phased)
    assert max_site_load(result) == 3.0 == max_site_load_from_timelines(result)


def test_max_site_load_of_a_bound_only_result_is_zero():
    assert max_site_load(ScheduleResult(response_time=1.0)) == 0.0
