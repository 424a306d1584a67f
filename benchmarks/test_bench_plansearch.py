"""Experiment plansearch — schedule-aware plan search with pruning.

How much of the bushy-plan space does the lower-bound screen discard
before TREESCHEDULE ever runs, and what does that buy?  Runs the
exhaustive scorer and the pruned search on the guard-point query
(8-relation chain, plan space 429), verifies the winner is invariant,
and reports the pruning ledger plus the warm-store round trip.  The
search's cost is pinned as exact work counts: plans bounded, built,
hashed and scored, TREESCHEDULE runs, shelf packs requested and
computed, and ``T_seq`` evaluations pruned against exhaustive and screen
against score.
"""

from __future__ import annotations

import sys
import tempfile
from collections import Counter

import pytest

import repro.engine.driver as driver_module
import repro.search.enumerator as enumerator_module
import repro.search.score as score_module
import repro.search.screen as screen_module
import repro.search.search as search_module
from repro.core.resource_model import OverlapModel
from repro.core.operator_schedule import operator_schedule
from repro.plans.join_tree import PlanNode
from repro.plans.query_graph import QueryGraph
from repro.plans.relations import Catalog, Relation
from repro.search import search_plans
from repro.search.screen import ScreenContext
from repro.store import NO_STORE, ArtifactStore

from _helpers import publish

#: The module itself: ``repro.core`` re-exports a function of the same name.
pack_module = sys.modules[operator_schedule.__module__]

#: The guard-point query: an 8-relation chain with skewed cardinalities.
#: Plan space = Catalan(7) = 429 bushy plans, all exhaustively enumerated.
CARDS = {
    "A": 180_000, "B": 3_500, "C": 64_000, "D": 900,
    "E": 41_000, "F": 7_200, "G": 150_000, "H": 2_100,
}
P = 16
#: Smaller-than-default chunks tighten the incumbent earlier, which
#: prunes harder on this instance (the winner is chunk-size-invariant).
SEARCH_KW = {"chunk_size": 8}
#: Two more relations make perfbench's unjittered 10-relation chain
#: (``perfbench/workloads.py``): Catalan(9) = 4862 plans, beyond the
#: exhaustive cap, so the search runs the seeded local search.
LONG_CHAIN_CARDS = {**CARDS, "I": 26_000, "J": 5_400}


def make_query(cards: dict[str, int] = CARDS) -> tuple[QueryGraph, Catalog]:
    names = list(cards)
    joins = [(names[i], names[i + 1]) for i in range(len(names) - 1)]
    catalog = Catalog([Relation(name, tuples) for name, tuples in cards.items()])
    return QueryGraph(names, joins), catalog


@pytest.fixture(scope="module")
def searches():
    graph, catalog = make_query()
    exhaustive = search_plans(
        graph, catalog, p=P, prune=False, store=NO_STORE, **SEARCH_KW
    )
    pruned = search_plans(graph, catalog, p=P, store=NO_STORE, **SEARCH_KW)
    with tempfile.TemporaryDirectory(prefix="repro-plansearch-test-") as tmp:
        store = ArtifactStore(tmp)
        cold = search_plans(graph, catalog, p=P, store=store, **SEARCH_KW)
        warm = search_plans(graph, catalog, p=P, store=store, **SEARCH_KW)
    return exhaustive, pruned, cold, warm


def test_bench_plansearch_regenerate(searches, benchmark):
    """Print the pruning ledger; benchmark one pruned search."""
    exhaustive, pruned, cold, warm = searches
    lines = [
        "== plansearch: schedule-aware plan search ==",
        f"8-relation chain, plan space {exhaustive.stats.unique}, P={P}",
        f"exhaustive scorer   : {exhaustive.stats.scored} plans scheduled",
        f"pruned search       : {pruned.stats.scored} scheduled, "
        f"{pruned.stats.pruned} pruned by lower bound "
        f"({pruned.stats.prune_rate:.0%})",
        f"winner              : {pruned.winner.key[:12]} "
        f"response={pruned.winner.response_time:.4f} "
        f"(identical with and without pruning)",
        f"warm re-search      : {warm.stats.store_misses} cold candidates, "
        f"{warm.stats.store_hits} store hits "
        f"({warm.stats.hit_rate:.0%} hit rate)",
        "note: the screen's bounds are valid, so pruning is provably",
        "winner-invariant; the canonical plan hash makes scores reusable",
        "across searches through the artifact store.",
    ]
    publish("plansearch", "\n".join(lines))

    graph, catalog = make_query()
    benchmark(
        lambda: search_plans(graph, catalog, p=P, store=NO_STORE, **SEARCH_KW)
    )


def test_plansearch_prune_is_winner_invariant(searches):
    exhaustive, pruned, _, _ = searches
    assert pruned.winner.key == exhaustive.winner.key
    assert pruned.winner.response_time == exhaustive.winner.response_time
    assert pruned.stats.pruned > 0
    assert pruned.stats.scored < exhaustive.stats.scored


def test_plansearch_prunes_most_of_the_space(searches):
    _, pruned, _, _ = searches
    # The pinned count is 8 of 429 (below); this is the shape claim.
    assert pruned.stats.prune_rate > 0.8


def test_plansearch_warm_store_schedules_nothing(searches):
    _, pruned, cold, warm = searches
    assert cold.stats.store_misses == cold.stats.scored + 1
    assert warm.stats.store_misses == 0
    assert warm.stats.store_hits == warm.stats.scored + 1
    assert warm.winner.key == pruned.winner.key


def test_plansearch_rankings_consistent(searches):
    for result in searches:
        times = [sp.response_time for sp in result.candidates]
        assert times == sorted(times)
        assert result.winner.key == result.candidates[0].key


def counting(monkeypatch) -> Counter[str]:
    """Count plans built and keyed, TREESCHEDULE runs and shelf packs.

    "packs" counts the shelf packs the driver requests
    (``operator_schedule``), "packed" the ones actually computed: inside
    a search, a shelf whose content was packed before is answered from
    the search's pack memo.  Plan-space counts, the tree-level moves and
    the screen are counted wherever the search could look them up, and
    "screened trees" counts plan trees (not root keys) handed to the
    screen.
    """
    calls: Counter[str] = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        search_module, "plan_key", counted("plan_key", search_module.plan_key)
    )
    monkeypatch.setattr(ScreenContext, "plan", counted("built", ScreenContext.plan))
    monkeypatch.setattr(
        score_module,
        "tree_schedule",
        counted("tree_schedule", score_module.tree_schedule),
    )
    monkeypatch.setattr(
        driver_module, "operator_schedule",
        counted("packs", driver_module.operator_schedule),
    )
    monkeypatch.setattr(pack_module, "_pack", counted("packed", pack_module._pack))
    for module, name in (
        (enumerator_module, "count_exhaustive_plans"),
        (enumerator_module, "greedy_plan"),
        (enumerator_module, "random_plan"),
        (enumerator_module, "mutate_plan"),
        (screen_module, "candidate_lower_bounds"),
    ):
        fn = counted(name, getattr(module, name))
        monkeypatch.setattr(module, name, fn)
        monkeypatch.setattr(search_module, name, fn, raising=False)
    screen = search_module.candidate_lower_bounds

    def screen_counting_trees(candidates, ctx):
        calls["screened trees"] += sum(isinstance(c, PlanNode) for c in candidates)
        return screen(candidates, ctx)

    monkeypatch.setattr(search_module, "candidate_lower_bounds", screen_counting_trees)
    return calls


def test_plansearch_work_counts_are_pinned(monkeypatch):
    """Exact work of one pruned search at the guard point.

    The exhaustive DP bounds all 429 plans from subplan summaries; a plan
    is built as a tree (``ScreenContext.plan``) and hashed (``plan_key``)
    only when it is about to be scored, so the 421 pruned plans cost
    neither.  Each scored plan is scheduled once (``tree_schedule``) and
    the winner's schedule is the one kept from scoring, so there is no
    run beyond the 8.  The 8 runs request 40 shelf packs, but only 16
    distinct shelves: the rest are answered by the search's pack memo.
    The plan space is counted once, to choose the regime, and the 429
    root keys are screened in one call.  A change that moves these
    counts must say why.
    """
    calls = counting(monkeypatch)
    graph, catalog = make_query()
    stats = search_plans(graph, catalog, p=P, store=NO_STORE, **SEARCH_KW).stats
    assert (stats.enumerated, stats.unique, stats.pruned, stats.scored) == (
        429, 429, 421, 8,
    )
    assert calls == {
        "plan_key": 8, "built": 8, "tree_schedule": 8, "packs": 40, "packed": 16,
        "count_exhaustive_plans": 1, "candidate_lower_bounds": 1, "screened trees": 0,
    }


def test_local_search_work_counts_are_pinned(monkeypatch):
    """Exact work of one local search on perfbench's 10-relation chain.

    The greedy start, 16 random starts and 72 mutations are 89 plans,
    50 of them distinct.  The moves build root structure keys, so plans
    are deduped and bounded without a tree: the screen runs once per
    round (the starts and three generations) on root keys alone, only
    the 9 scored plans are built (``ScreenContext.plan``) and hashed
    (``plan_key``), and no tree-level move runs.  A change that moves
    these counts must say why.
    """
    calls = counting(monkeypatch)
    graph, catalog = make_query(LONG_CHAIN_CARDS)
    result = search_plans(graph, catalog, p=P, seed=0, store=NO_STORE, **SEARCH_KW)
    stats = result.stats
    assert not stats.exhaustive
    assert (stats.enumerated, stats.unique, stats.pruned, stats.scored) == (
        89, 50, 41, 9,
    )
    assert result.winner.key.startswith("455496ed")
    assert result.winner.response_time == 57.95641666666667
    assert {
        name: calls[name]
        for name in (
            "plan_key", "built", "tree_schedule", "greedy_plan", "random_plan",
            "mutate_plan", "candidate_lower_bounds", "screened trees",
            "count_exhaustive_plans",
        )
    } == {
        "plan_key": 9, "built": 9, "tree_schedule": 9, "greedy_plan": 0,
        "random_plan": 0, "mutate_plan": 0, "candidate_lower_bounds": 4,
        "screened trees": 0, "count_exhaustive_plans": 1,
    }


def test_equal_chain_packs_are_pinned(monkeypatch):
    """An 8-chain of equal relations: the screen prunes little, packs repeat.

    Every join's output has 1,000 tuples, so 233 of the 429 plans are
    scored (the screen's bound is loose here), and their 867 shelf packs
    hold only 65 distinct shelves.
    """
    calls = counting(monkeypatch)
    names = [f"R{i}" for i in range(8)]
    graph = QueryGraph(names, list(zip(names, names[1:])))
    catalog = Catalog([Relation(name, 1_000) for name in names])
    stats = search_plans(graph, catalog, p=P, store=NO_STORE, chunk_size=3).stats
    assert (stats.unique, stats.scored) == (429, 233)
    assert (calls["tree_schedule"], calls["packs"], calls["packed"]) == (233, 867, 65)


#: ``OverlapModel.t_seq`` evaluations of one cold search at the guard
#: point, split by where they happen: "score" counts calls made while
#: ``evaluate_candidate`` (one TREESCHEDULE run of a surviving candidate:
#: degree selection's ``T_par`` and packing's clone times) is on the
#: stack, "screen" counts all the others (the lower-bound screen's
#: ``T_par`` minima over subplan summaries, ranking and bookkeeping).
#: Degrees and shelf packs are memoized by content within a search, so a
#: candidate's scoring cost is the packing of its new shelves.  The
#: screen's ``t_min`` bisects each distinct operator's convex ``T_par``
#: curve instead of scanning all ``p`` degrees.  Pruning cuts the total
#: 35x against the exhaustive scorer (``prune=False``, every plan
#: scored), and the screen stays cheaper than the scoring it saves.
T_SEQ_PRUNED = {"screen": 135, "score": 255}
T_SEQ_EXHAUSTIVE = {"screen": 128, "score": 13482}


def test_plansearch_t_seq_counts_are_pinned(monkeypatch):
    calls = {"screen": 0, "score": 0}
    scoring = [False]
    t_seq = OverlapModel.t_seq
    evaluate = search_module.evaluate_candidate

    def counted_t_seq(self, work):
        calls["score" if scoring[0] else "screen"] += 1
        return t_seq(self, work)

    def counted_evaluate(point):
        scoring[0] = True
        try:
            return evaluate(point)
        finally:
            scoring[0] = False

    monkeypatch.setattr(OverlapModel, "t_seq", counted_t_seq)
    monkeypatch.setattr(search_module, "evaluate_candidate", counted_evaluate)
    graph, catalog = make_query()
    measured = {}
    for label, prune in (("pruned", True), ("exhaustive", False)):
        calls.update(screen=0, score=0)
        search_plans(graph, catalog, p=P, prune=prune, store=NO_STORE, **SEARCH_KW)
        measured[label] = dict(calls)
    assert measured == {"pruned": T_SEQ_PRUNED, "exhaustive": T_SEQ_EXHAUSTIVE}
    # The gates any update of the pins must keep.
    assert T_SEQ_PRUNED["screen"] < T_SEQ_PRUNED["score"]
    assert 10 * sum(T_SEQ_PRUNED.values()) < sum(T_SEQ_EXHAUSTIVE.values())
