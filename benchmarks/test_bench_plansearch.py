"""Experiment plansearch — schedule-aware plan search with pruning.

How much of the bushy-plan space does the lower-bound screen discard
before TREESCHEDULE ever runs, and what does that buy?  Runs the
exhaustive scorer and the pruned search on the guard-point query of
``benchmarks/plansearch_bench.py`` (8-relation chain, plan space 429),
verifies the winner is invariant, and reports the pruning ledger plus
the warm-store round trip.
"""

from __future__ import annotations

import tempfile
from collections import Counter

import pytest

import repro.search.search as search_module
from repro.search import search_plans
from repro.search.screen import ScreenContext
from repro.store import NO_STORE, ArtifactStore

from _helpers import publish
from plansearch_bench import P, SEARCH_KW, make_query


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
    # The committed BENCH baseline schedules 8 of 429; allow slack but
    # demand the screen keeps doing the heavy lifting.
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


def test_plansearch_work_counts_are_pinned(monkeypatch):
    """Exact work of one pruned search at the guard point.

    The exhaustive DP bounds all 429 plans from subplan summaries; a plan
    is built as a tree (``ScreenContext.plan``) and hashed (``plan_key``)
    only when it is about to be scored, so the 421 pruned plans cost
    neither.  A change that moves these counts must say why.
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
    graph, catalog = make_query()
    stats = search_plans(graph, catalog, p=P, store=NO_STORE, **SEARCH_KW).stats
    assert (stats.enumerated, stats.unique, stats.pruned, stats.scored) == (
        429, 429, 421, 8,
    )
    assert calls == {"plan_key": 8, "built": 8}
