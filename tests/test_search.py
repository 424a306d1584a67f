"""Tests for schedule-aware plan search (no numpy required).

The determinism contract under test: :func:`repro.search.search_plans`
returns byte-identical winners, rankings and frontiers at any
``workers`` count, with the artifact store disabled / cold / warm, and
under any ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro import Catalog, QueryGraph, Relation
from repro.engine.metrics import MetricsRecorder
from repro.exceptions import ConfigurationError
from repro.search import (
    candidate_lower_bounds,
    candidate_point,
    epsilon_dominates,
    evaluate_candidate,
    max_site_load,
    schedule_candidate,
    search_plans,
)
from repro.search.screen import ScreenContext
from repro.sim.validate import validate_schedule_result
from repro.store import NO_STORE, ArtifactStore

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships with the image
    HAVE_HYPOTHESIS = False

SRC = str(Path(__file__).resolve().parent.parent / "src")


def make_query(cards: dict[str, int], joins: list[tuple[str, str]]):
    catalog = Catalog([Relation(name, tuples) for name, tuples in cards.items()])
    return QueryGraph(list(cards), joins), catalog


@pytest.fixture(scope="module")
def query():
    """A 7-relation tree with skewed cardinalities (plan space 200)."""
    cards = {
        "A": 120_000, "B": 4_000, "C": 45_000, "D": 800,
        "E": 60_000, "F": 9_000, "G": 2_500,
    }
    joins = [
        ("A", "B"), ("B", "C"), ("C", "D"), ("B", "E"), ("E", "F"), ("F", "G"),
    ]
    return make_query(cards, joins)


def run(query, **kw):
    graph, catalog = query
    kw.setdefault("p", 8)
    kw.setdefault("store", NO_STORE)
    return search_plans(graph, catalog, **kw)


def fingerprint(result):
    """Everything the determinism contract covers, as one comparable value."""
    return (
        result.winner.key,
        result.winner.response_time,
        [(sp.key, sp.response_time, sp.num_phases, sp.total_work, sp.max_site_load)
         for sp in result.candidates],
        [sp.key for sp in result.frontier],
        (result.stats.enumerated, result.stats.unique,
         result.stats.pruned, result.stats.scored),
        result.schedule.response_time,
    )


class TestSearch:
    def test_ranking_sorted_and_winner_first(self, query):
        result = run(query)
        times = [sp.response_time for sp in result.candidates]
        assert times == sorted(times)
        assert result.winner.key == result.candidates[0].key
        assert result.best is result.winner
        assert result.schedule.response_time == pytest.approx(
            result.winner.response_time
        )

    def test_exhaustive_regime_on_small_space(self, query):
        from repro.search import count_exhaustive_plans

        graph, _ = query
        space = count_exhaustive_plans(graph, limit=512)
        result = run(query)
        assert result.stats.exhaustive
        assert result.stats.enumerated == result.stats.unique == space == 200
        assert result.stats.scored + result.stats.pruned == result.stats.unique

    def test_prune_never_changes_winner(self, query):
        pruned = run(query, prune=True)
        full = run(query, prune=False)
        assert pruned.winner.key == full.winner.key
        assert pruned.winner.response_time == full.winner.response_time
        assert pruned.stats.pruned > 0
        assert full.stats.pruned == 0
        # Every surviving score matches its unpruned counterpart exactly.
        full_by_key = {sp.key: sp for sp in full.candidates}
        for sp in pruned.candidates:
            assert sp.response_time == full_by_key[sp.key].response_time

    def test_lower_bounds_are_valid(self, query):
        result = run(query, prune=False)
        # Rebuild the screen context the way search_plans does.
        from repro.core.resource_model import ConvexCombinationOverlap
        from repro.cost.params import PAPER_PARAMETERS

        ctx = ScreenContext(
            p=8,
            params=PAPER_PARAMETERS,
            comm=PAPER_PARAMETERS.communication_model(),
            overlap=ConvexCombinationOverlap(0.5),
        )
        plans = [sp.plan for sp in result.candidates]
        bounds = candidate_lower_bounds(plans, ctx)
        for sp, lb in zip(result.candidates, bounds):
            assert lb <= sp.response_time + 1e-9

    @pytest.mark.parametrize("workers", [2, 4])
    def test_workers_bit_identical(self, query, workers):
        serial = run(query)
        fanned = run(query, workers=workers)
        assert fingerprint(serial) == fingerprint(fanned)

    def test_store_disabled_cold_warm_identical(self, query, tmp_path):
        disabled = run(query)
        store = ArtifactStore(str(tmp_path / "cache"))
        cold = run(query, store=store)
        warm = run(query, store=store)
        assert fingerprint(disabled) == fingerprint(cold) == fingerprint(warm)
        assert disabled.stats.store_hits == disabled.stats.store_misses == 0
        assert cold.stats.store_misses == cold.stats.scored + 1  # + winner schedule
        assert cold.stats.store_hits == 0
        # The headline property: a warm re-search schedules 0 cold candidates.
        assert warm.stats.store_misses == 0
        assert warm.stats.store_hits == warm.stats.scored + 1
        assert warm.stats.hit_rate == 1.0

    def test_local_search_regime_deterministic(self, query):
        a = run(query, max_exhaustive=16, seed=3, generations=2)
        b = run(query, max_exhaustive=16, seed=3, generations=2)
        c = run(query, max_exhaustive=16, seed=3, generations=2, workers=2)
        assert not a.stats.exhaustive
        assert fingerprint(a) == fingerprint(b) == fingerprint(c)

    def test_one_pool_per_search(self, monkeypatch):
        # A local search scores many rounds; at workers=2 they all share
        # one process pool instead of starting one per round.
        from concurrent.futures import ProcessPoolExecutor

        from repro.experiments import parallel as parallel_mod

        pools, rounds = [], []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs)
                super().__init__(*args, **kwargs)

        run_round = parallel_mod.ParallelRunner.run

        def counting_run(self, points, **kwargs):
            rounds.append(len(points))
            return run_round(self, points, **kwargs)

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(parallel_mod.ParallelRunner, "run", counting_run)
        chain = make_query(
            {f"R{i}": 1_000 * (7 * i % 13 + 1) for i in range(10)},
            [(f"R{i}", f"R{i + 1}") for i in range(9)],
        )
        fanned = run(chain, p=16, workers=2)
        assert pools == [{"max_workers": 2}]
        assert sum(1 for n in rounds if n > 1) > 1
        assert fingerprint(fanned) == fingerprint(run(chain, p=16))

    def test_pareto_exact_matches_brute_force(self, query):
        result = run(query, pareto=True, pareto_eps=0.0)
        assert result.stats.pruned == 0  # many-objective mode never prunes
        frontier = {sp.key for sp in result.frontier}
        # Brute force: non-dominated objective vectors, one key each.
        for sp in result.candidates:
            strictly = [
                other
                for other in result.candidates
                if other.key != sp.key
                and epsilon_dominates(other.objectives, sp.objectives)
                and (other.objectives != sp.objectives
                     or other.key < sp.key)
            ]
            assert (sp.key not in frontier) == bool(strictly)

    def test_pareto_cover_property(self, query):
        eps = 0.25
        result = run(query, pareto=True, pareto_eps=eps)
        assert result.frontier  # at least the winner survives
        for sp in result.candidates:
            assert any(
                epsilon_dominates(front.objectives, sp.objectives, eps)
                for front in result.frontier
            )

    def test_winner_on_frontier_at_eps_zero(self, query):
        result = run(query, pareto=True, pareto_eps=0.0)
        assert result.winner.key in {sp.key for sp in result.frontier}

    def test_counters_and_spans_in_schedule(self, query):
        result = run(query)
        counters = result.schedule.instrumentation.counters
        assert counters["plans_enumerated"] == result.stats.enumerated
        assert counters["plans_pruned"] == result.stats.pruned
        assert counters["plans_scored"] == result.stats.scored
        assert "plan_search" in result.schedule.instrumentation.timers

    def test_metrics_recorder_receives_counts(self, query):
        rec = MetricsRecorder()
        result = run(query, metrics=rec)
        assert rec.counters["plans_enumerated"] == result.stats.enumerated
        assert rec.counters["plans_deduped"] == (
            result.stats.enumerated - result.stats.unique
        )

    def test_validate_accepts_search_schedule(self, query):
        result = run(query)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            validate_schedule_result(result.schedule)

    def test_invalid_arguments(self, query):
        graph, catalog = query
        with pytest.raises(ConfigurationError):
            search_plans(graph, catalog, p=0)
        with pytest.raises(ConfigurationError):
            search_plans(graph, catalog, p=4, chunk_size=0)
        for bad in (
            {"max_exhaustive": -3},
            {"init_samples": -2},
            {"beam_width": 0},
            {"generations": -1},
            {"mutations_per_parent": -1},
        ):
            (name, value), = bad.items()
            with pytest.raises(ConfigurationError, match=name):
                search_plans(graph, catalog, p=4, store=NO_STORE, **bad)

    def test_single_relation_query(self):
        graph, catalog = make_query({"A": 5_000}, [])
        result = search_plans(graph, catalog, p=4, store=NO_STORE)
        assert len(result.candidates) == 1
        assert result.stats.unique == 1


class TestScoring:
    def test_evaluate_matches_schedule(self, query):
        from repro.core.resource_model import ConvexCombinationOverlap
        from repro.cost.params import PAPER_PARAMETERS
        from repro.search import greedy_plan

        graph, catalog = query
        point = candidate_point(
            greedy_plan(graph, catalog),
            p=8,
            f=0.7,
            shelf="min",
            params=PAPER_PARAMETERS,
            comm=PAPER_PARAMETERS.communication_model(),
            overlap=ConvexCombinationOverlap(0.5),
        )
        objectives = evaluate_candidate(point)
        schedule, cached = schedule_candidate(point, store=None)
        assert not cached
        assert objectives["response_time"] == pytest.approx(schedule.response_time)
        assert objectives["num_phases"] == schedule.num_phases
        assert objectives["max_site_load"] == pytest.approx(max_site_load(schedule))
        assert objectives["max_site_load"] > 0.0


class TestHashSeedDeterminism:
    def test_search_immune_to_hash_randomization(self, tmp_path):
        """Winner and ranking are identical under any PYTHONHASHSEED."""
        script = (
            "from repro import Catalog, QueryGraph, Relation\n"
            "from repro.search import search_plans\n"
            "from repro.store import NO_STORE\n"
            "cards = {'A': 9000, 'B': 400, 'C': 52000, 'D': 7000, 'E': 1100}\n"
            "catalog = Catalog([Relation(n, t) for n, t in cards.items()])\n"
            "graph = QueryGraph(list(cards), "
            "[('A','B'),('B','C'),('C','D'),('D','E')])\n"
            "r = search_plans(graph, catalog, p=4, seed=2, store=NO_STORE)\n"
            "print(r.winner.key)\n"
            "print(','.join(sp.key for sp in r.candidates))\n"
        )
        outputs = set()
        for seed in ("0", "12345"):
            env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed)
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.add(out.stdout)
        assert len(outputs) == 1


if HAVE_HYPOTHESIS:

    @st.composite
    def tree_queries(draw):
        n = draw(st.integers(min_value=2, max_value=5))
        cards = {
            f"R{i}": draw(st.integers(min_value=100, max_value=200_000))
            for i in range(n)
        }
        joins = [
            (f"R{draw(st.integers(min_value=0, max_value=i - 1))}", f"R{i}")
            for i in range(1, n)
        ]
        return make_query(cards, joins)

    class TestProperties:
        @settings(max_examples=12, deadline=None)
        @given(query=tree_queries(), seed=st.integers(min_value=0, max_value=2**16))
        def test_workers_and_prune_invariant(self, query, seed):
            graph, catalog = query
            base = search_plans(graph, catalog, p=4, seed=seed, store=NO_STORE)
            fanned = search_plans(
                graph, catalog, p=4, seed=seed, workers=2, store=NO_STORE
            )
            full = search_plans(
                graph, catalog, p=4, seed=seed, prune=False, store=NO_STORE
            )
            assert fingerprint(base) == fingerprint(fanned)
            assert base.winner.key == full.winner.key
            assert base.winner.response_time == full.winner.response_time
