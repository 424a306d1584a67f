"""Plan-search benchmark: pruned+memoized search vs exhaustive scoring.

Measures the two perf claims of the schedule-aware plan searcher on a
fixed 8-relation tree query (plan space 429, exhaustively enumerated):

* **prune** — the memoized lower-bound screen orders candidates by
  bound and schedules them in fixed chunks against an incumbent, so
  only a small fraction of the space is ever TREESCHEDULE-scored.  The
  guard compares against the serial exhaustive scorer (``prune=False``)
  on the same space and demands a >= 10x wall-clock speedup *with an
  identical winner* (pruning is provably winner-invariant: a pruned
  candidate's valid lower bound exceeds the incumbent's exact score).
  The screen must also stay cheaper than what it saves: on the cold
  pruned search the summed ``plan_screen`` span time must be below the
  summed ``plan_score`` span time.
* **memoize** — candidate scores and the winner schedule are keyed by
  canonical plan payload in the content-addressed artifact store; a
  warm re-search must schedule **zero** cold candidates (exact check:
  ``store_misses == 0``).

Medians land in ``BENCH_plansearch.json`` at the repository root.

Usage::

    python benchmarks/plansearch_bench.py --write      # refresh baseline
    python benchmarks/plansearch_bench.py --check [--threshold 10.0]
        # regression gate: fail when the pruned search is less than
        # threshold x faster than exhaustive scoring, when screening
        # costs more than scoring, when pruning changes the winner, or
        # when a warm re-search schedules any cold candidate

The speedup and screen-share gates compare timings from the *same*
process on the same machine, so CI noise largely cancels; the
winner-equality and warm-store checks are exact — every run is
deterministic.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.names import SPAN_PLAN_SCORE, SPAN_PLAN_SCREEN  # noqa: E402
from repro.obs.tracer import Tracer, use_tracer  # noqa: E402
from repro.plans.query_graph import QueryGraph  # noqa: E402
from repro.plans.relations import Catalog, Relation  # noqa: E402
from repro.search import search_plans  # noqa: E402
from repro.store import NO_STORE, ArtifactStore  # noqa: E402

BENCH_PATH = REPO_ROOT / "BENCH_plansearch.json"
SCHEMA = "repro-bench-plansearch/1"

#: The guard-point query: an 8-relation chain with skewed cardinalities.
#: Plan space = Catalan(7) = 429 bushy plans, all exhaustively enumerated.
CARDS = {
    "A": 180_000, "B": 3_500, "C": 64_000, "D": 900,
    "E": 41_000, "F": 7_200, "G": 150_000, "H": 2_100,
}
NAMES = list(CARDS)
JOINS = [(NAMES[i], NAMES[i + 1]) for i in range(len(NAMES) - 1)]
P = 16
REPS = 3
#: Smaller-than-default chunks tighten the incumbent earlier, which
#: prunes harder on this instance (the winner is chunk-size-invariant).
SEARCH_KW = {"chunk_size": 8}


def make_query() -> tuple[QueryGraph, Catalog]:
    catalog = Catalog([Relation(name, tuples) for name, tuples in CARDS.items()])
    return QueryGraph(list(CARDS), JOINS), catalog


def timed_search(reps: int = REPS, **kw):
    """Median wall seconds and the (deterministic) last result."""
    graph, catalog = make_query()
    times = []
    result = None
    for _ in range(reps):
        start = time.perf_counter()
        result = search_plans(graph, catalog, p=P, **SEARCH_KW, **kw)
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def run_bench() -> dict:
    exhaustive_s, exhaustive = timed_search(prune=False, store=NO_STORE)
    pruned_s, pruned = timed_search(prune=True, store=NO_STORE)
    assert pruned.winner.key == exhaustive.winner.key, "pruning changed the winner"
    assert pruned.winner.response_time == exhaustive.winner.response_time

    with tempfile.TemporaryDirectory(prefix="repro-plansearch-bench-") as tmp:
        store = ArtifactStore(tmp)
        with use_tracer(Tracer()) as tracer:
            cold_s, cold = timed_search(reps=1, prune=True, store=store)
        warm_s, warm = timed_search(reps=1, prune=True, store=store)
    assert warm.winner.key == pruned.winner.key, "store changed the winner"

    def span_seconds(name):
        return tracer.summary().get(name, {"seconds": 0.0})["seconds"]

    def stats_row(result):
        s = result.stats
        return {
            "enumerated": s.enumerated,
            "unique": s.unique,
            "pruned": s.pruned,
            "scored": s.scored,
            "store_hits": s.store_hits,
            "store_misses": s.store_misses,
        }

    return {
        "schema": SCHEMA,
        "query": (
            f"8-relation tree, plan space {exhaustive.stats.unique}, "
            f"p={P}, shelf=min"
        ),
        "generated_by": "benchmarks/plansearch_bench.py --write",
        "exhaustive": {"seconds": exhaustive_s, **stats_row(exhaustive)},
        "pruned": {"seconds": pruned_s, **stats_row(pruned)},
        "speedup_vs_exhaustive": exhaustive_s / pruned_s,
        "cold": {
            "seconds": cold_s,
            "screen_seconds": span_seconds(SPAN_PLAN_SCREEN),
            "score_seconds": span_seconds(SPAN_PLAN_SCORE),
            **stats_row(cold),
        },
        "warm": {"seconds": warm_s, **stats_row(warm)},
        "winner": {
            "key": pruned.winner.key,
            "response_time": pruned.winner.response_time,
            "num_phases": pruned.winner.num_phases,
        },
    }


def write_bench(path: pathlib.Path = BENCH_PATH) -> dict:
    payload = run_bench()
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def check_regression(
    threshold: float, path: pathlib.Path = BENCH_PATH
) -> tuple[bool, str]:
    """Fresh run: speedup, winner-invariance and warm-store gates."""
    try:
        committed = json.loads(path.read_text())
    except FileNotFoundError:
        return False, f"no committed baseline at {path}; run --write first"
    payload = run_bench()
    ok = True
    lines = []

    speedup = payload["speedup_vs_exhaustive"]
    lines.append(
        f"pruned search: {payload['pruned']['seconds']:.4f}s vs exhaustive "
        f"{payload['exhaustive']['seconds']:.4f}s = {speedup:.1f}x "
        f"(threshold {threshold:.1f}x; committed "
        f"{committed['speedup_vs_exhaustive']:.1f}x)"
    )
    if speedup < threshold:
        ok = False
        lines.append("PERF REGRESSION: pruned search lost its speedup")

    cold = payload["cold"]
    lines.append(
        f"cold pruned search: screen {cold['screen_seconds']:.4f}s vs "
        f"score {cold['score_seconds']:.4f}s"
    )
    if not cold["screen_seconds"] < cold["score_seconds"]:
        ok = False
        lines.append(
            "SCREEN REGRESSION: screening candidates took longer than "
            "scoring the survivors"
        )

    scored = payload["pruned"]["scored"]
    budget = committed["pruned"]["scored"]
    lines.append(
        f"candidates scored: {scored}/{payload['pruned']['unique']} "
        f"(committed baseline {budget})"
    )
    if scored > 2 * budget:
        ok = False
        lines.append(
            "PRUNE REGRESSION: search scheduled more than twice the "
            "committed candidate budget"
        )

    warm = payload["warm"]
    if warm["store_misses"] != 0:
        ok = False
        lines.append(
            f"CACHE REGRESSION: warm re-search scheduled "
            f"{warm['store_misses']} cold candidates (must be 0)"
        )
    else:
        lines.append(
            f"warm re-search: 0 cold candidates "
            f"({warm['store_hits']} store hits, {warm['seconds']:.4f}s)"
        )

    if payload["winner"]["key"] != committed["winner"]["key"]:
        ok = False
        lines.append(
            "DETERMINISM REGRESSION: winner differs from committed baseline"
        )
    return ok, "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", help="refresh BENCH_plansearch.json"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail when the pruned search loses its speedup or determinism",
    )
    parser.add_argument("--threshold", type=float, default=10.0)
    args = parser.parse_args(argv)
    if not (args.write or args.check):
        parser.error("choose --write and/or --check")
    status = 0
    if args.write:
        payload = write_bench()
        print(
            f"exhaustive {payload['exhaustive']['seconds']:.4f}s "
            f"({payload['exhaustive']['scored']} scored) -> pruned "
            f"{payload['pruned']['seconds']:.4f}s "
            f"({payload['pruned']['scored']} scored), "
            f"{payload['speedup_vs_exhaustive']:.1f}x faster"
        )
        print(
            f"warm re-search: {payload['warm']['store_misses']} cold "
            f"candidates, {payload['warm']['store_hits']} hits"
        )
        print(f"wrote {BENCH_PATH}")
    if args.check:
        ok, message = check_regression(args.threshold)
        print(message)
        if not ok:
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
