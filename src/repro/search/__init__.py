"""Schedule-aware plan search (ROADMAP item 2).

The paper treats parallelization as a phase *after* conventional plan
selection (§1); with the fast kernels of PR2/PR6 the scheduler is cheap
enough to sit *inside* plan search as the cost model.  This package
provides the deterministic searcher:

* :mod:`repro.search.canonical` — structural plan hashing and the
  plan ↔ payload codec (the dedupe key, the score-cache key and the
  winner-schedule key are the same canonical-JSON bytes);
* :mod:`repro.search.enumerator` — exhaustive connected-subset DP for
  small join graphs (plan trees, or unbuilt plans as screen structure
  keys), seeded greedy/mutation moves for large ones;
* :mod:`repro.search.screen` — provably valid response-time lower
  bounds, read off subplan summaries memoized for the whole search,
  pruning dominated candidates before a schedule is ever computed;
* :mod:`repro.search.score` — TREESCHEDULE as the objective function,
  memoized through the content-addressed artifact store and fanned out
  over :class:`~repro.experiments.parallel.ParallelRunner` workers;
* :mod:`repro.search.pareto` — ε-approximate Pareto frontiers over
  (response time, total work, max per-site load);
* :mod:`repro.search.search` — the orchestrator,
  :func:`~repro.search.search.search_plans`.

Winners are bit-identical at any worker count and with the store
disabled, cold, or warm.
"""

from repro.search.canonical import (
    canonical_plan,
    catalog_from_payload,
    plan_from_payload,
    plan_key,
    plan_payload,
)
from repro.search.enumerator import (
    count_exhaustive_plans,
    enumerate_exhaustive_plans,
    greedy_plan,
    mutate_plan,
    random_plan,
)
from repro.search.pareto import epsilon_dominates, epsilon_pareto_front
from repro.search.score import (
    CandidatePoint,
    candidate_point,
    evaluate_candidate,
    max_site_load,
    schedule_candidate,
)
from repro.search.screen import ScreenContext, candidate_lower_bounds
from repro.search.search import (
    PlanSearchResult,
    PlanSearchStats,
    ScoredPlan,
    search_plans,
)

__all__ = [
    "plan_payload",
    "plan_from_payload",
    "plan_key",
    "canonical_plan",
    "catalog_from_payload",
    "count_exhaustive_plans",
    "enumerate_exhaustive_plans",
    "greedy_plan",
    "random_plan",
    "mutate_plan",
    "ScreenContext",
    "candidate_lower_bounds",
    "CandidatePoint",
    "candidate_point",
    "evaluate_candidate",
    "schedule_candidate",
    "max_site_load",
    "epsilon_dominates",
    "epsilon_pareto_front",
    "ScoredPlan",
    "PlanSearchStats",
    "PlanSearchResult",
    "search_plans",
]
