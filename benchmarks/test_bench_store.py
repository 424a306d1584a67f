"""Experiment store — a warm sweep through the artifact store schedules nothing.

Runs the Figure 6(a) sweep grid (query size x algorithm x system size)
twice against one content-addressed :class:`repro.store.ArtifactStore`:

* **cold** — empty cache directory: every point is evaluated and
  persisted, and every evaluated point schedules its whole query cohort;
* **warm** — same directory: every point is answered from the store, so
  the sweep schedules zero operators (the resumability claim) and
  returns the cold run's values exactly.

The gate is the exact count of operators handed to a scheduler, not the
warm run's wall time.
"""

from __future__ import annotations

import repro.experiments.runner as runner_module
from repro.engine.metrics import MetricsRecorder
from repro.experiments import quick_config
from repro.experiments.parallel import ParallelRunner, SweepPoint
from repro.store import ArtifactStore

#: A reduced fig-6a grid, same shape as repro.experiments.figures.figure6a.
CONFIG = quick_config(n_queries=3, query_sizes=(10, 20))
P_VALUES = (8, 32)
POINTS = [
    SweepPoint(
        algorithm, size, CONFIG.n_queries, CONFIG.seed,
        p, CONFIG.default_f, CONFIG.default_epsilon, CONFIG.params,
    )
    for p in P_VALUES
    for algorithm in ("treeschedule", "synchronous")
    for size in CONFIG.query_sizes
]
#: Operators scheduled by each sweep: 2 sizes x 2 algorithms x 2 system
#: sizes x 3 queries; the warm sweep is answered wholly by the store.
COLD = {"points_evaluated": 8, "operators_scheduled": 1104}
WARM = {"points_evaluated": 0, "operators_scheduled": 0}


def test_warm_sweep_schedules_nothing(monkeypatch, tmp_path):
    operators = [0]
    schedule_query = runner_module.schedule_query

    def counted(algorithm, query, **kwargs):
        operators[0] += len(list(query.operator_tree.operators))
        return schedule_query(algorithm, query, **kwargs)

    monkeypatch.setattr(runner_module, "schedule_query", counted)

    def sweep() -> tuple[list[float], dict[str, int]]:
        operators[0] = 0
        metrics = MetricsRecorder()
        store = ArtifactStore(tmp_path)  # fresh stats, same directory
        values = ParallelRunner(metrics=metrics, store=store).run(POINTS)
        evaluated = int(metrics.counters.get("points_evaluated", 0.0))
        work = {"points_evaluated": evaluated, "operators_scheduled": operators[0]}
        return values, work

    cold_values, cold = sweep()
    warm_values, warm = sweep()
    assert (cold, warm) == (COLD, WARM)
    assert warm_values == cold_values
