"""Experiment store — a warm sweep schedules nothing; a warm read rebuilds the cold state.

Runs the Figure 6(a) sweep grid (query size x algorithm x system size)
twice against one content-addressed :class:`repro.store.ArtifactStore`:

* **cold** — empty cache directory: every point is evaluated and
  persisted, and every evaluated point schedules its whole query cohort;
* **warm** — same directory: every point is answered from the store, so
  the sweep schedules zero operators (the resumability claim) and
  returns the cold run's values exactly.

The gate is the exact count of operators handed to a scheduler, not the
warm run's wall time.

A second test pins what a warm read rebuilds: every phase of the batch
cohort (40-join queries, seed 1996, three algorithms, p 32 and 256)
decodes from its stored payload to the ``float.hex`` state of the cold
schedule.
"""

from __future__ import annotations

import json
from functools import reduce
from operator import add

import repro.experiments.runner as runner_module
from repro.engine.metrics import MetricsRecorder
from repro.experiments import quick_config
from repro.experiments.parallel import ParallelRunner, SweepPoint
from repro.serialization import schedule_result_from_dict, schedule_result_to_dict
from repro.store import NO_STORE, ArtifactStore

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


#: The batch cohort: 4 queries x 3 algorithms x 2 system sizes = 24
#: results, and what their phases hold.
COHORT = {"results": 24, "phases": 126, "sites": 18144, "clones": 55772}


def _hex(values) -> list[str]:
    return [float(x).hex() for x in values]


def _site_state(site) -> tuple:
    return (
        site.index,
        site.clones,
        site.operators,
        _hex(site.load_vector().components),
        site.length().hex(),
        site.total_load().hex(),
        site.max_t_seq().hex(),
        site.capacity.hex(),
    )


def test_warm_read_rebuilds_the_cold_schedule():
    counts = dict.fromkeys(COHORT, 0)
    queries = runner_module.prepare_workload(40, 4, 1996, store=NO_STORE)
    for algorithm in ("treeschedule", "synchronous", "malleable"):
        for p in (32, 256):
            for query in queries:
                cold = runner_module.schedule_query(
                    algorithm, query, p=p, f=0.7, epsilon=0.5, store=NO_STORE
                )
                text = json.dumps(schedule_result_to_dict(cold))
                warm = schedule_result_from_dict(json.loads(text))
                counts["results"] += 1
                pairs = list(
                    zip(cold.phased_schedule.phases, warm.phased_schedule.phases, strict=True)
                )
                for before, after in pairs:
                    counts["phases"] += 1
                    counts["sites"] += before.p
                    counts["clones"] += before.clone_count()
                    assert [_site_state(s) for s in after.sites] == [
                        _site_state(s) for s in before.sites
                    ]
                    assert after.homes() == before.homes()
                    assert after.clone_count() == before.clone_count()
                    assert after.disabled_sites == before.disabled_sites
                    # Rows are stored site by site, so total work is the
                    # site-major fold of the cold clones (the cold
                    # schedule summed them in placement order).
                    vectors = [c.work.components for s in before.sites for c in s.clones]
                    site_major = [reduce(add, column, 0.0) for column in zip(*vectors)]
                    assert _hex(after.total_work().components) == _hex(site_major)
    assert counts == COHORT
