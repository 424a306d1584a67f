"""Robustness sweep: how far each scheduler's analytic promise degrades.

The Section 6 figures compare schedulers under the paper's idealized
runtime (exact work vectors, perfectly preemptable constant-capacity
resources, no stragglers).  This experiment re-runs the comparison with
the :mod:`repro.sim.faults` layer switched on: at each fault *intensity*
every query's schedule is executed by the fluid simulator under a
seed-deterministic :class:`~repro.sim.faults.FaultPlan`, and the metric
is the *degradation factor* — simulated response time over the analytic
Equation (3) promise.

The paper-adjacent result: TREESCHEDULE's balanced multi-dimensional
packings leave complementary idle capacity at every site, which absorbs
perturbations; SYNCHRONOUS concentrates work, so the same faults push
its realized response time proportionally further from its promise.
Degradation curves therefore separate the algorithms *again*, now on
robustness rather than raw response time.

Everything is deterministic: fault seeds derive from the sweep
coordinates alone, so the report is bit-identical for any
``ParallelRunner`` worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.engine.metrics import MetricsRecorder
from repro.engine.result import ScheduleResult
from repro.cost.params import PAPER_PARAMETERS, SystemParameters
from repro.experiments.config import PAPER_CONFIG, ExperimentConfig
from repro.experiments.figures import FigureData, Series
from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import prepare_workload, schedule_query
from repro.obs.names import COUNTER_FAULTS_INJECTED, COUNTER_WORK_RERUN
from repro.sim.faults import FaultPlan, FaultSpec
from repro.sim.policies import SharingPolicy
from repro.sim.simulator import SimulationResult, simulate_phased
from repro.store import ArtifactStore, default_store

__all__ = [
    "RobustnessPoint",
    "evaluate_robustness_point",
    "simulate_result_under_faults",
    "robustness_sweep",
    "DEFAULT_INTENSITIES",
]

#: Fault intensities swept by default (0 = the paper's idealized runtime).
DEFAULT_INTENSITIES = (0.0, 0.25, 0.5, 0.75, 1.0)

#: Large co-prime stride separating per-query fault-seed streams.
_SEED_STRIDE = 100_003


@dataclass(frozen=True)
class RobustnessPoint:
    """One coordinate of the robustness grid (algorithm x intensity).

    Attributes
    ----------
    algorithm, n_joins, n_queries, seed, p, f, epsilon, params:
        As in :class:`~repro.experiments.parallel.SweepPoint`.
    intensity:
        Fault intensity in ``[0, 1]`` passed to
        :meth:`~repro.sim.faults.FaultSpec.at_intensity`.
    fault_seed:
        Base seed of the fault-plan stream; per-query plans derive from
        it deterministically, so a point fully determines its value.
    policy:
        Sharing-policy value (:class:`~repro.sim.policies.SharingPolicy`
        ``.value`` string, kept primitive for cheap pickling).
    """

    algorithm: str
    n_joins: int
    n_queries: int
    seed: int
    p: int
    f: float
    epsilon: float
    intensity: float
    fault_seed: int
    policy: str = SharingPolicy.FAIR_SHARE.value
    params: SystemParameters = PAPER_PARAMETERS


def simulate_result_under_faults(
    result: ScheduleResult,
    spec: FaultSpec,
    seed: int,
    *,
    policy: SharingPolicy = SharingPolicy.FAIR_SHARE,
    metrics: MetricsRecorder | None = None,
) -> SimulationResult:
    """Execute one algorithm result's schedule under a fault plan.

    Builds the deterministic :class:`~repro.sim.faults.FaultPlan` for
    ``(spec, schedule, seed)``, simulates, and folds the
    ``faults_injected`` / ``work_rerun`` counters into both the optional
    recorder and the result's own
    :class:`~repro.engine.result.Instrumentation`, so fault exposure
    travels with the :class:`ScheduleResult` provenance.

    Raises
    ------
    ConfigurationError
        For bound-only results (nothing to simulate).
    """
    if result.phased_schedule is None:
        raise ConfigurationError(
            f"{result.algorithm or 'result'} is bound-only; nothing to simulate"
        )
    plan = FaultPlan.build(spec, result.phased_schedule, seed)
    sim = simulate_phased(result.phased_schedule, policy, plan=plan)
    report = sim.fault_report
    assert report is not None  # simulate_phased always attaches one for plans
    counters = result.instrumentation.counters
    counters[COUNTER_FAULTS_INJECTED] = (
        counters.get(COUNTER_FAULTS_INJECTED, 0.0) + report.faults_injected
    )
    counters[COUNTER_WORK_RERUN] = (
        counters.get(COUNTER_WORK_RERUN, 0.0) + report.work_rerun
    )
    if metrics is not None:
        metrics.count(COUNTER_FAULTS_INJECTED, report.faults_injected)
        metrics.count(COUNTER_WORK_RERUN, report.work_rerun)
    return sim


def evaluate_robustness_point(point: RobustnessPoint) -> float:
    """Average degradation factor (simulated / analytic) at one point.

    Module-level so it pickles for
    :meth:`~repro.experiments.parallel.ParallelRunner.run`.  Each query
    gets its own fault-plan seed derived from ``fault_seed`` and the
    query's index only, so the value is identical for any worker count.
    """
    policy = SharingPolicy(point.policy)
    spec = FaultSpec.at_intensity(point.intensity, epsilon=point.epsilon)
    queries = prepare_workload(
        point.n_joins, point.n_queries, point.seed, point.params
    )
    # Schedules depend only on (algorithm, query, p, f, epsilon, params)
    # — not on the fault coordinates — so caching them in the artifact
    # store shares the expensive scheduling step across every intensity
    # and policy of the robustness grid.
    store = default_store()
    factors = []
    for index, query in enumerate(queries):
        result = schedule_query(
            point.algorithm,
            query,
            p=point.p,
            f=point.f,
            epsilon=point.epsilon,
            params=point.params,
            store=store,
            cache_key={
                "workload": {
                    "n_joins": point.n_joins,
                    "n_queries": point.n_queries,
                    "seed": point.seed,
                },
                "index": index,
            }
            if store is not None
            else None,
        )
        if result.phased_schedule is None:
            continue
        sim = simulate_result_under_faults(
            result, spec, point.fault_seed + _SEED_STRIDE * index, policy=policy
        )
        factors.append(sim.slowdown)
    if not factors:
        raise ConfigurationError(
            f"{point.algorithm} produced no simulatable schedules"
        )
    return math.fsum(factors) / len(factors)


def robustness_sweep(
    config: ExperimentConfig = PAPER_CONFIG,
    *,
    n_joins: int = 20,
    p: int = 20,
    algorithms: tuple[str, ...] = ("treeschedule", "synchronous"),
    intensities: tuple[float, ...] = DEFAULT_INTENSITIES,
    policy: SharingPolicy = SharingPolicy.FAIR_SHARE,
    fault_seed: int = 1996,
    workers: int = 1,
    metrics: MetricsRecorder | None = None,
    store: ArtifactStore | None = None,
) -> FigureData:
    """Sweep fault intensity x algorithm and report promise degradation.

    Parameters
    ----------
    config:
        Supplies workload size, seed and Table 2 parameters.
    n_joins, p:
        Workload and system size of the sweep.
    algorithms:
        Registered algorithm names to contrast (bound-only algorithms
        are rejected when their points are evaluated).
    intensities:
        Fault intensities in ``[0, 1]``; 0 reproduces the idealized
        runtime (degradation equals the plain sharing-policy penalty).
    policy:
        Sharing policy executed under perturbation.
    fault_seed:
        Base seed of the fault streams; the whole report is a
        deterministic function of the sweep coordinates and this seed.
    workers:
        Process count for the grid (identical results for any value).
    metrics:
        Optional recorder (sweep-level counters and timers).
    store:
        Optional :class:`~repro.store.ArtifactStore` caching point
        values (falls back to the ``REPRO_CACHE_DIR`` default).

    Returns
    -------
    FigureData
        One degradation-vs-intensity series per algorithm.
    """
    if not algorithms:
        raise ConfigurationError("robustness_sweep needs at least one algorithm")
    if not intensities:
        raise ConfigurationError("robustness_sweep needs at least one intensity")
    for intensity in intensities:
        if not 0.0 <= intensity <= 1.0:
            raise ConfigurationError(
                f"fault intensity must lie in [0, 1], got {intensity}"
            )
    points = [
        RobustnessPoint(
            algorithm=algorithm,
            n_joins=n_joins,
            n_queries=config.n_queries,
            seed=config.seed,
            p=p,
            f=config.default_f,
            epsilon=config.default_epsilon,
            intensity=intensity,
            fault_seed=fault_seed,
            policy=policy.value,
            params=config.params,
        )
        for algorithm in algorithms
        for intensity in intensities
    ]
    values = ParallelRunner(workers, metrics=metrics, store=store).run(
        points, evaluate=evaluate_robustness_point
    )
    xs = tuple(float(i) for i in intensities)
    series = tuple(
        Series(
            label=algorithm,
            xs=xs,
            ys=tuple(values[k * len(intensities) : (k + 1) * len(intensities)]),
        )
        for k, algorithm in enumerate(algorithms)
    )
    return FigureData(
        figure_id="robustness",
        title=(
            f"Degradation under fault injection ({n_joins} joins, P={p}, "
            f"{policy.value} sharing)"
        ),
        x_label="fault intensity",
        y_label="simulated / analytic response time",
        series=series,
        notes=(
            "Each point executes every query's schedule in the fluid "
            "simulator under a seed-deterministic FaultPlan "
            "(slowdowns, work skew, stragglers, site failures).",
            "Balanced multi-dimensional packings should degrade more "
            "gracefully than the one-dimensional adversary.",
        ),
    )
