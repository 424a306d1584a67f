"""The online scheduler service: admission → queue → placement → governor.

:class:`SchedulerService` is the tentpole of the serve layer — a
long-running (in virtual time) asyncio program that admits a stream of
concurrent queries onto one shared :class:`~repro.serve.pool.SitePool`:

1. a load generator (:mod:`repro.serve.workload`) submits jobs in open
   or closed arrival mode;
2. the :class:`~repro.serve.admission.AdmissionController` decides
   admit/defer/shed against its bounded two-class queue;
3. the placement loop pops runnable jobs (latency-class first), asks the
   :class:`~repro.serve.governor.DegreeGovernor` for a clone-degree cap
   from current pressure, schedules the job's template with the
   registered algorithm (TREESCHEDULE by default) at that degree, and
   installs its per-site footprint into the pool through a repair delta;
4. the :class:`~repro.serve.executor.FluidExecutor` races the resident
   queries under fair-share contention; each completion retires the
   query's delta from the pool, resolves the submitting client's future,
   and frees capacity for the next placement.

Everything runs on the :class:`~repro.serve.clock.VirtualTimeEventLoop`,
so a run is a deterministic function of the
:class:`~repro.serve.service.ServeConfig` alone: same config, same
:meth:`ServiceReport.summary`, on any machine, at any level of host
parallelism (the service is single-loop by construction — worker counts
do not exist here, which is how the "identical summaries at any worker
count" guarantee is discharged).
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError
from repro.core.cluster import ClusterSpec
from repro.core.resource_model import ConvexCombinationOverlap
from repro.core.work_vector import WorkVector
from repro.cost.params import PAPER_PARAMETERS, SystemParameters
from repro.engine.metrics import MetricsRecorder
from repro.engine.result import ScheduleResult
from repro.obs.names import (
    COUNTER_QUERIES_ADMITTED,
    COUNTER_QUERIES_COMPLETED,
    COUNTER_QUERIES_DEFERRED,
    COUNTER_QUERIES_OFFERED,
    COUNTER_QUERIES_SHED,
    SPAN_SERVE,
    SPAN_SERVE_ADMIT,
    SPAN_SERVE_COMPLETE,
    SPAN_SERVE_PLACE,
    TIMER_SERVE,
)
from repro.obs.tracer import current_tracer
from repro.serve.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
)
from repro.serve.clock import run_virtual
from repro.serve.executor import FluidExecutor
from repro.serve.governor import DegreeGovernor, GovernorConfig
from repro.serve.pool import SitePool
from repro.serve.telemetry import ServiceTelemetry, TelemetryConfig
from repro.serve.workload import (
    ArrivalMode,
    JobFactory,
    QueryJob,
    QueryTemplate,
    WorkloadSpec,
    diurnal_factor,
)

__all__ = ["ServeConfig", "JobRecord", "ServiceReport", "SchedulerService"]


@dataclass(frozen=True)
class ServeConfig:
    """Everything one service run depends on.

    Attributes
    ----------
    p:
        Sites in the shared pool.
    f, epsilon, params:
        The usual scheduling knobs, passed through to the registered
        algorithm per placement.
    algorithm:
        Registered scheduler used for placements.
    workload:
        Arrival process and query mix.
    admission:
        Bounded-queue thresholds.
    governor:
        Degree policy (the governor's ``max_degree`` is also the site
        budget each query is scheduled against).
    max_coresident:
        Pool co-residency cap gating placement.
    cluster:
        Optional heterogeneous pool description; must agree with ``p``.
        ``None`` keeps the homogeneous unit pool.
    capacity_events:
        Elastic scaling script: ``(at, site, capacity)`` triples applied
        to the live pool at virtual time ``at`` via
        :meth:`~repro.serve.pool.SitePool.set_capacity` — residents stay
        put, only rates change.
    telemetry:
        Optional :class:`~repro.serve.telemetry.TelemetryConfig`
        enabling the read-only metrics/SLO sampling plane.  Telemetry
        never changes virtual-time results or the summary; one caveat:
        its always-pending sampler timer means a genuine service
        deadlock loops in virtual time instead of tripping the clock's
        deadlock guard, so leave it off for liveness tests.
    """

    p: int = 16
    f: float = 0.25
    epsilon: float = 0.5
    params: SystemParameters = PAPER_PARAMETERS
    algorithm: str = "treeschedule"
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    governor: GovernorConfig = field(default_factory=GovernorConfig)
    max_coresident: int = 4
    cluster: ClusterSpec | None = None
    capacity_events: tuple[tuple[float, int, float], ...] = ()
    telemetry: TelemetryConfig | None = None

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ConfigurationError(f"p must be >= 1, got {self.p}")
        if self.governor.max_degree > self.p:
            raise ConfigurationError(
                f"governor max_degree {self.governor.max_degree} exceeds "
                f"pool size p={self.p}"
            )
        if self.max_coresident < 1:
            raise ConfigurationError(
                f"max_coresident must be >= 1, got {self.max_coresident}"
            )
        if self.cluster is not None and self.cluster.p != self.p:
            raise ConfigurationError(
                f"cluster spec describes {self.cluster.p} sites but p={self.p}"
            )
        events = []
        for event in self.capacity_events:
            try:
                at, site, capacity = event
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"capacity events must be (at, site, capacity) triples, "
                    f"got {event!r}"
                ) from None
            at, site, capacity = float(at), int(site), float(capacity)
            if at < 0.0:
                raise ConfigurationError(
                    f"capacity event time must be >= 0, got {at}"
                )
            if not 0 <= site < self.p:
                raise ConfigurationError(
                    f"capacity event site {site} out of range for p={self.p}"
                )
            if not capacity > 0.0 or capacity != capacity or capacity == float("inf"):
                raise ConfigurationError(
                    f"capacity event capacity must be a positive finite "
                    f"number, got {capacity!r}"
                )
            events.append((at, site, capacity))
        object.__setattr__(self, "capacity_events", tuple(events))


@dataclass
class JobRecord:
    """Lifecycle of one submitted job, in virtual seconds.

    ``started``/``finished`` stay ``None`` for shed jobs;
    ``base_response`` is the stand-alone response time ``T0`` the query
    was scheduled for at ``degree`` (its fluid demand), so
    ``latency / base_response`` is the job's contention slowdown.
    """

    job_id: int
    slo: str
    template: int
    n_joins: int
    submitted: float
    outcome: str = "pending"
    deferred: bool = False
    degree: int = 0
    sites: int = 0
    base_response: float = 0.0
    started: float | None = None
    finished: float | None = None

    @property
    def wait(self) -> float | None:
        """Queue wait: submission to placement."""
        return None if self.started is None else self.started - self.submitted

    @property
    def latency(self) -> float | None:
        """End-to-end: submission to completion."""
        return None if self.finished is None else self.finished - self.submitted


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation).

    Edge behavior, relied on by the summary and its tests: an empty list
    returns the sentinel ``0.0`` (there is no order statistic to report,
    and the summary's other empty-case fields are zero too); a single
    element is every percentile of itself; the rank is clamped into
    ``[1, len]`` so no ``q`` — including float-noise values just above
    100 — can index out of range.
    """
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values), max(1, math.ceil(q / 100.0 * len(sorted_values))))
    return sorted_values[rank - 1]


def _round(x: float) -> float:
    return round(x, 9)


@dataclass
class ServiceReport:
    """Outcome of one service run: per-job records plus aggregates."""

    config: ServeConfig
    records: list[JobRecord]
    metrics: MetricsRecorder
    degree_histogram: dict[int, int]
    admission_decisions: dict[tuple[str, str], int]
    promoted: int
    placement_scans: int
    busy_site_seconds: float
    query_seconds: float
    finished_at: float
    wall_seconds: float
    sites_resized: int = 0

    def _latency_block(self, records: list[JobRecord]) -> dict:
        latencies = sorted(r.latency for r in records if r.latency is not None)
        waits = [r.wait for r in records if r.wait is not None]
        return {
            "completed": len(latencies),
            "p50": _round(_percentile(latencies, 50.0)),
            "p95": _round(_percentile(latencies, 95.0)),
            "p99": _round(_percentile(latencies, 99.0)),
            "mean_wait": _round(math.fsum(waits) / len(waits)) if waits else 0.0,
        }

    def summary(self) -> dict:
        """Deterministic run summary (no wall-clock, JSON-ready).

        Two runs with equal configs produce equal summaries — this dict
        is what the CLI prints, what the bench records, and what the
        determinism tests compare.
        """
        completed = [r for r in self.records if r.outcome == "completed"]
        elapsed = max(self.config.workload.duration, self.finished_at)
        degrees = [r.degree for r in completed]
        by_outcome: dict[str, int] = {}
        for r in self.records:
            by_outcome[r.outcome] = by_outcome.get(r.outcome, 0) + 1
        return {
            "offered": len(self.records),
            "outcomes": dict(sorted(by_outcome.items())),
            "deferred_then_run": sum(1 for r in self.records if r.deferred),
            "elapsed": _round(elapsed),
            "qps": _round(len(completed) / elapsed) if elapsed else 0.0,
            "latency": {
                "all": self._latency_block(completed),
                "latency_class": self._latency_block(
                    [r for r in completed if r.slo == "latency"]
                ),
                "batch_class": self._latency_block(
                    [r for r in completed if r.slo == "batch"]
                ),
            },
            "degrees": {
                "min": min(degrees) if degrees else 0,
                "max": max(degrees) if degrees else 0,
                "mean": _round(math.fsum(degrees) / len(degrees))
                if degrees
                else 0.0,
                "histogram": {
                    str(k): v for k, v in sorted(self.degree_histogram.items())
                },
            },
            "mean_slowdown": _round(
                math.fsum(r.latency / r.base_response for r in completed)
                / len(completed)
            )
            if completed
            else 0.0,
            "pool": self._pool_block(elapsed),
        }

    def _pool_block(self, elapsed: float) -> dict:
        block = {
            "placement_scans": self.placement_scans,
            "promoted": self.promoted,
            "site_utilization": _round(
                self.busy_site_seconds / (self.config.p * elapsed)
            )
            if elapsed
            else 0.0,
            "mean_concurrency": _round(self.query_seconds / elapsed)
            if elapsed
            else 0.0,
        }
        # Only elastic runs grow the extra key, keeping the classic
        # summary byte-identical.
        if self.sites_resized:
            block["sites_resized"] = self.sites_resized
        return block


class SchedulerService:
    """One online scheduling run over a shared site pool.

    Construct with a :class:`ServeConfig`, call :meth:`run` (synchronous
    — it owns a private virtual-time event loop), read the returned
    :class:`ServiceReport`.
    """

    def __init__(self, config: ServeConfig, *, store=None) -> None:
        self.config = config
        self.store = store
        self.metrics = MetricsRecorder()
        overlap = ConvexCombinationOverlap(config.epsilon)
        self.pool = SitePool(
            p=config.p,
            overlap=overlap,
            max_coresident=config.max_coresident,
            capacities=(
                config.cluster.capacities_or_none()
                if config.cluster is not None
                else None
            ),
            metrics=self.metrics,
        )
        self.admission = AdmissionController(config.admission)
        self.governor = DegreeGovernor(config.governor)
        self.executor = FluidExecutor(
            residents_of=self.pool.residents_of,
            on_complete=self._on_complete,
            capacity_of=self.pool.capacity_of,
        )
        self.telemetry = (
            ServiceTelemetry(
                config.telemetry,
                p=config.p,
                admission=self.admission,
                pool=self.pool,
                governor=self.governor,
                executor=self.executor,
                metrics=self.metrics,
            )
            if config.telemetry is not None
            else None
        )
        self.records: dict[int, JobRecord] = {}
        self._futures: dict[int, asyncio.Future] = {}
        self._queue_event: asyncio.Event | None = None
        self._capacity_event: asyncio.Event | None = None
        self._intake_closed = False
        self._finished_at = 0.0
        # (template index, degree) -> ScheduleResult; the service's
        # schedule-once-per-shape memo.
        self._schedule_memo: dict[tuple[int, int], ScheduleResult] = {}
        self._queries: dict[int, object] = {}

    # ------------------------------------------------------------------
    # Submission path (called by the load generator)
    # ------------------------------------------------------------------
    def submit(self, job: QueryJob) -> asyncio.Future:
        """Offer one job; returns a future resolving at its outcome.

        The future resolves with the job's final outcome string:
        immediately (``"shed"``) or at completion (``"completed"``).
        Closed-loop clients await it; open mode ignores it.
        """
        loop = asyncio.get_running_loop()
        self.metrics.count(COUNTER_QUERIES_OFFERED)
        record = JobRecord(
            job_id=job.job_id,
            slo=job.slo.value,
            template=job.template.index,
            n_joins=job.template.n_joins,
            submitted=job.submitted_at,
        )
        self.records[job.job_id] = record
        future = loop.create_future()
        self._futures[job.job_id] = future
        with current_tracer().span(
            SPAN_SERVE_ADMIT, job=job.job_id, slo=job.slo.value
        ) as span:
            decision = self.admission.submit(job)
            if span is not None:
                span.attributes["decision"] = decision.value
        if decision is AdmissionDecision.SHED:
            self.metrics.count(COUNTER_QUERIES_SHED)
            record.outcome = "shed"
            future.set_result("shed")
        elif decision is AdmissionDecision.DEFERRED:
            self.metrics.count(COUNTER_QUERIES_DEFERRED)
            record.deferred = True
        else:
            self.metrics.count(COUNTER_QUERIES_ADMITTED)
        return future

    # ------------------------------------------------------------------
    # Placement path
    # ------------------------------------------------------------------
    def _annotated_query(self, template: QueryTemplate):
        from repro.experiments.runner import prepare_workload

        query = self._queries.get(template.index)
        if query is None:
            query = prepare_workload(
                template.n_joins, 1, template.seed, self.config.params,
                store=self.store,
            )[0]
            self._queries[template.index] = query
        return query

    def _schedule_template(
        self, template: QueryTemplate, degree: int
    ) -> ScheduleResult:
        """Schedule one template at a degree cap, memoized per pair."""
        from repro.experiments.runner import schedule_query

        memo_key = (template.index, degree)
        result = self._schedule_memo.get(memo_key)
        if result is None:
            cache_key = (
                {
                    "workload": {
                        "n_joins": template.n_joins,
                        "n_queries": 1,
                        "seed": template.seed,
                    },
                    "index": 0,
                }
                if self.store is not None
                else None
            )
            result = schedule_query(
                self.config.algorithm,
                self._annotated_query(template),
                p=degree,
                f=self.config.f,
                epsilon=self.config.epsilon,
                params=self.config.params,
                metrics=self.metrics,
                store=self.store,
                cache_key=cache_key,
            )
            self._schedule_memo[memo_key] = result
        return result

    @staticmethod
    def _footprint(result: ScheduleResult) -> tuple[WorkVector, ...]:
        """Collapse a query's phased schedule into per-site load vectors.

        One aggregate vector per *used* virtual site — that is the
        query's residency footprint in the shared pool (its clone count
        there), independent of how many phases the stand-alone schedule
        had.
        """
        phased = result.phased_schedule
        totals: dict[int, WorkVector] = {}
        for phase in phased.phases:
            for site in phase.sites:
                if site.is_empty():
                    continue
                load = site.load_vector()
                prev = totals.get(site.index)
                totals[site.index] = load if prev is None else prev + load
        return tuple(totals[j] for j in sorted(totals))

    async def _place_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = self.admission.pop()
            if job is None:
                if self._intake_closed and self.admission.depth == 0:
                    return
                self._queue_event.clear()
                job = self.admission.pop()
                if job is None:
                    if self._intake_closed and self.admission.depth == 0:
                        return
                    await self._queue_event.wait()
                    continue
            pressure = self.admission.queued + self.executor.running_count
            degree = self.governor.degree(pressure)
            with current_tracer().span(
                SPAN_SERVE_PLACE, job=job.job_id, degree=degree
            ) as span:
                result = self._schedule_template(job.template, degree)
                loads = self._footprint(result)
                if span is not None:
                    span.attributes["sites"] = len(loads)
            while not self.pool.has_capacity(len(loads)):
                self._capacity_event.clear()
                if self.pool.has_capacity(len(loads)):
                    break
                await self._capacity_event.wait()
            name = f"q{job.job_id}"
            now = loop.time()
            hosts = self.pool.install(name, loads)
            self.executor.launch(name, result.response_time, hosts, now)
            record = self.records[job.job_id]
            record.started = now
            record.degree = degree
            record.sites = len(loads)
            record.base_response = result.response_time
            if self.telemetry is not None:
                self.telemetry.on_placed(name, record.slo, hosts, now, degree)

    # ------------------------------------------------------------------
    # Completion path (called synchronously by the executor)
    # ------------------------------------------------------------------
    def _on_complete(self, name: str, finished_at: float) -> None:
        job_id = int(name[1:])
        with current_tracer().span(SPAN_SERVE_COMPLETE, job=job_id):
            self.pool.retire(name)
        self.metrics.count(COUNTER_QUERIES_COMPLETED)
        record = self.records[job_id]
        record.finished = finished_at
        record.outcome = "completed"
        self._finished_at = max(self._finished_at, finished_at)
        if self.telemetry is not None:
            self.telemetry.on_completed(
                name, record.slo, finished_at - record.submitted, finished_at
            )
        future = self._futures.get(job_id)
        if future is not None and not future.done():
            future.set_result("completed")
        self._capacity_event.set()

    # ------------------------------------------------------------------
    # Elastic scaling (the config's capacity-event script)
    # ------------------------------------------------------------------
    async def _apply_capacity_events(self) -> None:
        loop = asyncio.get_running_loop()
        for at, site, capacity in sorted(self.config.capacity_events):
            delay = at - loop.time()
            if delay > 0.0:
                await asyncio.sleep(delay)
            # The pool's repair path counts sites_resized into the
            # recorder, so no extra count here.
            self.pool.set_capacity(site, capacity)
            # A capacity change is a rate event, exactly like a launch or
            # a retirement: wake the fluid race so the next interval runs
            # at the new speeds.
            self.executor.notify_rates_changed()

    # ------------------------------------------------------------------
    # Load generation
    # ------------------------------------------------------------------
    async def _generate_open(self, factory: JobFactory) -> None:
        loop = asyncio.get_running_loop()
        spec = self.config.workload
        rng = random.Random(spec.seed * 1_000_003)
        while True:
            now = loop.time()
            gap = rng.expovariate(spec.rate * diurnal_factor(now, spec))
            await asyncio.sleep(gap)
            now = loop.time()
            if now >= spec.duration:
                return
            self.submit(factory.job(now))

    async def _client(self, factory: JobFactory, index: int) -> None:
        loop = asyncio.get_running_loop()
        spec = self.config.workload
        rng = random.Random(spec.seed * 1_000_003 + 7 * (index + 1))
        while True:
            if spec.think_mean > 0.0:
                await asyncio.sleep(rng.expovariate(1.0 / spec.think_mean))
            now = loop.time()
            if now >= spec.duration:
                return
            outcome = self.submit(factory.job(now, client=index))
            await outcome

    async def _generate(self) -> None:
        factory = JobFactory(self.config.workload)
        if self.config.workload.arrival is ArrivalMode.OPEN:
            await self._generate_open(factory)
        else:
            clients = [
                asyncio.ensure_future(self._client(factory, i))
                for i in range(self.config.workload.clients)
            ]
            await asyncio.gather(*clients)

    # ------------------------------------------------------------------
    # Orchestration
    # ------------------------------------------------------------------
    async def _main(self) -> None:
        self._queue_event = asyncio.Event()
        self._capacity_event = asyncio.Event()
        self.admission.on_available = self._queue_event.set
        with current_tracer().span(
            SPAN_SERVE,
            algorithm=self.config.algorithm,
            p=self.config.p,
            arrival=self.config.workload.arrival.value,
            seed=self.config.workload.seed,
        ):
            placer = asyncio.ensure_future(self._place_loop())
            runner = asyncio.ensure_future(self.executor.run())
            resizer = (
                asyncio.ensure_future(self._apply_capacity_events())
                if self.config.capacity_events
                else None
            )
            # The sampler is strictly read-only, so starting (and later
            # cancelling) it cannot change any virtual-time result.
            sampler = (
                asyncio.ensure_future(self.telemetry.run())
                if self.telemetry is not None
                else None
            )
            await self._generate()
            self._intake_closed = True
            self.admission.drain_intake()
            self._queue_event.set()
            await placer
            if resizer is not None:
                await resizer
            self.executor.stop_when_idle()
            await runner
            if sampler is not None:
                sampler.cancel()
                try:
                    await sampler
                except asyncio.CancelledError:
                    pass

    def run(self) -> ServiceReport:
        """Execute the whole workload; returns the finished report."""
        started = time.perf_counter()
        with self.metrics.timer(TIMER_SERVE):
            run_virtual(self._main())
        wall = time.perf_counter() - started
        if self.telemetry is not None:
            completed = sum(
                1 for r in self.records.values() if r.outcome == "completed"
            )
            elapsed = max(self.config.workload.duration, self._finished_at)
            self.telemetry.finish(elapsed=elapsed, completed=completed)
        return ServiceReport(
            config=self.config,
            records=[self.records[k] for k in sorted(self.records)],
            metrics=self.metrics,
            degree_histogram=dict(self.governor.chosen),
            admission_decisions=dict(self.admission.decisions),
            promoted=self.admission.promoted,
            placement_scans=self.pool.placement_scans,
            busy_site_seconds=self.executor.busy_site_seconds,
            query_seconds=self.executor.query_seconds,
            finished_at=self._finished_at,
            wall_seconds=wall,
            sites_resized=self.pool.resizes,
        )
