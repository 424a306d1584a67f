"""Live service telemetry: virtual-time sampling, SLO monitor, fleet export.

:class:`ServiceTelemetry` is the observation plane of the online
scheduler service — strictly *read-only* over the service's live
objects, which is what keeps the load-bearing invariant cheap to state:
a run's stdout and every virtual-time result are byte-identical with
telemetry enabled or disabled, because the sampler only ever reads
admission/pool/governor/executor state and writes to its own
:class:`~repro.obs.metrics_stream.TimeSeriesRegistry`.

Three cooperating pieces:

**The sampler** (:meth:`ServiceTelemetry.run`) is one extra coroutine on
the service's :class:`~repro.serve.clock.VirtualTimeEventLoop`, waking
every ``interval`` *virtual* seconds to snapshot queue depths
(latency/batch/parked), pool occupancy and cumulative utilization,
governor pressure and last chosen degree, executor backlog, and the
mirrored service counters.  Sample timestamps are virtual seconds, so
the exported stream is a deterministic function of the
:class:`~repro.serve.service.ServeConfig` — byte-stable at any
``--workers`` count.  (One caveat the service documents: with a sampler
timer always pending, a genuine service deadlock no longer trips the
virtual loop's deadlock guard; telemetry is opt-in precisely so
correctness tests run without it.)

**The SLO monitor** scores every completion against its class's
:class:`SLOTarget`: rolling attainment over the last ``window``
completions and the error-budget *burn rate*
``(1 - attainment) / (1 - objective)`` — burn 1.0 means the class is
spending its budget exactly as provisioned, above 1.0 it will exhaust
the budget early.  A running hit count per class, updated as the window
evicts its oldest completion, makes both O(1) per sample.  Each miss
lands as one breach instant (a ``ph:"i"`` trace event in the fleet
timeline) and bumps the service recorder's ``slo_breaches`` counter.

**The fleet timeline** accumulates per-site residency intervals (which
query occupied which site, when);
:meth:`ServiceTelemetry.timeline_events` renders them, plus counter
tracks read back from the registry's gauge series, through
:func:`repro.obs.timeline.fleet_events` for merging into a
:class:`~repro.obs.session.TraceSession`'s ``trace.json``.

Reconciliation contract: after :meth:`ServiceTelemetry.finish`, the
final ``serve_qps`` and ``serve_pool_utilization`` samples equal the
``qps`` and ``site_utilization`` of
:meth:`~repro.serve.service.ServiceReport.summary` exactly (same
rounding), and each class's final latency-sketch p95 is within one
log-bucket growth factor above the summary's exact nearest-rank p95.
"""

from __future__ import annotations

import asyncio
import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.exceptions import ConfigurationError
from repro.obs.metrics_stream import TimeSeriesRegistry
from repro.obs.names import (
    COUNTER_QUERIES_ADMITTED,
    COUNTER_QUERIES_COMPLETED,
    COUNTER_QUERIES_DEFERRED,
    COUNTER_QUERIES_OFFERED,
    COUNTER_QUERIES_SHED,
    COUNTER_SLO_BREACHES,
    COUNTER_TELEMETRY_SAMPLES,
    INSTANT_SLO_BREACH,
    TIMER_TELEMETRY,
)
from repro.obs.timeline import fleet_events

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.metrics import MetricsRecorder
    from repro.serve.admission import AdmissionController
    from repro.serve.executor import FluidExecutor
    from repro.serve.governor import DegreeGovernor
    from repro.serve.pool import SitePool

__all__ = ["SLOTarget", "TelemetryConfig", "ServiceTelemetry"]

#: The service's SLO classes (:class:`repro.serve.workload.SLOClass`
#: values; plain strings here so this module stays hook-shaped).
SLO_CLASSES = ("latency", "batch")


def _round(x: float) -> float:
    # Same rounding as the service summary, so final samples reconcile
    # byte-exactly.
    return round(x, 9)


@dataclass(frozen=True)
class SLOTarget:
    """One class's latency objective.

    Attributes
    ----------
    target:
        End-to-end latency bound in virtual seconds; a completion above
        it is a breach.
    objective:
        Required attainment fraction in ``(0, 1)``; the error budget is
        ``1 - objective`` and burn rate is miss-rate over budget.
    """

    target: float
    objective: float = 0.9

    def __post_init__(self) -> None:
        if not self.target > 0.0:
            raise ConfigurationError(
                f"SLO target must be > 0 seconds, got {self.target}"
            )
        if not 0.0 < self.objective < 1.0:
            raise ConfigurationError(
                f"SLO objective must be in (0, 1), got {self.objective}"
            )


@dataclass(frozen=True)
class TelemetryConfig:
    """Knobs of the telemetry plane.

    Attributes
    ----------
    interval:
        Virtual seconds between samples.
    window:
        Completions per class in the rolling SLO attainment window.
    latency_slo, batch_slo:
        Per-class latency targets; defaults are loose enough that a
        healthy default-config run breaches rarely.
    """

    interval: float = 5.0
    window: int = 64
    latency_slo: SLOTarget = SLOTarget(target=30.0, objective=0.9)
    batch_slo: SLOTarget = SLOTarget(target=120.0, objective=0.8)

    def __post_init__(self) -> None:
        if not 0.0 < self.interval < math.inf:
            raise ConfigurationError(
                f"telemetry interval must be > 0 and finite, got {self.interval}"
            )
        if self.window < 1:
            raise ConfigurationError(
                f"telemetry window must be >= 1, got {self.window}"
            )

    def targets(self) -> dict[str, SLOTarget]:
        """Per-class targets keyed by SLO class name."""
        return {"latency": self.latency_slo, "batch": self.batch_slo}


class ServiceTelemetry:
    """Read-only observer of one :class:`SchedulerService` run.

    The service calls :meth:`on_placed` / :meth:`on_completed` from its
    placement and completion paths, runs :meth:`run` as a sampler task,
    and calls :meth:`finish` once the report exists.  Everything
    observed lands in :attr:`registry` (instruments + sample stream)
    and the fleet-timeline accumulators; each SLO miss is one breach
    instant and one ``slo_breaches`` count on :attr:`metrics`.
    """

    def __init__(
        self,
        config: TelemetryConfig,
        *,
        p: int,
        admission: "AdmissionController",
        pool: "SitePool",
        governor: "DegreeGovernor",
        executor: "FluidExecutor",
        metrics: "MetricsRecorder",
    ) -> None:
        self.config = config
        self.p = p
        self.admission = admission
        self.pool = pool
        self.governor = governor
        self.executor = executor
        self.metrics = metrics
        self.registry = TimeSeriesRegistry()
        self._targets = config.targets()

        # Fleet timeline accumulators.
        self._open: dict[str, tuple[float, tuple[int, ...], dict[str, Any]]] = {}
        self._residencies: list[tuple[str, int, float, float, dict[str, Any]]] = []
        self._instants: list[tuple[str, float, dict[str, Any]]] = []

        # SLO monitor state.
        self._slo_window: dict[str, deque[bool]] = {
            cls: deque(maxlen=config.window) for cls in SLO_CLASSES
        }
        # Hits inside each rolling window, kept in step with its evictions.
        self._slo_window_hits: dict[str, int] = dict.fromkeys(SLO_CLASSES, 0)
        self._last_completion_at: float | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

        # Register every instrument up front: registration order is the
        # per-sample record order, so it must not depend on which events
        # happen to fire first.
        reg = self.registry
        self._g_queue_latency = reg.gauge(
            "serve_queue_latency_depth", "runnable latency-class jobs queued"
        )
        self._g_queue_batch = reg.gauge(
            "serve_queue_batch_depth", "runnable batch-class jobs queued"
        )
        self._g_queue_parked = reg.gauge(
            "serve_queue_parked_depth", "batch jobs parked past high water"
        )
        self._g_occupied = reg.gauge(
            "serve_pool_occupied_sites", "sites hosting at least one query"
        )
        self._g_residents = reg.gauge(
            "serve_pool_resident_queries", "queries resident in the pool"
        )
        self._g_utilization = reg.gauge(
            "serve_pool_utilization",
            "cumulative busy-site-seconds over p * elapsed",
        )
        self._g_pressure = reg.gauge(
            "serve_pressure", "queued + running at the last placement"
        )
        self._g_degree = reg.gauge(
            "serve_degree_last", "clone degree of the last placement"
        )
        self._g_running = reg.gauge(
            "serve_running", "queries executing in the fluid race"
        )
        self._g_backlog = reg.gauge(
            "serve_backlog_seconds", "remaining stand-alone work of the running set"
        )
        self._g_qps = reg.gauge(
            "serve_qps", "completed queries per virtual second"
        )
        self._g_advances = reg.gauge(
            "serve_clock_advances", "virtual-clock jumps taken by the event loop"
        )
        self._g_attainment = {
            cls: reg.gauge(
                f"serve_slo_attainment_{cls}",
                f"rolling fraction of {cls}-class completions inside target",
            )
            for cls in SLO_CLASSES
        }
        self._g_burn = {
            cls: reg.gauge(
                f"serve_slo_burn_rate_{cls}",
                f"{cls}-class error-budget burn rate (miss rate / budget)",
            )
            for cls in SLO_CLASSES
        }
        self._c_mirrors = {
            COUNTER_QUERIES_OFFERED: reg.counter(
                "serve_offered_total", "queries submitted to the service"
            ),
            COUNTER_QUERIES_ADMITTED: reg.counter(
                "serve_admitted_total", "arrivals enqueued for placement"
            ),
            COUNTER_QUERIES_DEFERRED: reg.counter(
                "serve_deferred_total", "batch arrivals parked past high water"
            ),
            COUNTER_QUERIES_SHED: reg.counter(
                "serve_shed_total", "arrivals rejected at the hard cap"
            ),
            COUNTER_QUERIES_COMPLETED: reg.counter(
                "serve_completed_total", "queries run to completion"
            ),
            COUNTER_SLO_BREACHES: reg.counter(
                "serve_slo_breaches_total", "completions that missed their SLO"
            ),
        }
        self._h_latency = {
            cls: reg.histogram(
                f"serve_latency_seconds_{cls}",
                f"end-to-end latency of {cls}-class completions",
            )
            for cls in SLO_CLASSES
        }
        self._h_gap = reg.histogram(
            "serve_completion_gap_seconds", "virtual time between completions"
        )
        # The fleet timeline's counter tracks (track -> {key: gauge}),
        # read back from the gauges' sample series at export.
        self._fleet_tracks = {
            "queue depth": {
                "latency": self._g_queue_latency,
                "batch": self._g_queue_batch,
                "parked": self._g_queue_parked,
            },
            "pool utilization": {"utilization": self._g_utilization},
            "pool residents": {
                "occupied_sites": self._g_occupied,
                "resident_queries": self._g_residents,
            },
            "governor": {"pressure": self._g_pressure, "degree": self._g_degree},
        }

    # ------------------------------------------------------------------
    # Service hooks (called from the placement / completion paths)
    # ------------------------------------------------------------------
    def on_placed(
        self,
        name: str,
        slo: str,
        hosts: tuple[int, ...],
        at: float,
        degree: int,
    ) -> None:
        """One query landed on the pool: open its residency lanes."""
        self._open[name] = (at, tuple(hosts), {"slo": slo, "degree": degree})

    def on_completed(self, name: str, slo: str, latency: float, at: float) -> None:
        """One query finished: close lanes, score the SLO, sketch latency."""
        opened = self._open.pop(name, None)
        if opened is not None:
            start, hosts, args = opened
            lane_args = {**args, "latency": _round(latency)}
            for site in hosts:
                self._residencies.append((name, site, start, at - start, lane_args))
        histogram = self._h_latency.get(slo)
        if histogram is not None:
            histogram.observe(latency)
        if self._last_completion_at is not None:
            self._h_gap.observe(at - self._last_completion_at)
        self._last_completion_at = at
        target = self._targets.get(slo)
        if target is None:
            return
        ok = latency <= target.target
        window = self._slo_window[slo]
        if len(window) == window.maxlen:
            self._slo_window_hits[slo] -= window[0]
        window.append(ok)
        self._slo_window_hits[slo] += ok
        if not ok:
            args = {"job": name, "slo": slo, "latency": _round(latency), "target": target.target}
            self._instants.append((INSTANT_SLO_BREACH, at, args))
            self.metrics.count(COUNTER_SLO_BREACHES)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def attainment(self, slo: str) -> float:
        """Rolling attainment over the last ``window`` completions (1.0 empty)."""
        window = self._slo_window[slo]
        if not window:
            return 1.0
        return self._slo_window_hits[slo] / len(window)

    def burn_rate(self, slo: str) -> float:
        """Rolling error-budget burn: miss rate over ``1 - objective``."""
        return (1.0 - self.attainment(slo)) / (1.0 - self._targets[slo].objective)

    def sample(
        self, now: float, *, qps: float | None = None, utilization: float | None = None
    ) -> None:
        """Snapshot every instrument at virtual time ``now``.

        ``qps`` / ``utilization`` override the derived gauges — the
        :meth:`finish` path passes the summary's rounded values so the
        final samples reconcile byte-exactly.
        """
        with self.metrics.timer(TIMER_TELEMETRY):
            self.metrics.count(COUNTER_TELEMETRY_SAMPLES)
            counters = self.metrics.counters
            self._g_queue_latency.set(self.admission.queued_latency)
            self._g_queue_batch.set(self.admission.queued_batch)
            self._g_queue_parked.set(self.admission.parked)
            self._g_occupied.set(self.pool.occupied_sites)
            self._g_residents.set(self.pool.resident_queries)
            if utilization is None:
                utilization = (
                    self.executor.busy_site_seconds / (self.p * now) if now else 0.0
                )
            self._g_utilization.set(utilization)
            self._g_pressure.set(self.governor.last_pressure)
            self._g_degree.set(self.governor.last_degree)
            self._g_running.set(self.executor.running_count)
            self._g_backlog.set(self.executor.backlog_seconds)
            if qps is None:
                completed = counters.get(COUNTER_QUERIES_COMPLETED, 0.0)
                qps = completed / now if now else 0.0
            self._g_qps.set(qps)
            self._g_advances.set(getattr(self._loop, "advances", 0))
            for cls in SLO_CLASSES:
                self._g_attainment[cls].set(self.attainment(cls))
                self._g_burn[cls].set(self.burn_rate(cls))
            for counter_name, mirror in self._c_mirrors.items():
                mirror.set_total(counters.get(counter_name, 0.0))
            self.registry.sample(now)

    async def run(self) -> None:
        """Sampler task: one snapshot now, then one per virtual interval.

        Cancelled by the service once the executor drains; cancellation
        between samples is the normal exit.
        """
        self._loop = asyncio.get_running_loop()
        self.sample(self._loop.time())
        while True:
            await asyncio.sleep(self.config.interval)
            self.sample(self._loop.time())

    def finish(self, *, elapsed: float, completed: int) -> None:
        """Final reconciliation sample after the run.

        Closes any residency lane still open (defensive — the executor
        drains before the service returns), then samples once more with
        ``serve_qps`` and ``serve_pool_utilization`` pinned to the
        summary's rounded values.  The sample lands at ``elapsed`` or at
        the last periodic sample time, whichever is later (open-arrival
        generators can wake past ``duration`` after the last completion).
        """
        for name, (start, hosts, args) in sorted(self._open.items()):
            for site in hosts:
                self._residencies.append(
                    (name, site, start, max(elapsed - start, 0.0), {**args})
                )
        self._open.clear()
        qps = _round(completed / elapsed) if elapsed else 0.0
        utilization = (
            _round(self.executor.busy_site_seconds / (self.p * elapsed))
            if elapsed
            else 0.0
        )
        at = max(elapsed, self.registry.last_sample_at or 0.0)
        self.sample(at, qps=qps, utilization=utilization)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def timeline_events(self) -> list[dict[str, Any]]:
        """The fleet timeline: site lanes + counter tracks + breaches.

        Each counter track holds its gauges' sampled values, so the
        trace and the metrics stream agree at every sample time.
        """
        tracks = {}
        for track, gauges in self._fleet_tracks.items():
            series = {key: self.registry.series(g.name) for key, g in gauges.items()}
            first = next(iter(series.values()))
            tracks[track] = [
                (record["t"], {key: s[i]["value"] for key, s in series.items()})
                for i, record in enumerate(first)
            ]
        return fleet_events(self._residencies, tracks, self._instants)
