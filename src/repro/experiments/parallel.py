"""Parallel, instrumented, resumable evaluation of experiment sweep points.

A figure regeneration is an embarrassingly parallel grid: every
``(algorithm, workload, P, f, epsilon, parameters)`` coordinate is
independent of every other.  :class:`ParallelRunner` fans a list of
:class:`SweepPoint` coordinates over a process pool and returns the
values in input order.

Determinism: a sweep point *fully* determines its value.  Workloads are
drawn from a seeded generator and cached per process
(:func:`repro.experiments.runner.prepare_workload`), and scheduling is
deterministic, so the result list is bit-identical for any worker count
— ``workers=4`` is purely a wall-clock optimization.  ``workers=1``
short-circuits the pool entirely and evaluates inline (no fork, easier
debugging, no pickling requirements on custom parameters).

Caching and resume: give the runner a content-addressed
:class:`~repro.store.ArtifactStore` (or set ``REPRO_CACHE_DIR``) and
every point value is looked up before evaluation and persisted the
moment its evaluation completes — not when the sweep ends.  A sweep
killed halfway therefore leaves its completed points on disk; rerunning
it with the same cache directory evaluates only the missing ones.
Because point values are pure functions of their coordinates, cache
hits are bit-identical to recomputation, and the store can be shared
between worker counts, runs, and machines.

Instrumentation: pass a :class:`~repro.engine.metrics.MetricsRecorder`
to collect evaluated-point counts and wall-clock totals.  Per-point
timings are measured *inside* the evaluation (workers return
``(value, seconds)`` pairs), so the ``point_seconds`` timer is recorded
for any worker count, not just the inline path; store traffic lands in
the ``point_store_hits`` / ``point_store_misses`` counters.

Crash robustness: a worker dying mid-sweep (OOM kill, segfault, signal)
breaks the whole pool.  Because sweep points are deterministic and
side-effect free, the runner salvages every future that already
completed, persists them, and transparently re-evaluates the rest
inline instead of losing the sweep.

Custom evaluations: ``run(points, evaluate=...)`` accepts any
module-level (hence picklable) function, which is how the robustness
experiment reuses the pool/ordering/retry/caching machinery with its
own point type.
"""

from __future__ import annotations

import logging
import time
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Any

from repro.exceptions import ConfigurationError
from repro.core.cluster import ClusterSpec
from repro.engine.metrics import MetricsRecorder
from repro.engine.registry import get_algorithm
from repro.cost.params import PAPER_PARAMETERS, SystemParameters
from repro.obs.names import (
    COUNTER_POINT_STORE_HITS,
    COUNTER_POINT_STORE_MISSES,
    COUNTER_POINTS_EVALUATED,
    COUNTER_POINTS_RETRIED_INLINE,
    SPAN_POINT,
    SPAN_SWEEP,
    TIMER_POINT_SECONDS,
    TIMER_RUN,
)
from repro.obs.tracer import (
    Span,
    Tracer,
    current_tracer,
    span_from_dict,
    span_to_dict,
    use_tracer,
)
from repro.store import (
    KIND_POINT,
    ArtifactStore,
    point_key_payload,
    resolve_store,
)
from repro.experiments.runner import average_response_time, prepare_workload

__all__ = ["SweepPoint", "ParallelRunner", "evaluate_point"]

_LOG = logging.getLogger(__name__)


@dataclass(frozen=True)
class SweepPoint:
    """One coordinate of an experiment grid.

    Attributes
    ----------
    algorithm:
        Registered algorithm name (resolved via the engine registry).
    n_joins, n_queries, seed:
        Workload cohort coordinates (drawn by ``prepare_workload``).
    p:
        Number of system sites.
    f:
        Granularity parameter.
    epsilon:
        Resource-overlap parameter.
    params:
        Table 2 system parameters (annotation *and* scheduling use these,
        so sensitivity sweeps vary them per point).
    cluster:
        Optional heterogeneous cluster (``cluster.p`` must equal ``p``).
        ``None`` — the homogeneous default — keys and evaluates exactly
        as before; callers should pass ``None`` rather than a uniform
        spec so uniform runs share cache entries with capacity-free ones.
    """

    algorithm: str
    n_joins: int
    n_queries: int
    seed: int
    p: int
    f: float
    epsilon: float
    params: SystemParameters = PAPER_PARAMETERS
    cluster: "ClusterSpec | None" = None


def evaluate_point(point: SweepPoint) -> float:
    """Average response time at one sweep point (deterministic).

    Module-level so it pickles for process pools; the workload cohort is
    cached per process, so a worker evaluating many points of one figure
    draws each cohort once and annotates it once per parameter set.
    """
    queries = prepare_workload(
        point.n_joins, point.n_queries, point.seed, point.params
    )
    return average_response_time(
        point.algorithm,
        queries,
        p=point.p,
        f=point.f,
        epsilon=point.epsilon,
        params=point.params,
        cluster=point.cluster,
    )


def _timed(evaluate: Callable[[Any], Any], point: Any) -> tuple[Any, float]:
    """Evaluate one point and measure it where it runs (worker or inline)."""
    started = time.perf_counter()
    value = evaluate(point)
    return value, time.perf_counter() - started


def _timed_traced(
    evaluate: Callable[[Any], Any], point: Any, index: int
) -> tuple[Any, float, list[dict]]:
    """Evaluate one point under a fresh local tracer.

    Returns ``(value, seconds, span_dicts)`` where ``span_dicts`` are
    the relative-offset serializations
    (:func:`~repro.obs.tracer.span_to_dict`) of the span trees recorded
    during evaluation, rooted at one ``point`` span.  The same function
    runs inline and in pool workers — the evaluation is wrapped
    identically either way, which is what makes the stitched span forest
    structurally identical at any worker count.  Span dicts are plain
    data, so they pickle across the process boundary unchanged.
    """
    tracer = Tracer(enabled=True)
    with use_tracer(tracer):
        with tracer.span(SPAN_POINT, index=index):
            started = time.perf_counter()
            value = evaluate(point)
            seconds = time.perf_counter() - started
    return value, seconds, [span_to_dict(root) for root in tracer.roots]


def _stitch_spans(
    tracer: Tracer,
    sweep_span: "Span | None",
    pairs: list,
    keys: list,
    span_dicts: list,
) -> None:
    """Re-root every point's span tree under the sweep span, in input order.

    Worker monotonic clocks are not comparable across processes, so the
    re-rooted point spans are laid out on a *logical* sequential
    timeline: point ``k+1`` begins where point ``k`` ended, starting at
    the sweep span's own clock value.  Input-index order (not completion
    order) makes the stitched tree deterministic for any worker count
    and any completion interleaving.  Cache-served points get a
    zero-length ``point`` marker span, so every point of the sweep is
    visible in the trace with its store key.
    """
    base = sweep_span.start if sweep_span is not None else 0.0
    offset = 0.0
    for i in range(len(pairs)):
        dicts = span_dicts[i]
        if dicts:
            span = span_from_dict(dicts[0], base=base + offset)
        else:
            start = base + offset
            span = Span(
                name="point",
                start=start,
                end=start,
                attributes={"index": i, "cached": True},
            )
        if keys[i] is not None:
            span.attributes["store_key"] = keys[i]
        tracer.adopt(span)
        offset += span.seconds


class ParallelRunner:
    """Evaluate sweep points, optionally over a process pool.

    Parameters
    ----------
    workers:
        Process count; ``1`` (default) evaluates inline and serially.
    metrics:
        Optional recorder; accumulates the ``points_evaluated`` counter
        and the ``run`` / ``point_seconds`` timers (identical for any
        worker count), ``point_store_hits`` / ``point_store_misses``
        when a store is in play, plus ``points_retried_inline`` when a
        broken pool forced an inline retry.
    store:
        Optional :class:`~repro.store.ArtifactStore` caching point
        values (``None`` falls back to the ``REPRO_CACHE_DIR``
        environment default; :data:`repro.store.NO_STORE` disables
        caching).  Values are persisted as each point completes, which
        is what makes killed sweeps resumable.

    Each :meth:`run` that needs workers starts a pool and shuts it down
    when it returns; inside :meth:`shared_pool` the runs share one.
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        metrics: MetricsRecorder | None = None,
        store: ArtifactStore | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.metrics = metrics
        self.store = resolve_store(store)
        self._sharing = False
        self._pool: ProcessPoolExecutor | None = None

    @contextmanager
    def shared_pool(self) -> Iterator[None]:
        """Keep one process pool for every :meth:`run` inside the block.

        A caller running many small rounds (a plan search runs one per
        scored chunk) pays for worker start-up once instead of per
        round.  The pool starts at the first run that needs it and shuts
        down when the block exits.  A pool that breaks is dropped, its
        run salvages and retries as without the block, and the next run
        starts a new pool.  Values are the same as without the block.
        """
        self._sharing = True
        try:
            yield
        finally:
            self._sharing = False
            self._drop_pool()

    def _drop_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def _round_pool(self, pending: list[int]):
        """Context manager giving the pool for one :meth:`run`."""
        if not self._sharing:
            return ProcessPoolExecutor(max_workers=min(self.workers, len(pending)))
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return nullcontext(self._pool)

    def run(
        self,
        points: Sequence[Any],
        *,
        evaluate: Callable[[Any], Any] = evaluate_point,
    ) -> list[Any]:
        """Evaluate every point, returning values in input order.

        Algorithm names are validated up front (in the parent process),
        so an unknown name raises
        :class:`~repro.exceptions.ConfigurationError` before any worker
        is forked.  ``evaluate`` must be a module-level function when
        ``workers > 1`` (it is shipped to the pool by reference).

        With a store attached, cached points are answered without
        evaluation and fresh values are persisted as they complete, so
        only the points missing from the store cost any work.
        """
        points = list(points)
        for point in points:
            name = getattr(point, "algorithm", None)
            if name is not None:
                get_algorithm(name)
        started = time.perf_counter()
        tracer = current_tracer()
        traced = tracer.enabled

        pairs: list[tuple[Any, float] | None] = [None] * len(points)
        keys: list[str | None] = [None] * len(points)
        span_dicts: list[list[dict] | None] = [None] * len(points)
        with tracer.span(
            SPAN_SWEEP, points=len(points), workers=self.workers
        ) as sweep_span:
            if self.store is not None:
                for i, point in enumerate(points):
                    payload = point_key_payload(point, evaluate)
                    if payload is None:
                        continue
                    keys[i] = self.store.key(KIND_POINT, payload)
                    cached = self.store.get(KIND_POINT, keys[i])
                    if isinstance(cached, dict) and "value" in cached:
                        pairs[i] = (cached["value"], 0.0)
            hits = sum(1 for pair in pairs if pair is not None)
            pending = [i for i, pair in enumerate(pairs) if pair is None]
            if hits:
                _LOG.info(
                    "point store served %d/%d sweep points; evaluating %d",
                    hits,
                    len(points),
                    len(pending),
                )

            def persist(i: int, pair: tuple[Any, float]) -> None:
                if self.store is None or keys[i] is None:
                    return
                try:
                    self.store.put(KIND_POINT, keys[i], {"value": pair[0]})
                except (ConfigurationError, TypeError):
                    keys[i] = None  # value not JSON-representable: skip caching

            if self.workers == 1 or len(pending) <= 1:
                for i in pending:
                    if traced:
                        value, seconds, span_dicts[i] = _timed_traced(
                            evaluate, points[i], i
                        )
                        pairs[i] = (value, seconds)
                    else:
                        pairs[i] = _timed(evaluate, points[i])
                    persist(i, pairs[i])
            else:
                self._run_pool(
                    points,
                    pending,
                    evaluate,
                    pairs,
                    persist,
                    span_dicts if traced else None,
                )
            if traced:
                _stitch_spans(tracer, sweep_span, pairs, keys, span_dicts)
            if sweep_span is not None:
                sweep_span.attributes["evaluated"] = len(pending)
                sweep_span.attributes["store_hits"] = hits

        if self.metrics is not None:
            self.metrics.count(COUNTER_POINTS_EVALUATED, len(pending))
            if self.store is not None:
                self.metrics.count(COUNTER_POINT_STORE_HITS, hits)
                self.metrics.count(COUNTER_POINT_STORE_MISSES, len(pending))
            self.metrics.timers[TIMER_POINT_SECONDS] = self.metrics.timers.get(
                TIMER_POINT_SECONDS, 0.0
            ) + sum(seconds for _, seconds in pairs)  # type: ignore[misc]
            self.metrics.timers[TIMER_RUN] = (
                self.metrics.timers.get(TIMER_RUN, 0.0)
                + time.perf_counter()
                - started
            )
        return [value for value, _ in pairs]  # type: ignore[misc]

    def _run_pool(
        self,
        points: list[Any],
        pending: list[int],
        evaluate: Callable[[Any], Any],
        pairs: list[tuple[Any, float] | None],
        persist: Callable[[int, tuple[Any, float]], None],
        span_dicts: list[list[dict] | None] | None = None,
    ) -> None:
        """Fan the pending points over a process pool, surviving worker death.

        Points are submitted individually and consumed as they complete,
        so every finished value is persisted immediately — a killed
        sweep keeps its completed points.  If the pool breaks (a worker
        died), already-finished futures are salvaged and the remainder
        is re-evaluated inline (safe: points are deterministic and
        side-effect free).  Ordinary exceptions raised by ``evaluate``
        itself still propagate — only pool breakage triggers the retry.

        With ``span_dicts`` given (the parent has an enabled tracer),
        workers run :func:`_timed_traced` and ship their serialized span
        trees back alongside the value; the slot layout mirrors
        ``pairs`` so the caller can stitch them in input order.
        """

        def take(i: int, result: Any) -> tuple[Any, float]:
            if span_dicts is None:
                return result
            value, seconds, span_dicts[i] = result
            return (value, seconds)

        def submit(pool: ProcessPoolExecutor, i: int) -> Any:
            if span_dicts is None:
                return pool.submit(_timed, evaluate, points[i])
            return pool.submit(_timed_traced, evaluate, points[i], i)

        futures: dict[Any, int] = {}
        try:
            with self._round_pool(pending) as pool:
                futures = {submit(pool, i): i for i in pending}
                for future in as_completed(futures):
                    i = futures[future]
                    pairs[i] = take(i, future.result())
                    persist(i, pairs[i])
        except BrokenProcessPool:
            self._drop_pool()
            for future, i in futures.items():
                if pairs[i] is None and future.done() and not future.cancelled():
                    try:
                        pairs[i] = take(i, future.result())
                    except Exception:
                        # The future carries the pool breakage (its worker
                        # died mid-point): nothing to salvage, the inline
                        # pass below re-evaluates it.  Only Exception is
                        # absorbed — KeyboardInterrupt/SystemExit during
                        # salvage must still abort the sweep.
                        _LOG.warning(
                            "no salvageable result for sweep point %d; "
                            "re-evaluating inline",
                            i,
                        )
                        continue
                    persist(i, pairs[i])
            remaining = [i for i in pending if pairs[i] is None]
            _LOG.warning(
                "worker pool died after %d/%d sweep points; "
                "re-evaluating the remaining %d inline",
                len(pending) - len(remaining),
                len(pending),
                len(remaining),
            )
            for i in remaining:
                if span_dicts is None:
                    pairs[i] = _timed(evaluate, points[i])
                else:
                    pairs[i] = take(i, _timed_traced(evaluate, points[i], i))
                persist(i, pairs[i])
                # Counted per completed retry (not len(remaining) up
                # front), so a retry that raises leaves the counter equal
                # to the retries that actually finished.
                if self.metrics is not None:
                    self.metrics.count(COUNTER_POINTS_RETRIED_INLINE)

    def __repr__(self) -> str:
        return f"ParallelRunner(workers={self.workers})"
