"""Experiment runner: registered algorithms over seeded workloads.

The comparison metric throughout Section 6 is "the average response times
of the schedules produced by the algorithms over all queries of the same
size".  :func:`prepare_workload` draws a query cohort and binds it to an
immutable cost annotation; :func:`schedule_query` runs one registered
algorithm on one query; :func:`average_response_time` evaluates one
algorithm at one sweep point.

Algorithm dispatch goes through :mod:`repro.engine.registry` — the
experiment layer knows no algorithm names of its own.

Sharing model: the *structural* workload (query trees drawn from the
seeded generator) is cached per ``(n_joins, n_queries, seed)`` and
shared by every caller, never copied and never annotated in place.
Cost annotations are separate immutable
:class:`~repro.cost.annotate.PlanAnnotation` side tables, one per
``(workload, SystemParameters)`` pair, cached in a small in-process LRU
(size via ``REPRO_WORKLOAD_CACHE_SIZE``) and optionally in the
content-addressed :mod:`repro.store`.  Because nothing mutates the
shared trees, the historical per-call ``copy.deepcopy`` is gone: a
sensitivity sweep scaling one cost parameter gets a fresh annotation
view while every other caller keeps reading its own.
"""

from __future__ import annotations

import math
import os
from collections import OrderedDict
from collections.abc import Iterator, Sequence

from repro.exceptions import ConfigurationError
from repro.engine.metrics import MetricsRecorder
from repro.core.cluster import ClusterSpec
from repro.engine.registry import ScheduleRequest, available_algorithms, get_algorithm
from repro.engine.result import ScheduleResult
from repro.cost.annotate import AnnotatedQuery, PlanAnnotation, compute_plan_annotation
from repro.cost.params import PAPER_PARAMETERS, SystemParameters
from repro.obs.names import COUNTER_STORE_HITS, COUNTER_STORE_MISSES
from repro.plans.generator import GeneratedQuery, generate_workload
from repro.store import KIND_ANNOTATION, KIND_RESULT, ArtifactStore, resolve_store

__all__ = [
    "ALGORITHMS",
    "ENV_WORKLOAD_CACHE_SIZE",
    "prepare_workload",
    "schedule_query",
    "response_time",
    "average_response_time",
]


class _AlgorithmsView(Sequence[str]):
    """Deprecated live view of the registry's algorithm names.

    ``runner.ALGORITHMS`` was historically a tuple snapshotted at import
    time, so algorithms registered afterwards never appeared in it.  The
    name survives as this lazy sequence over
    :func:`~repro.engine.registry.available_algorithms`; new code should
    call the registry function directly.
    """

    def _names(self) -> tuple[str, ...]:
        return available_algorithms()

    def __iter__(self) -> Iterator[str]:
        return iter(self._names())

    def __len__(self) -> int:
        return len(self._names())

    def __getitem__(self, index):  # slices supported like a tuple's
        return self._names()[index]

    def __contains__(self, name: object) -> bool:
        return name in self._names()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _AlgorithmsView):
            return self._names() == other._names()
        if isinstance(other, (tuple, list)):
            return self._names() == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._names())

    def __repr__(self) -> str:
        return f"ALGORITHMS{self._names()!r}"


#: Deprecated alias: live, lazily-resolved registry view (see above).
ALGORITHMS = _AlgorithmsView()

#: Environment variable sizing the in-process annotated-workload LRU.
ENV_WORKLOAD_CACHE_SIZE = "REPRO_WORKLOAD_CACHE_SIZE"

_DEFAULT_CACHE_SIZE = 64

#: ``(n_joins, n_queries, seed)`` -> shared structural query cohort.
#: These trees are never annotated in place and never handed out copied;
#: immutability is enforced by the write-once spec contract
#: (:class:`~repro.exceptions.ImmutableAnnotationError`).
_STRUCTURAL_CACHE: OrderedDict[
    tuple[int, int, int], tuple[GeneratedQuery, ...]
] = OrderedDict()

#: ``(workload key, SystemParameters)`` -> per-query annotation views.
_ANNOTATION_CACHE: OrderedDict[
    tuple[tuple[int, int, int], SystemParameters], tuple[PlanAnnotation, ...]
] = OrderedDict()


def _cache_size() -> int:
    raw = os.environ.get(ENV_WORKLOAD_CACHE_SIZE)
    if raw is None:
        return _DEFAULT_CACHE_SIZE
    try:
        size = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{ENV_WORKLOAD_CACHE_SIZE} must be a positive integer, got {raw!r}"
        ) from None
    if size < 1:
        raise ConfigurationError(
            f"{ENV_WORKLOAD_CACHE_SIZE} must be a positive integer, got {raw!r}"
        )
    return size


def _lru_get(cache: OrderedDict, key):
    try:
        cache.move_to_end(key)
        return cache[key]
    except KeyError:
        return None


def _lru_put(cache: OrderedDict, key, value) -> None:
    cache[key] = value
    cache.move_to_end(key)
    limit = _cache_size()
    while len(cache) > limit:
        cache.popitem(last=False)


def _structural_workload(
    n_joins: int, n_queries: int, seed: int
) -> tuple[GeneratedQuery, ...]:
    key = (n_joins, n_queries, seed)
    cohort = _lru_get(_STRUCTURAL_CACHE, key)
    if cohort is None:
        cohort = tuple(generate_workload(n_joins, n_queries, seed))
        _lru_put(_STRUCTURAL_CACHE, key, cohort)
    return cohort


def _annotation_store_payload(
    workload_key: tuple[int, int, int], params: SystemParameters
) -> dict:
    from repro.serialization import system_parameters_to_dict

    n_joins, n_queries, seed = workload_key
    return {
        "workload": {"n_joins": n_joins, "n_queries": n_queries, "seed": seed},
        "params": system_parameters_to_dict(params),
    }


def _annotations_from_store(
    store: ArtifactStore,
    key: str,
    cohort: tuple[GeneratedQuery, ...],
    params: SystemParameters,
) -> tuple[PlanAnnotation, ...] | None:
    """Rebuild the cohort's annotation views from a store entry.

    Any mismatch with the structural cohort (count, operator names)
    means the entry belongs to a different generator version and is
    treated as a miss.
    """
    from repro.serialization import operator_spec_from_dict

    value = store.get(KIND_ANNOTATION, key)
    if not isinstance(value, dict):
        return None
    payload = value.get("queries")
    if not isinstance(payload, list) or len(payload) != len(cohort):
        return None
    annotations = []
    try:
        for query, spec_dicts in zip(cohort, payload):
            specs = {
                name: operator_spec_from_dict(d) for name, d in spec_dicts.items()
            }
            if set(specs) != {op.name for op in query.operator_tree.operators}:
                return None
            annotations.append(
                PlanAnnotation(
                    op_tree=query.operator_tree, params=params, specs=specs
                )
            )
    except (ConfigurationError, AttributeError, TypeError):
        return None
    return tuple(annotations)


def _cohort_annotations(
    cohort: tuple[GeneratedQuery, ...],
    workload_key: tuple[int, int, int],
    params: SystemParameters,
    store: ArtifactStore | None,
) -> tuple[PlanAnnotation, ...]:
    cache_key = (workload_key, params)
    annotations = _lru_get(_ANNOTATION_CACHE, cache_key)
    if annotations is not None:
        return annotations
    key = None
    if store is not None:
        key = store.key(KIND_ANNOTATION, _annotation_store_payload(workload_key, params))
        annotations = _annotations_from_store(store, key, cohort, params)
    if annotations is None:
        annotations = tuple(
            compute_plan_annotation(query.operator_tree, params) for query in cohort
        )
        if store is not None and key is not None:
            from repro.serialization import operator_spec_to_dict

            store.put(
                KIND_ANNOTATION,
                key,
                {
                    "queries": [
                        {
                            name: operator_spec_to_dict(spec)
                            for name, spec in annotation.items()
                        }
                        for annotation in annotations
                    ]
                },
            )
    _lru_put(_ANNOTATION_CACHE, cache_key, annotations)
    return annotations


def prepare_workload(
    n_joins: int,
    n_queries: int,
    seed: int,
    params: SystemParameters = PAPER_PARAMETERS,
    *,
    store: ArtifactStore | None = None,
) -> tuple[AnnotatedQuery, ...]:
    """Draw a reproducible cohort and bind it to an immutable annotation.

    Returns one :class:`~repro.cost.annotate.AnnotatedQuery` per query:
    the *shared* structural query (cached per ``(n_joins, n_queries,
    seed)``; never copied) paired with the frozen
    :class:`~repro.cost.annotate.PlanAnnotation` for ``params``.  Two
    calls differing only in ``params`` share every tree object but see
    independent annotations, so re-annotation can never leak between
    callers — the write-once spec contract makes any attempt to rewrite
    a shared tree raise
    :class:`~repro.exceptions.ImmutableAnnotationError` instead.

    ``store`` (or the ``REPRO_CACHE_DIR`` environment default) caches
    the computed annotations content-addressed on disk; pass
    :data:`repro.store.NO_STORE` to force recomputation.
    """
    cohort = _structural_workload(n_joins, n_queries, seed)
    annotations = _cohort_annotations(
        cohort, (n_joins, n_queries, seed), params, resolve_store(store)
    )
    return tuple(
        AnnotatedQuery(query=query, annotation=annotation)
        for query, annotation in zip(cohort, annotations)
    )


def _result_store_payload(
    algorithm: str,
    cache_key: dict,
    *,
    p: int,
    f: float,
    epsilon: float,
    params: SystemParameters,
    cluster: "ClusterSpec | None" = None,
) -> dict:
    from repro.serialization import cluster_spec_to_dict, system_parameters_to_dict

    payload = {
        "algorithm": algorithm,
        "query": cache_key,
        "p": p,
        "f": f,
        "epsilon": epsilon,
        "params": system_parameters_to_dict(params),
    }
    # A uniform cluster is the homogeneous cluster: omitting it keeps the
    # key — and therefore the warm cache — identical to runs that never
    # mentioned a cluster at all.
    if cluster is not None and not cluster.is_uniform():
        payload["cluster"] = cluster_spec_to_dict(cluster)
    return payload


def schedule_query(
    algorithm: str,
    query: AnnotatedQuery | GeneratedQuery,
    *,
    p: int,
    f: float,
    epsilon: float,
    params: SystemParameters = PAPER_PARAMETERS,
    metrics: MetricsRecorder | None = None,
    store: ArtifactStore | None = None,
    cache_key: dict | None = None,
    cluster: "ClusterSpec | None" = None,
) -> ScheduleResult:
    """Run one registered algorithm on one annotated query.

    Parameters
    ----------
    algorithm:
        Any name in :func:`repro.engine.registry.available_algorithms`
        (``"treeschedule"``, ``"synchronous"``, ``"hong"``,
        ``"optbound"``, ``"onedim"``, ``"malleable"``, plus anything
        registered by the caller).
    query:
        An :class:`~repro.cost.annotate.AnnotatedQuery` from
        :func:`prepare_workload` (its annotation is re-derived via the
        immutable ``with_params`` path when ``params`` differs), or a
        legacy :class:`~repro.plans.generator.GeneratedQuery` whose tree
        was annotated in place.
    p:
        Number of sites.
    f:
        Granularity parameter (ignored by algorithms that do not respect
        granularity, e.g. ``synchronous`` and ``malleable``).
    epsilon:
        Resource-overlap parameter (EA2).
    params:
        Table 2 system parameters (supplies the communication model).
    metrics:
        Optional recorder threaded into the algorithm.
    store, cache_key:
        When both are given, the full
        :class:`~repro.engine.result.ScheduleResult` is cached in the
        content-addressed store under ``cache_key`` (a JSON-safe dict
        identifying the query, e.g. workload coordinates plus index);
        hits skip the scheduler entirely and are tagged in the result's
        instrumentation counters (``store_hits`` / ``store_misses``).
    cluster:
        Optional :class:`~repro.core.cluster.ClusterSpec` for a
        heterogeneous cluster; its site count must equal ``p``.  A
        non-uniform spec is folded into the store key, so heterogeneous
        results never alias homogeneous ones.

    Raises
    ------
    ConfigurationError
        If ``algorithm`` is not registered.
    """
    scheduler = get_algorithm(algorithm)
    annotation = None
    if isinstance(query, AnnotatedQuery):
        annotation = query.annotation.with_params(params)
        query = query.query

    store = resolve_store(store) if cache_key is not None else None
    key = None
    if store is not None and cache_key is not None:
        from repro.serialization import schedule_result_from_dict

        payload = _result_store_payload(
            algorithm, cache_key, p=p, f=f, epsilon=epsilon, params=params,
            cluster=cluster,
        )
        key = store.key(KIND_RESULT, payload)
        cached = store.get(KIND_RESULT, key)
        if cached is not None:
            try:
                result = schedule_result_from_dict(cached)
            except ConfigurationError:
                result = None
            if result is not None:
                result.instrumentation.counters[COUNTER_STORE_HITS] = (
                    result.instrumentation.counters.get(COUNTER_STORE_HITS, 0.0) + 1.0
                )
                if metrics is not None:
                    metrics.count(COUNTER_STORE_HITS)
                return result

    request = ScheduleRequest(
        p=p, f=f, epsilon=epsilon, params=params, metrics=metrics,
        annotation=annotation, cluster=cluster,
    )
    result = scheduler(query, request)
    if store is not None and key is not None:
        from repro.serialization import schedule_result_to_dict

        result.instrumentation.counters[COUNTER_STORE_MISSES] = (
            result.instrumentation.counters.get(COUNTER_STORE_MISSES, 0.0) + 1.0
        )
        if metrics is not None:
            metrics.count(COUNTER_STORE_MISSES)
        store.put(KIND_RESULT, key, schedule_result_to_dict(result))
    return result


def response_time(
    algorithm: str,
    query: AnnotatedQuery | GeneratedQuery,
    *,
    p: int,
    f: float,
    epsilon: float,
    params: SystemParameters = PAPER_PARAMETERS,
    cluster: "ClusterSpec | None" = None,
) -> float:
    """Evaluate one algorithm on one annotated query (headline number)."""
    result = schedule_query(
        algorithm, query, p=p, f=f, epsilon=epsilon, params=params,
        cluster=cluster,
    )
    return result.makespan


def average_response_time(
    algorithm: str,
    queries: Sequence[AnnotatedQuery | GeneratedQuery],
    *,
    p: int,
    f: float,
    epsilon: float,
    params: SystemParameters = PAPER_PARAMETERS,
    cluster: "ClusterSpec | None" = None,
) -> float:
    """Average :func:`response_time` over a query cohort."""
    if not queries:
        raise ConfigurationError("query cohort is empty")
    times = [
        response_time(
            algorithm, q, p=p, f=f, epsilon=epsilon, params=params,
            cluster=cluster,
        )
        for q in queries
    ]
    return math.fsum(times) / len(times)
