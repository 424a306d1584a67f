"""Content-addressed artifact store: cached, resumable experiments.

See :mod:`repro.store.artifact_store` for the model.  The experiment
layer (:mod:`repro.experiments`) consults a store — explicitly passed or
named by the ``REPRO_CACHE_DIR`` environment variable — for annotated
workload cohorts, schedule results, and sweep-point values; a killed
sweep restarted with the same cache directory recomputes only the
missing points.
"""

from repro.store.artifact_store import (
    ENV_CACHE_DIR,
    KIND_ANNOTATION,
    KIND_PLAN,
    KIND_POINT,
    KIND_RESULT,
    NO_STORE,
    STORE_SCHEMA,
    ArtifactStore,
    StoreStats,
    canonical_json,
    content_key,
    default_store,
    point_key_payload,
    resolve_store,
    to_jsonable,
)

__all__ = [
    "STORE_SCHEMA",
    "ENV_CACHE_DIR",
    "KIND_ANNOTATION",
    "KIND_RESULT",
    "KIND_POINT",
    "KIND_PLAN",
    "NO_STORE",
    "ArtifactStore",
    "StoreStats",
    "canonical_json",
    "content_key",
    "default_store",
    "resolve_store",
    "point_key_payload",
    "to_jsonable",
]
