"""Content-addressed on-disk artifact store for experiment artifacts.

Every cacheable artifact of the experiment layer — annotated workload
cohorts, :class:`~repro.engine.result.ScheduleResult` payloads, sweep
point values — is a *pure function* of its coordinates: workload
``(n_joins, n_queries, seed)``, the Table 2
:class:`~repro.cost.params.SystemParameters`, the algorithm name and the
``(p, f, epsilon)`` sweep coordinates.  The store addresses artifacts by
the SHA-256 of the canonical JSON of those coordinates (plus a schema
version), so

* equal coordinates always map to the same on-disk entry, in any
  process, on any machine, across interpreter runs;
* changing *any* coordinate — or bumping :data:`STORE_SCHEMA` when the
  meaning of an artifact changes — changes the key, so stale entries are
  never observed, only orphaned.

Robustness contract: the store is a pure cache.  A missing, truncated,
corrupt, or foreign-schema entry behaves exactly like a miss (the value
is recomputed and rewritten); writes are atomic (``tmp`` + ``rename``)
so a killed sweep never leaves a half-written entry that would poison a
resumed run.  Deleting the cache directory is always safe.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import tempfile
from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import Any, Callable

from repro.exceptions import ConfigurationError

__all__ = [
    "STORE_SCHEMA",
    "ENV_CACHE_DIR",
    "KIND_ANNOTATION",
    "KIND_RESULT",
    "KIND_POINT",
    "KIND_PLAN",
    "NO_STORE",
    "StoreStats",
    "ArtifactStore",
    "canonical_json",
    "content_key",
    "default_store",
    "resolve_store",
    "point_key_payload",
    "to_jsonable",
]

#: Version tag baked into every content key and every stored envelope.
#: Bump it whenever the *meaning* of an artifact changes (cost model,
#: workload generator, result serialization, ...): old entries become
#: unreachable orphans instead of wrong answers.
#: ``/2``: schedule payloads gained optional site capacities and result
#: keys may carry a cluster spec — pre-capacity entries are orphaned.
STORE_SCHEMA = "repro-store/2"

#: Environment variable naming the default cache directory.  Set by the
#: CLI's ``--cache-dir`` so forked sweep workers inherit the store.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Artifact kinds (the first path component under the store root).
KIND_ANNOTATION = "annotation"
KIND_RESULT = "result"
KIND_POINT = "point"
KIND_PLAN = "plan"


class _NoStore:
    """Sentinel: caching explicitly disabled (beats the env default)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NO_STORE"


#: Pass as a ``store`` argument to force caching off even when
#: :data:`ENV_CACHE_DIR` is set (the CLI's ``--no-cache``).
NO_STORE = _NoStore()


def to_jsonable(value: Any) -> Any:
    """Recursively convert ``value`` into canonical-JSON-ready data.

    Dataclasses become field dicts, mappings become dicts with string
    keys, sequences become lists, enums their values.  Anything else
    that JSON cannot represent raises
    :class:`~repro.exceptions.ConfigurationError` — content keys must
    never silently depend on ``repr`` strings or object identity.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return to_jsonable(value.value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: to_jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise ConfigurationError(
                    f"content-key mapping keys must be strings, got {key!r}"
                )
            out[key] = to_jsonable(item)
        return out
    if isinstance(value, (list, tuple)) or (
        isinstance(value, Sequence) and not isinstance(value, (bytes, bytearray))
    ):
        return [to_jsonable(item) for item in value]
    raise ConfigurationError(
        f"value of type {type(value).__name__} cannot appear in a content key"
    )


#: Leaf types the key check skips by exact type, before the slower
#: ``isinstance`` test against :data:`_CONTAINERS`.
_SCALARS = frozenset({str, int, float, bool, type(None)})

#: What the C encoder walks natively, subclasses included.
_CONTAINERS = (dict, list, tuple)


def _check_keys(value: dict | list | tuple) -> None:
    """Reject non-string mapping keys in ``value``'s native containers.

    ``json.dumps`` silently turns ``int``/``float``/``bool``/``None``
    keys into strings, so without this walk ``{1: x}`` and ``{"1": x}``
    would share one content key.  Only dicts, lists and tuples (and
    their subclasses) are descended: every other object reaches
    :func:`to_jsonable`, which checks its own keys.
    """
    if isinstance(value, dict):
        for key, item in value.items():
            if type(key) is not str and not isinstance(key, str):
                raise ConfigurationError(
                    f"content-key mapping keys must be strings, got {key!r}"
                )
            if type(item) not in _SCALARS and isinstance(item, _CONTAINERS):
                _check_keys(item)
    else:
        for item in value:
            if type(item) not in _SCALARS and isinstance(item, _CONTAINERS):
                _check_keys(item)


def canonical_json(payload: Any) -> str:
    """The one canonical JSON text of ``payload``.

    Sorted keys, no whitespace, NaN/Infinity rejected: two payloads are
    equal exactly when their canonical JSON bytes are equal, which is
    what makes SHA-256 over this text a sound content address.

    One pass of the C encoder: plain JSON data never touches Python
    code, and only objects JSON cannot encode natively (dataclasses,
    plain enums, other mappings and sequences) go through
    :func:`to_jsonable`.  The bytes equal those of encoding
    ``to_jsonable(payload)``.
    """
    try:
        if type(payload) not in _SCALARS and isinstance(payload, _CONTAINERS):
            _check_keys(payload)
        # ``check_circular`` would only duplicate a guard: a cycle
        # already overflows the recursion of ``_check_keys`` or
        # ``to_jsonable`` before encoding starts.
        return json.dumps(
            payload,
            sort_keys=True,
            separators=(",", ":"),
            allow_nan=False,
            check_circular=False,
            default=to_jsonable,
        )
    except ValueError as exc:  # non-finite floats, rejected keys and values
        raise ConfigurationError(f"payload is not canonical-JSON-safe: {exc}") from None


def content_key(kind: str, payload: Any) -> str:
    """SHA-256 content key of ``payload`` under ``kind``.

    The digest covers :data:`STORE_SCHEMA` and ``kind`` alongside the
    payload, so a schema bump or a kind collision can never alias two
    different artifacts onto one entry.
    """
    envelope = {"schema": STORE_SCHEMA, "kind": kind, "payload": payload}
    return hashlib.sha256(canonical_json(envelope).encode("utf-8")).hexdigest()


@dataclasses.dataclass
class StoreStats:
    """Hit/miss/write accounting of one :class:`ArtifactStore`."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0

    def snapshot(self) -> dict[str, int]:
        """Plain-dict view (JSON-friendly)."""
        return dataclasses.asdict(self)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0.0 when none)."""
        return self.hits / self.lookups if self.lookups else 0.0


class ArtifactStore:
    """Content-addressed JSON artifact store rooted at one directory.

    Layout: ``root/<kind>/<first two hex chars>/<sha256>.json``; each
    file is a canonical-JSON envelope carrying the schema tag, kind, key
    and value, so an entry is self-describing and verifiable.

    The store never raises on a bad entry — :meth:`get` answers ``None``
    for missing *and* corrupt entries alike (counted separately in
    :attr:`stats`), and :meth:`put` overwrites atomically, so concurrent
    writers of the same key are harmless (they write identical bytes).
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.stats = StoreStats()

    def key(self, kind: str, payload: Any) -> str:
        """Content key of ``payload`` under ``kind`` (see :func:`content_key`)."""
        return content_key(kind, payload)

    def path_for(self, kind: str, key: str) -> Path:
        """On-disk location of entry ``key`` of ``kind``."""
        return self.root / kind / key[:2] / f"{key}.json"

    def get(self, kind: str, key: str) -> Any | None:
        """The stored value, or ``None`` on miss/corruption."""
        path = self.path_for(kind, key)
        try:
            data = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            # Decode explicitly: ``json.loads`` would sniff bytes for a
            # UTF-16/32 encoding, and a non-UTF-8 entry is corruption
            # (``UnicodeDecodeError`` is a ``ValueError``).
            envelope = json.loads(data.decode("utf-8"))
            if (
                not isinstance(envelope, dict)
                or envelope.get("schema") != STORE_SCHEMA
                or envelope.get("kind") != kind
                or envelope.get("key") != key
            ):
                raise ValueError("envelope mismatch")
            value = envelope["value"]
        except (ValueError, KeyError):
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return value

    def put(self, kind: str, key: str, value: Any) -> Path:
        """Atomically persist ``value`` under ``key``; returns the path.

        The temp file lives in the destination directory so the final
        ``os.replace`` is an atomic same-filesystem rename — a reader (or
        a killed writer) can only ever observe a complete entry.
        """
        path = self.path_for(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {"schema": STORE_SCHEMA, "kind": kind, "key": key, "value": value}
        text = canonical_json(envelope)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.writes += 1
        return path

    def get_or_compute(
        self, kind: str, payload: Any, compute: Callable[[], Any]
    ) -> Any:
        """Look ``payload`` up; on miss, compute, persist, and return."""
        key = self.key(kind, payload)
        value = self.get(kind, key)
        if value is not None:
            return value
        value = compute()
        self.put(kind, key, value)
        return value

    def __repr__(self) -> str:
        return f"ArtifactStore({str(self.root)!r})"


def default_store() -> ArtifactStore | None:
    """The store named by :data:`ENV_CACHE_DIR`, or ``None``."""
    root = os.environ.get(ENV_CACHE_DIR)
    return ArtifactStore(root) if root else None


def resolve_store(
    store: ArtifactStore | _NoStore | None,
) -> ArtifactStore | None:
    """Resolve a ``store=`` argument to an actual store (or ``None``).

    ``None`` (the argument default everywhere) falls back to the
    environment default, so a sweep worker process — which inherits the
    parent's environment but not its objects — finds the same cache
    directory; :data:`NO_STORE` disables caching unconditionally.
    """
    if isinstance(store, _NoStore):
        return None
    if store is not None:
        return store
    return default_store()


def point_key_payload(point: Any, evaluator: Callable[..., Any]) -> dict[str, Any] | None:
    """Content-key payload of one sweep point, or ``None`` if uncacheable.

    A point value is determined by the point's coordinates (a frozen
    dataclass — :class:`~repro.experiments.parallel.SweepPoint`,
    :class:`~repro.experiments.robustness.RobustnessPoint`, or any
    user-defined equivalent) *and* by which evaluator interprets them,
    so both go into the key.  Non-dataclass points and coordinates that
    cannot be canonicalized opt out of caching (``None``) rather than
    risking a collision.
    """
    if not dataclasses.is_dataclass(point) or isinstance(point, type):
        return None
    try:
        coords = to_jsonable(point)
    except ConfigurationError:
        return None
    return {
        "point_type": f"{type(point).__module__}.{type(point).__qualname__}",
        "evaluator": f"{evaluator.__module__}.{evaluator.__qualname__}",
        "coords": coords,
    }
