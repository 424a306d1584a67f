"""Per-run trace sessions: trace.json + events.jsonl + manifest.json.

A :class:`TraceSession` is the CLI-facing bundle of the observability
subsystem.  Entering it installs an enabled
:class:`~repro.obs.tracer.Tracer` as the ambient tracer (so every span
hook in the engine, kernels, simulator, and parallel runner lights up)
and opens a JSONL event log; exiting it writes three artifacts into the
trace directory:

``trace.json``
    Chrome trace-event / Perfetto JSON of the full span forest plus any
    extra timeline events registered with :meth:`TraceSession.add_events`
    (e.g. simulator timelines from :mod:`repro.obs.timeline`).
``events.jsonl``
    The structured event log — one JSON object per line, append-only,
    flushed as written, so a killed run keeps its prefix.
``manifest.json``
    The :class:`RunManifest`: what ran (target, argv, config and its
    content hash), where (interpreter, platform, numpy, git describe),
    with what cache traffic (store stats and the content keys of every
    sweep point the run touched), and a per-name span-time summary.

Nothing here writes to **stdout** — the byte-identity contract of the
experiment CLI (same figure bytes with tracing on or off) is enforced by
construction: trace output goes to files, diagnostics to stderr.

The manifest's ``config_hash`` is :func:`repro.store.content_key` over
the embedded config payload, i.e. the same hashing scheme (schema tag +
canonical JSON + SHA-256) that addresses the artifact store — so CI can
recompute it from the manifest alone, and the recorded ``point_keys``
can be checked against the store's ``point/`` entries byte-for-byte.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, TYPE_CHECKING

from repro.obs.export import tracer_events, validate_trace_events, write_trace
from repro.obs.tracer import Tracer, use_tracer
from repro.store import content_key, to_jsonable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import ArtifactStore

__all__ = [
    "MANIFEST_SCHEMA",
    "TRACE_FILE",
    "EVENTS_FILE",
    "MANIFEST_FILE",
    "RunManifest",
    "RunLog",
    "TraceSession",
    "git_describe",
    "collect_point_keys",
]

#: Schema tag of ``manifest.json`` (bump on incompatible layout changes).
MANIFEST_SCHEMA = "repro-manifest/1"

#: File names inside a trace directory.
TRACE_FILE = "trace.json"
EVENTS_FILE = "events.jsonl"
MANIFEST_FILE = "manifest.json"

#: Content-key kind under which config hashes are computed.  Not a store
#: kind (nothing is stored under it) — it only namespaces the digest.
_CONFIG_KIND = "manifest-config"


def git_describe(cwd: str | os.PathLike[str] | None = None) -> str | None:
    """``git describe --always --dirty`` of the repo around ``cwd``.

    Returns ``None`` when git is unavailable or ``cwd`` is not inside a
    work tree — manifests must be writable from an installed package.
    """
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def _numpy_version() -> str | None:
    """Installed numpy version, or ``None`` (numpy is an optional extra)."""
    try:
        import numpy
    except Exception:  # pragma: no cover - depends on the environment
        return None
    return getattr(numpy, "__version__", None)


def collect_point_keys(tracer: Tracer) -> list[str]:
    """Store content keys of every sweep point the traced run touched.

    The parallel runner stamps each ``point`` span with the point's
    ``store_key`` attribute (when a store is attached); this gathers
    them, deduplicated and sorted, for the manifest — the hook CI uses
    to cross-check the manifest against the store's ``point/`` entries.
    """
    keys = {
        span.attributes["store_key"]
        for span in tracer.iter_spans()
        if span.name == "point" and span.attributes.get("store_key")
    }
    return sorted(keys)


@dataclass
class RunManifest:
    """Everything needed to identify, reproduce, and audit one run.

    Attributes
    ----------
    target, argv:
        What was asked for (experiment target and the full CLI argv).
    config:
        Canonical-JSON-ready payload of the experiment config (already
        passed through :func:`repro.store.to_jsonable`), or ``None``
        for targets that take no config.
    config_hash:
        :func:`repro.store.content_key` over :attr:`config` — the same
        schema-tagged SHA-256 scheme the artifact store uses, so the
        hash is recomputable from the manifest alone.
    seed:
        Workload seed of the run (from the config when present).
    git, python_version, implementation, platform, numpy_version:
        Environment provenance.
    store_root, store_stats:
        Cache directory and hit/miss/write accounting (``None`` / empty
        when no store was attached).
    point_keys:
        Content keys of the sweep points this run read or wrote in the
        store (see :func:`collect_point_keys`).
    span_summary:
        Per-span-name ``{"count", "seconds"}`` aggregate from
        :meth:`repro.obs.tracer.Tracer.summary`.
    wall_seconds:
        Wall-clock duration of the session (enter to exit).
    """

    target: str
    argv: list[str] = field(default_factory=list)
    config: Any = None
    config_hash: str | None = None
    seed: int | None = None
    git: str | None = None
    python_version: str = ""
    implementation: str = ""
    platform: str = ""
    numpy_version: str | None = None
    store_root: str | None = None
    store_stats: dict[str, int] = field(default_factory=dict)
    point_keys: list[str] = field(default_factory=list)
    span_summary: dict[str, dict[str, float]] = field(default_factory=dict)
    wall_seconds: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict view, schema-tagged, ready for ``json.dump``."""
        return {
            "schema": MANIFEST_SCHEMA,
            "target": self.target,
            "argv": list(self.argv),
            "config": self.config,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "git": self.git,
            "python_version": self.python_version,
            "implementation": self.implementation,
            "platform": self.platform,
            "numpy_version": self.numpy_version,
            "store_root": self.store_root,
            "store_stats": dict(self.store_stats),
            "point_keys": list(self.point_keys),
            "span_summary": {
                name: dict(entry) for name, entry in self.span_summary.items()
            },
            "wall_seconds": self.wall_seconds,
        }


class RunLog:
    """Append-only JSONL event log, flushed per event.

    Each :meth:`emit` call writes one JSON object line with the event
    name and a ``t`` offset (seconds since the log was opened, monotonic
    clock), so a killed run keeps every event it got to.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = Path(path)
        self._fh = open(self.path, "w", encoding="utf-8")
        self._start = time.perf_counter()

    def emit(self, event: str, **fields: Any) -> None:
        """Append one event line (silently dropped after :meth:`close`)."""
        if self._fh.closed:
            return
        record = {
            "event": event,
            "t": round(time.perf_counter() - self._start, 6),
            **fields,
        }
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


class TraceSession:
    """One traced CLI run: ambient tracer + event log + trace artifacts.

    Usage::

        with TraceSession("/tmp/t", target="fig6a", argv=sys.argv[1:],
                          config=config) as session:
            ...   # spans record through the ambient tracer
            session.log.emit("figure", name="fig6a", seconds=elapsed)
        # exit wrote trace.json, manifest.json; events.jsonl is closed

    Parameters
    ----------
    trace_dir:
        Directory receiving the three artifacts (created if missing).
        ``None`` runs the session *without* file output — tracing is
        still enabled and :meth:`summary_lines` still works (the CLI's
        bare ``--trace`` mode, which prints the summary to stderr).
    target, argv:
        Recorded verbatim in the manifest.
    config:
        An :class:`~repro.experiments.config.ExperimentConfig` (or any
        dataclass) hashed into ``config_hash`` via the store's canonical
        JSON; ``None`` for config-free targets.
    store:
        The run's :class:`~repro.store.ArtifactStore`, read at exit for
        stats (pass the live object; it is not used for storage here).
    """

    def __init__(
        self,
        trace_dir: str | os.PathLike[str] | None,
        *,
        target: str,
        argv: list[str] | None = None,
        config: Any = None,
        store: "ArtifactStore | None" = None,
    ) -> None:
        self.trace_dir = None if trace_dir is None else Path(trace_dir)
        self.target = target
        self.argv = list(argv) if argv else []
        self.config = config
        self.store = store
        self.tracer = Tracer(enabled=True)
        self.log: RunLog | None = None
        #: Extra trace events (simulator timelines, ...) merged into
        #: ``trace.json`` after the span events.
        self.extra_events: list[dict[str, Any]] = []
        self._cm: Any = None
        self._started = 0.0

    # ------------------------------------------------------------------
    # Context manager
    # ------------------------------------------------------------------
    def __enter__(self) -> "TraceSession":
        self._started = time.perf_counter()
        if self.trace_dir is not None:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
            self.log = RunLog(self.trace_dir / EVENTS_FILE)
            self.log.emit("run_start", target=self.target, argv=self.argv)
        self._cm = use_tracer(self.tracer)
        self._cm.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._cm.__exit__(exc_type, exc, tb)
        if self.log is not None:
            self.log.emit(
                "run_end",
                ok=exc_type is None,
                spans=sum(1 for _ in self.tracer.iter_spans()),
            )
        if self.trace_dir is not None:
            self.write_artifacts()
        if self.log is not None:
            self.log.close()
        return False

    # ------------------------------------------------------------------
    # Events & artifacts
    # ------------------------------------------------------------------
    def add_events(self, events: list[dict[str, Any]]) -> None:
        """Merge extra (already trace-formatted) events into ``trace.json``."""
        self.extra_events.extend(events)

    def trace_events(self) -> list[dict[str, Any]]:
        """Span events of this run's tracer plus the registered extras."""
        events = tracer_events(
            self.tracer, pid=0, process_name="repro", thread_name=self.target
        )
        events.extend(self.extra_events)
        return events

    def build_manifest(self) -> RunManifest:
        """Assemble the :class:`RunManifest` from the session's state."""
        config_payload = None
        config_hash = None
        seed = None
        if self.config is not None:
            config_payload = to_jsonable(self.config)
            config_hash = content_key(_CONFIG_KIND, config_payload)
            seed = getattr(self.config, "seed", None)
        stats: dict[str, int] = {}
        root: str | None = None
        if self.store is not None and hasattr(self.store, "stats"):
            stats = self.store.stats.snapshot()
            root = str(self.store.root)
        return RunManifest(
            target=self.target,
            argv=self.argv,
            config=config_payload,
            config_hash=config_hash,
            seed=seed,
            git=git_describe(),
            python_version=sys.version,
            implementation=platform.python_implementation(),
            platform=platform.platform(),
            numpy_version=_numpy_version(),
            store_root=root,
            store_stats=stats,
            point_keys=collect_point_keys(self.tracer),
            span_summary=self.tracer.summary(),
            wall_seconds=time.perf_counter() - self._started,
        )

    def write_artifacts(self) -> None:
        """Write ``trace.json`` and ``manifest.json`` into the trace dir.

        The trace is schema-checked before writing; problems are a bug
        in an exporter, so they raise rather than emit a broken file.
        """
        assert self.trace_dir is not None
        events = self.trace_events()
        problems = validate_trace_events({"traceEvents": events})
        if problems:  # pragma: no cover - exporter invariant
            raise ValueError(
                f"refusing to write invalid trace: {problems[:3]}"
            )
        write_trace(str(self.trace_dir / TRACE_FILE), events)
        manifest = self.build_manifest()
        with open(self.trace_dir / MANIFEST_FILE, "w", encoding="utf-8") as fh:
            json.dump(manifest.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def summary_lines(self) -> list[str]:
        """Human-readable per-span-name summary (for stderr reporting)."""
        summary = self.tracer.summary()
        if not summary:
            return ["[trace] no spans recorded"]
        width = max(len(name) for name in summary)
        lines = ["[trace] span summary (name, count, total seconds):"]
        for name, entry in summary.items():
            lines.append(
                f"[trace]   {name.ljust(width)}  "
                f"{int(entry['count']):6d}  {entry['seconds']:.6f}s"
            )
        return lines

    def __repr__(self) -> str:
        where = str(self.trace_dir) if self.trace_dir else "no files"
        return f"TraceSession({self.target!r}, {where})"
