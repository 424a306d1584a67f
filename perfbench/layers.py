"""Per-layer self time, measured from outside the program.

Each layer is a named set of public functions and methods of ``repro``.
:class:`LayerTracer` wraps every one of them *where its callers look it
up*: a module-level function is replaced in every ``repro`` module
namespace (and every module-level dict, such as the driver's shelf
policy table) that holds it, and a method is replaced on its class.
Nothing under ``src/`` carries a span or timer for this, and
:meth:`LayerTracer.uninstall` puts every original back.

A layer's self time is the wall time of its wrapped calls minus the
wrapped calls nested inside them.  A call into the layer that is already
the innermost open one (``coarse_grain_degree`` calling
``response_optimal_degree``, ``operator_schedule`` calling
``pack_vectors``) belongs to the open call and is not counted again.
Time outside every wrapped call is ``unattributed_s``, so the rows plus
``unattributed_s`` sum to the traced wall time by construction.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field

__all__ = ["COUNTERS", "LAYERS", "Layer", "LayerTracer", "find_wrappers"]

#: Attribute every wrapper carries; :func:`find_wrappers` looks for it.
WRAPPED_MARK = "__perfbench_layer__"


@dataclass(frozen=True)
class Layer:
    """One row of the table: a name and the callables it times.

    ``targets`` holds ``"module:function"`` or ``"module:Class.method"``
    strings.  ``on_result(counters, args, result)`` derives the layer's
    counters from each finished call.
    """

    name: str
    targets: tuple[str, ...]
    on_result: Callable | None = field(default=None, compare=False)


#: Counters the ``on_result`` hooks below keep, with their units.
COUNTERS = {
    "search.screened": "count",
    "core.repair.clones_moved": "count",
    "core.repair.clones_placed": "count",
    "store.bytes_written": "B",
    "store.hits": "count",
}


def _count_screened(counters, args, result):
    counters["search.screened"] += len(args[0])


def _count_repair_work(counters, args, result):
    counters["core.repair.clones_moved"] += result.clones_moved
    counters["core.repair.clones_placed"] += result.clones_placed


def _count_bytes_written(counters, args, result):
    counters["store.bytes_written"] += os.path.getsize(result)


def _count_store_hits(counters, args, result):
    if result is not None:
        counters["store.hits"] += 1


#: Every layer the benchmark attributes time to.
LAYERS: tuple[Layer, ...] = (
    Layer("search.plan_search", ("repro.search.search:search_plans",)),
    Layer(
        "search.enumerate",
        (
            "repro.search.enumerator:count_exhaustive_plans",
            "repro.search.enumerator:enumerate_exhaustive_plans",
            "repro.search.enumerator:greedy_plan",
            "repro.search.enumerator:random_plan",
            "repro.search.enumerator:mutate_plan",
        ),
    ),
    Layer("search.plan_key", ("repro.search.canonical:plan_key",)),
    Layer(
        "search.screen",
        ("repro.search.screen:candidate_lower_bounds",),
        _count_screened,
    ),
    Layer(
        "search.score",
        (
            "repro.search.score:evaluate_candidate",
            "repro.search.score:schedule_candidate",
        ),
    ),
    Layer("experiments.runner", ("repro.experiments.parallel:ParallelRunner.run",)),
    Layer(
        "experiments.prepare_workload",
        ("repro.experiments.runner:prepare_workload",),
    ),
    Layer(
        "experiments.schedule_query",
        ("repro.experiments.runner:schedule_query",),
    ),
    Layer("plans.expand_plan", ("repro.plans.operator_tree:expand_plan",)),
    Layer("plans.build_task_tree", ("repro.plans.task_tree:build_task_tree",)),
    Layer(
        "plans.phases",
        (
            "repro.plans.phases:min_shelf_phases",
            "repro.plans.phases:eager_shelf_phases",
        ),
    ),
    Layer(
        "cost.annotate_plan",
        (
            "repro.cost.annotate:annotate_plan",
            "repro.cost.annotate:compute_plan_annotation",
        ),
    ),
    Layer("cost.operator_spec", ("repro.cost.annotate:compute_operator_spec",)),
    Layer(
        "engine.schedule",
        (
            "repro.engine.registry:RegisteredScheduler.__call__",
            "repro.core.tree_schedule:tree_schedule",
        ),
    ),
    Layer(
        "core.degree",
        (
            "repro.core.cloning:coarse_grain_degree",
            "repro.core.cloning:response_optimal_degree",
        ),
    ),
    Layer(
        "core.pack",
        (
            "repro.core.operator_schedule:operator_schedule",
            "repro.core.vector_packing:pack_vectors",
            "repro.core.malleable:malleable_schedule",
        ),
    ),
    Layer(
        "core.repair",
        ("repro.core.reschedule:reschedule_schedule",),
        _count_repair_work,
    ),
    Layer("serialization.encode", ("repro.serialization:schedule_result_to_dict",)),
    Layer("serialization.decode", ("repro.serialization:schedule_result_from_dict",)),
    Layer("store.key", ("repro.store.artifact_store:ArtifactStore.key",)),
    Layer(
        "store.put",
        ("repro.store.artifact_store:ArtifactStore.put",),
        _count_bytes_written,
    ),
    Layer(
        "store.get",
        ("repro.store.artifact_store:ArtifactStore.get",),
        _count_store_hits,
    ),
    Layer("serve.loop", ("repro.serve.service:SchedulerService.run",)),
    Layer("serve.pool.install", ("repro.serve.pool:SitePool.install",)),
    Layer("serve.pool.retire", ("repro.serve.pool:SitePool.retire",)),
    Layer(
        "serve.pool.lookup",
        (
            "repro.serve.pool:SitePool.residents_of",
            "repro.serve.pool:SitePool.capacity_of",
            "repro.serve.pool:SitePool.has_capacity",
        ),
    ),
    Layer("serve.governor", ("repro.serve.governor:DegreeGovernor.degree",)),
    Layer(
        "serve.admission",
        (
            "repro.serve.admission:AdmissionController.submit",
            "repro.serve.admission:AdmissionController.pop",
            "repro.serve.admission:AdmissionController.drain_intake",
        ),
    ),
    Layer(
        "obs.telemetry",
        (
            "repro.serve.telemetry:ServiceTelemetry.sample",
            "repro.serve.telemetry:ServiceTelemetry.on_placed",
            "repro.serve.telemetry:ServiceTelemetry.on_completed",
            "repro.serve.telemetry:ServiceTelemetry.finish",
        ),
    ),
)


def _resolve(target: str):
    """``(owner, attribute, original)`` for one target string."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _bindings(value):
    """Every ``(namespace, key)`` in ``repro`` holding ``value``.

    A namespace is a module's ``__dict__`` or a dict stored at module
    level; both are plain dicts, so one setter serves both.
    """
    found = []
    for module in _repro_modules():
        namespace = vars(module)
        for key, held in list(namespace.items()):
            if held is value:
                found.append((namespace, key))
            elif type(held) is dict:
                found.extend(
                    (held, k) for k, v in list(held.items()) if v is value
                )
    return found


def find_wrappers() -> list[str]:
    """Where a wrapper is still installed (empty after :meth:`uninstall`)."""
    found = []
    for module in _repro_modules():
        for key, held in list(vars(module).items()):
            if hasattr(held, WRAPPED_MARK):
                found.append(f"{module.__name__}.{key}")
            elif isinstance(held, type):
                for attr, member in list(vars(held).items()):
                    if hasattr(member, WRAPPED_MARK):
                        found.append(f"{module.__name__}.{key}.{attr}")
            elif type(held) is dict:
                found.extend(
                    f"{module.__name__}.{key}[{k!r}]"
                    for k, v in list(held.items())
                    if hasattr(v, WRAPPED_MARK)
                )
    return found


class LayerTracer:
    """Self time, call counts and counters per layer.

    Use as a context manager around the traced work, or call
    :meth:`install` / :meth:`uninstall` directly.  ``clock`` is
    injectable so the arithmetic can be tested on a synthetic call tree.
    """

    def __init__(
        self,
        layers: tuple[Layer, ...] = LAYERS,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.layers = layers
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        #: Wall time of outermost wrapped calls (= sum of all self times).
        self.attributed_s = 0.0
        #: Open calls, innermost last: ``[layer name, nested wall time]``.
        self._stack: list[list] = []
        self._undo: list[tuple[dict | type, str, object]] = []

    def wrap(self, layer: str, fn: Callable, on_result: Callable | None = None):
        """``fn`` timed as part of ``layer``."""
        stack = self._stack
        clock = self.clock
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                self.calls[layer] += 1
                self.self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.attributed_s += elapsed
            if on_result is not None:
                on_result(counters, args, result)
            return result

        setattr(wrapper, WRAPPED_MARK, layer)
        return wrapper

    def install(self) -> None:
        """Wrap every target of every layer where its callers find it."""
        if self._undo:
            raise RuntimeError("layer tracer is already installed")
        try:
            for layer in self.layers:
                for target in layer.targets:
                    owner, attr, original = _resolve(target)
                    wrapper = self.wrap(layer.name, original, layer.on_result)
                    if isinstance(owner, type):
                        self._undo.append((owner, attr, original))
                        setattr(owner, attr, wrapper)
                        continue
                    for namespace, key in _bindings(original):
                        self._undo.append((namespace, key, original))
                        namespace[key] = wrapper
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put every original back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, type):
                setattr(owner, attr, original)
            else:
                owner[attr] = original

    def __enter__(self) -> LayerTracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def rows(self, wall_s: float) -> list[tuple[str, int, float]]:
        """``(layer, calls, self seconds)`` sorted by self time, then
        ``unattributed_s``: the rows sum to ``wall_s``."""
        rows = sorted(
            ((layer.name, self.calls[layer.name], self.self_s[layer.name])
             for layer in self.layers),
            key=lambda row: (-row[2], row[0]),
        )
        rows.append(("unattributed_s", 0, wall_s - self.attributed_s))
        return rows
