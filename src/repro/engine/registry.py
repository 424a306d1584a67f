"""Decorator-based scheduling-algorithm registry.

Algorithms self-register at import time::

    @register("treeschedule", description="Section 5.4 TREESCHEDULE")
    def _run(query: GeneratedQuery, request: ScheduleRequest) -> ScheduleResult:
        ...

and every dispatch site (experiment runner, CLI, parallel sweeps,
simulator validation) resolves names through :func:`get_algorithm` —
there is exactly one source of truth for which algorithm names exist.
Unknown names raise :class:`~repro.exceptions.ConfigurationError` listing
the registered names.

A registered scheduler is a callable ``(query, request) -> ScheduleResult``
where ``query`` is a cost-annotated
:class:`~repro.plans.generator.GeneratedQuery` and ``request`` a
:class:`ScheduleRequest` carrying the sweep-point coordinates ``(p, f,
epsilon)``, the Table 2 system parameters, and an optional
:class:`~repro.engine.metrics.MetricsRecorder`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Protocol

from repro.exceptions import ConfigurationError
from repro.engine.metrics import MetricsRecorder
from repro.engine.result import ScheduleResult
from repro.obs.names import SPAN_SCHEDULE

if TYPE_CHECKING:  # pragma: no cover - imports for type checkers only
    from repro.core.cloning import CoordinatorPolicy
    from repro.core.cluster import ClusterSpec
    from repro.core.granularity import CommunicationModel
    from repro.core.resource_model import OverlapModel
    from repro.cost.annotate import PlanAnnotation
    from repro.cost.params import SystemParameters
    from repro.plans.generator import GeneratedQuery

__all__ = [
    "ScheduleRequest",
    "Scheduler",
    "RegisteredScheduler",
    "register",
    "get_algorithm",
    "available_algorithms",
    "describe_algorithms",
    "register_rescheduler",
    "get_rescheduler",
    "available_reschedulers",
]


@dataclass
class ScheduleRequest:
    """One sweep point: everything an algorithm needs besides the query.

    Attributes
    ----------
    p:
        Number of system sites.
    f:
        Granularity parameter of the coarse-grain restriction (ignored by
        algorithms that do not respect granularity).
    epsilon:
        Resource-overlap parameter (EA2).
    params:
        Table 2 system parameters; defaults to the paper's values.
    policy:
        Startup-cost charging policy; defaults to EA1.
    metrics:
        Optional metrics recorder threaded into the scheduler.
    annotation:
        Optional immutable :class:`~repro.cost.annotate.PlanAnnotation`
        resolving operator specs for this run.  When set, the registry
        activates it around the scheduler call
        (:func:`repro.plans.physical_ops.use_annotation`), so a shared,
        unattached operator tree can be scheduled under any parameter
        variant without being rewritten.
    cluster:
        Optional :class:`~repro.core.cluster.ClusterSpec` describing a
        heterogeneous cluster.  When set, its site count must equal
        ``p``; its capacity vector reaches the algorithms through
        :attr:`capacities`.  ``None`` (or a uniform spec) keeps every
        algorithm on the byte-identical homogeneous path.
    """

    p: int
    f: float = 0.7
    epsilon: float = 0.5
    params: "SystemParameters | None" = None
    policy: "CoordinatorPolicy | None" = None
    metrics: MetricsRecorder | None = None
    annotation: "PlanAnnotation | None" = None
    cluster: "ClusterSpec | None" = None
    _comm: "CommunicationModel | None" = field(
        default=None, repr=False, compare=False
    )
    _overlap: "OverlapModel | None" = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.params is None:
            from repro.cost.params import PAPER_PARAMETERS

            self.params = PAPER_PARAMETERS
        if self.policy is None:
            from repro.core.cloning import DEFAULT_COORDINATOR_POLICY

            self.policy = DEFAULT_COORDINATOR_POLICY
        if self.cluster is not None and self.cluster.p != self.p:
            raise ConfigurationError(
                f"cluster spec has {self.cluster.p} sites but request has "
                f"p={self.p}"
            )

    @property
    def capacities(self) -> "tuple[float, ...] | None":
        """Per-site capacities, or ``None`` on the homogeneous path.

        Uniform clusters (all capacities 1.0) also return ``None`` so
        algorithms keep the byte-identical homogeneous code path.
        """
        if self.cluster is None:
            return None
        return self.cluster.capacities_or_none()

    @property
    def total_capacity(self) -> "float | None":
        """Total capacity ``C``, or ``None`` on the homogeneous path."""
        caps = self.capacities
        return None if caps is None else float(sum(caps))

    @property
    def comm(self) -> "CommunicationModel":
        """The communication-cost model derived from :attr:`params`."""
        if self._comm is None:
            assert self.params is not None
            self._comm = self.params.communication_model()
        return self._comm

    @property
    def overlap(self) -> "OverlapModel":
        """The overlap model derived from :attr:`epsilon` (EA2)."""
        if self._overlap is None:
            from repro.core.resource_model import ConvexCombinationOverlap

            self._overlap = ConvexCombinationOverlap(self.epsilon)
        return self._overlap


class Scheduler(Protocol):
    """The callable protocol every registered algorithm satisfies."""

    def __call__(
        self, query: "GeneratedQuery", request: ScheduleRequest
    ) -> ScheduleResult: ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class RegisteredScheduler:
    """Registry entry: the scheduler plus its metadata.

    Attributes
    ----------
    name:
        Registry key (``"treeschedule"``, ``"hong"``, ...).
    fn:
        The scheduler callable.
    description:
        One-line human description (shown by the CLI).
    kind:
        ``"schedule"`` for algorithms producing a placement,
        ``"bound"`` for lower bounds with no schedule attached.
    """

    name: str
    fn: Scheduler
    description: str = ""
    kind: str = "schedule"

    def __call__(
        self, query: "GeneratedQuery", request: ScheduleRequest
    ) -> ScheduleResult:
        from repro.obs.tracer import current_tracer, span_to_dict
        from repro.plans.physical_ops import use_annotation

        # Every dispatch funnels through here, so this is the one place
        # the "schedule" root span is opened — kernels and the driver
        # nest their own spans under it via the ambient tracer.  With
        # tracing disabled (the default) span() hands back a shared
        # no-op and the result is untouched.
        with current_tracer().span(
            SPAN_SCHEDULE,
            algorithm=self.name,
            p=request.p,
            f=request.f,
            epsilon=request.epsilon,
        ) as span:
            with use_annotation(request.annotation):
                result = self.fn(query, request)
        if result.algorithm == "":
            result.algorithm = self.name
        if span is not None:
            span.attributes["response_time"] = result.response_time
            result.instrumentation.spans.append(span_to_dict(span))
        return result


#: The registry.  Listing order is canonicalized by ``_PREFERRED_ORDER``
#: (import side effects would otherwise make it depend on which package
#: ``__init__`` ran first); names outside it follow in registration order.
_SCHEDULERS: dict[str, RegisteredScheduler] = {}

_PREFERRED_ORDER = (
    "treeschedule",
    "synchronous",
    "hong",
    "optbound",
    "onedim",
    "malleable",
)

_BUILTIN_MODULES = (
    "repro.core.tree_schedule",
    "repro.baselines.synchronous",
    "repro.baselines.hong",
    "repro.baselines.opt_bound",
    "repro.baselines.one_dimensional",
    "repro.core.malleable",
)


def register(
    name: str, *, description: str = "", kind: str = "schedule"
) -> Callable[[Scheduler], Scheduler]:
    """Class/function decorator adding a scheduler to the registry.

    Re-registering an existing name replaces the entry (supports module
    reloads); ``kind`` must be ``"schedule"`` or ``"bound"``.
    """
    if not name:
        raise ConfigurationError("scheduler name must be non-empty")
    if kind not in ("schedule", "bound"):
        raise ConfigurationError(
            f"scheduler kind must be 'schedule' or 'bound', got {kind!r}"
        )

    def decorator(fn: Scheduler) -> Scheduler:
        _SCHEDULERS[name] = RegisteredScheduler(
            name=name, fn=fn, description=description, kind=kind
        )
        return fn

    return decorator


def _ensure_builtins_loaded() -> None:
    """Import every module that registers a built-in algorithm.

    Imports are deferred to first lookup so the registry module itself
    stays dependency-free (the algorithm modules import *it*).
    """
    import importlib

    for module in _BUILTIN_MODULES:
        importlib.import_module(module)


def get_algorithm(name: str) -> RegisteredScheduler:
    """Resolve an algorithm name to its registry entry.

    Raises
    ------
    ConfigurationError
        If ``name`` is not registered; the message lists all registered
        names.
    """
    _ensure_builtins_loaded()
    try:
        return _SCHEDULERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; expected one of "
            f"{available_algorithms()}"
        ) from None


def available_algorithms() -> tuple[str, ...]:
    """All registered algorithm names, built-ins first in canonical order."""
    _ensure_builtins_loaded()
    builtin = [n for n in _PREFERRED_ORDER if n in _SCHEDULERS]
    extra = [n for n in _SCHEDULERS if n not in _PREFERRED_ORDER]
    return tuple(builtin + extra)


def describe_algorithms() -> dict[str, RegisteredScheduler]:
    """Name → registry entry for every registered algorithm (a copy)."""
    _ensure_builtins_loaded()
    return {name: _SCHEDULERS[name] for name in available_algorithms()}


# ----------------------------------------------------------------------
# Rescheduler registry (incremental repair strategies)
# ----------------------------------------------------------------------
#: Repair strategies for :func:`repro.engine.reschedule.reschedule`.  A
#: rescheduler is a callable ``(schedule, delta, *, overlap, sort, rule,
#: metrics) -> RescheduleStats`` mutating the given phase schedule in
#: place; the engine entry point handles copying, result assembly and
#: store keying around it.
_RESCHEDULERS: dict[str, Callable] = {}

_RESCHEDULER_MODULES = ("repro.engine.reschedule",)


def register_rescheduler(name: str) -> Callable[[Callable], Callable]:
    """Decorator adding a repair strategy to the rescheduler registry."""
    if not name:
        raise ConfigurationError("rescheduler name must be non-empty")

    def decorator(fn: Callable) -> Callable:
        _RESCHEDULERS[name] = fn
        return fn

    return decorator


def _ensure_reschedulers_loaded() -> None:
    import importlib

    for module in _RESCHEDULER_MODULES:
        importlib.import_module(module)


def get_rescheduler(name: str) -> Callable:
    """Resolve a repair-strategy name.

    Raises
    ------
    ConfigurationError
        If ``name`` is not registered; the message lists the registered
        names.
    """
    _ensure_reschedulers_loaded()
    try:
        return _RESCHEDULERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown rescheduler {name!r}; expected one of "
            f"{available_reschedulers()}"
        ) from None


def available_reschedulers() -> tuple[str, ...]:
    """All registered repair-strategy names, in registration order."""
    _ensure_reschedulers_loaded()
    return tuple(_RESCHEDULERS)
