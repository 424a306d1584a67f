"""Shared site pool: the residual-capacity ledger of the service.

Every running query occupies one operator entry (its ``k`` clones on
``k`` distinct sites, constraint (A)) in a single long-lived
:class:`~repro.core.schedule.Schedule`.  Installing and retiring queries
goes through :func:`~repro.core.reschedule.reschedule_schedule` — the
same :class:`~repro.core.reschedule.ScheduleDelta` repair path PR 6
built for fault recovery — so admitting query number 10\\ :sup:`3`
costs O(k · log p), never a cold re-pack of everything resident.  The
repairs share one long-lived :class:`~repro.core.placement_heap.SiteHeap`
in which each delta re-keys only the sites it touched.

The pool is also the service's contention model: a site of capacity
``c`` hosting ``m`` query-operators runs each at rate ``c/m`` (fair
share, matching the fluid simulator's stance in :mod:`repro.sim`), so
:meth:`residents_of` and :meth:`capacity_of` feed the executor's
progress rates and :meth:`has_capacity` gates placement on a
co-residency limit rather than raw site count.  All three are O(1)
reads of counts that :meth:`install`, :meth:`retire` and
:meth:`set_capacity` maintain in O(k) from the touched sites.
:meth:`set_capacity` is the elasticity primitive: it resizes one site
*in place* through a :class:`~repro.core.reschedule.ScheduleDelta` —
residents stay put, no cold re-pack — and the executor picks the new
rates up at its next event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.exceptions import ConfigurationError, ServiceError
from repro.core.placement_heap import SiteHeap, least_loaded_key
from repro.core.reschedule import ScheduleDelta, reschedule_schedule
from repro.core.resource_model import OverlapModel
from repro.core.schedule import Schedule
from repro.core.vector_packing import CloneItem, PlacementRule, SortKey
from repro.core.work_vector import WorkVector
from repro.obs.names import COUNTER_SITES_RESIZED, SPAN_CAPACITY_CHANGE
from repro.obs.tracer import current_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.metrics import MetricsRecorder

__all__ = ["SitePool"]


@dataclass
class SitePool:
    """A ``p``-site pool that installs/retires queries via repair deltas.

    Attributes
    ----------
    p:
        Number of sites.
    overlap:
        Overlap model used to derive per-clone ``T_seq`` on placement.
    max_coresident:
        Soft co-residency cap: :meth:`has_capacity` only counts sites
        hosting fewer than this many query-operators, bounding the
        fair-share slowdown any single query can suffer.
    capacities:
        Optional per-site relative speeds (length ``p``); ``None`` means
        the homogeneous unit pool.  Mutated in place by
        :meth:`set_capacity`.
    metrics:
        Optional :class:`~repro.engine.metrics.MetricsRecorder` threaded
        through every repair call, so install/retire/resize deltas count
        their ``reschedules``/``clones_moved``/``sites_drained``/
        ``sites_resized`` work into the owning service's recorder.
    """

    p: int
    overlap: OverlapModel
    max_coresident: int = 4
    sort: SortKey = SortKey.MAX_COMPONENT
    rule: PlacementRule = PlacementRule.LEAST_LOADED_LENGTH
    capacities: "tuple[float, ...] | None" = None
    metrics: "MetricsRecorder | None" = None

    _schedule: Schedule | None = field(default=None, init=False)
    #: the repair heap, created with the ledger and kept for its life.
    _heap: SiteHeap | None = field(default=None, init=False)
    #: resident query -> host sites, in clone order.
    _homes: dict[str, tuple[int, ...]] = field(default_factory=dict, init=False)
    #: per-site resident count and capacity, by site index.
    _residents: list[int] = field(default_factory=list, init=False)
    _capacity: list[float] = field(default_factory=list, init=False)
    #: sites below ``max_coresident`` residents / with any resident.
    _open: int = field(default=0, init=False)
    _occupied: int = field(default=0, init=False)
    #: cumulative repair placement scans, for the service report.
    placement_scans: int = field(default=0, init=False)
    installs: int = field(default=0, init=False)
    retires: int = field(default=0, init=False)
    #: elastic capacity changes applied (see :meth:`set_capacity`).
    resizes: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ConfigurationError(f"pool needs p >= 1 sites, got {self.p}")
        if self.max_coresident < 1:
            raise ConfigurationError(
                f"max_coresident must be >= 1, got {self.max_coresident}"
            )
        if self.capacities is not None:
            if len(self.capacities) != self.p:
                raise ConfigurationError(
                    f"pool has p={self.p} sites but got "
                    f"{len(self.capacities)} capacities"
                )
            for capacity in self.capacities:
                if not capacity > 0.0 or capacity != capacity or capacity == float("inf"):
                    raise ConfigurationError(
                        f"site capacities must be positive finite numbers, "
                        f"got {capacity!r}"
                    )
            self.capacities = tuple(float(c) for c in self.capacities)
        self._residents = [0] * self.p
        self._capacity = list(self.capacities or (1.0,) * self.p)
        self._open = self.p

    @property
    def schedule(self) -> Schedule | None:
        """The live ledger schedule (``None`` before the first install)."""
        return self._schedule

    @property
    def running(self) -> frozenset[str]:
        """Names of the queries currently resident in the pool."""
        return frozenset(self._homes)

    def _repair(self, delta: ScheduleDelta) -> None:
        stats = reschedule_schedule(
            self._schedule,
            delta,
            overlap=self.overlap,
            sort=self.sort,
            rule=self.rule,
            metrics=self.metrics,
            heap=self._heap,
        )
        self.placement_scans += stats.placement_scans

    def install(self, name: str, loads: tuple[WorkVector, ...]) -> tuple[int, ...]:
        """Place one query's per-site load vectors; return its host sites.

        ``loads`` holds one aggregate work vector per clone (the query's
        phased schedule collapsed site-wise); each becomes one
        :class:`~repro.core.vector_packing.CloneItem` of the pool
        operator ``name``, and constraint (A) inside the repair pass
        guarantees the clones land on ``len(loads)`` distinct sites.
        """
        if not loads:
            raise ServiceError(f"query {name!r} has no load vectors to install")
        if len(loads) > self.p:
            raise ServiceError(
                f"query {name!r} wants {len(loads)} sites; pool has {self.p}"
            )
        if self._schedule is None:
            self._schedule = Schedule(self.p, loads[0].d, self.capacities)
            if self.rule is PlacementRule.LEAST_LOADED_LENGTH:
                self._heap = SiteHeap(self._schedule.sites, key=least_loaded_key)
        if name in self._homes:
            raise ServiceError(f"query {name!r} is already installed")
        items = tuple(
            CloneItem(operator=name, clone_index=i, work=work)
            for i, work in enumerate(loads)
        )
        self._repair(ScheduleDelta(add_items=items))
        self.installs += 1
        hosts = self._schedule.home(name).site_indices
        self._homes[name] = hosts
        residents = self._residents
        for j in hosts:
            count = residents[j] + 1
            residents[j] = count
            if count == 1:
                self._occupied += 1
            if count == self.max_coresident:
                self._open -= 1
        return hosts

    def retire(self, name: str) -> None:
        """Remove a completed query from the ledger."""
        hosts = self._homes.get(name)
        if hosts is None:
            raise ServiceError(f"cannot retire {name!r}: not installed")
        self._repair(ScheduleDelta(remove_operators=(name,)))
        del self._homes[name]
        self.retires += 1
        residents = self._residents
        for j in hosts:
            count = residents[j]
            residents[j] = count - 1
            if count == 1:
                self._occupied -= 1
            if count == self.max_coresident:
                self._open += 1

    def residents_of(self, site_index: int) -> int:
        """Distinct query-operators resident on one site."""
        return self._residents[site_index]

    def capacity_of(self, site_index: int) -> float:
        """Relative speed of one site (``1.0`` on the homogeneous pool)."""
        return self._capacity[site_index]

    def set_capacity(self, site_index: int, capacity: float) -> None:
        """Elastically resize one site in place (residents stay put).

        Routed through the rescheduler as a pure
        ``ScheduleDelta(set_capacities=...)`` — an O(1) mutation of the
        live ledger, never a re-pack — so a mid-serve scale-up/-down
        only changes the *rates* the executor observes, not any query's
        placement.  Before the first install the change lands in the
        stored :attr:`capacities` snapshot instead.
        """
        if not 0 <= site_index < self.p:
            raise ServiceError(
                f"cannot resize site {site_index}: pool has p={self.p}"
            )
        # Delta construction validates the capacity value itself.
        delta = ScheduleDelta(set_capacities=((site_index, float(capacity)),))
        with current_tracer().span(
            SPAN_CAPACITY_CHANGE, site=site_index, capacity=float(capacity)
        ):
            if self._schedule is None:
                caps = list(self.capacities or (1.0,) * self.p)
                caps[site_index] = float(capacity)
                self.capacities = tuple(caps)
                # The repair path counts resizes itself; this pre-install
                # branch never reaches it, so keep the counter whole here.
                if self.metrics is not None:
                    self.metrics.count(COUNTER_SITES_RESIZED)
            else:
                self._repair(delta)
        self._capacity[site_index] = float(capacity)
        self.resizes += 1

    def has_capacity(self, k: int) -> bool:
        """Can a degree-``k`` query join without breaching co-residency?

        True when at least ``k`` sites host fewer than
        ``max_coresident`` query-operators.  A soft gate: the repair
        itself only enforces distinct-site placement, so this is the
        knob that makes placement *wait* instead of piling everything
        onto the pool at once.
        """
        return self._open >= k

    def utilization(self) -> dict[str, float]:
        """Snapshot for the report: occupancy and co-residency."""
        return {
            "occupied_sites": float(self._occupied),
            "resident_queries": float(len(self._homes)),
            "max_residents": float(max(self._residents)),
        }
