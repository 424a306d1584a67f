"""The engine's rich schedule result with provenance.

Every registered scheduling algorithm returns a :class:`ScheduleResult`:
besides the headline response time it carries the full
:class:`~repro.core.schedule.PhasedSchedule` (so the fluid simulator can
validate the analytic model against an execution), per-shelf/per-site
timelines, system-wide work-vector totals, the granularity decisions
(degree of parallelism per operator), and wall-clock + counter
instrumentation (operators scheduled, clones created, packing bins
opened).

Lower-bound "algorithms" (OPTBOUND) produce no schedule; they return a
result with ``phased_schedule=None`` and an explicit ``response_time``.

For backward compatibility :class:`ScheduleResult` exposes exactly the
attribute surface of the historical per-algorithm result classes
(``TreeScheduleResult``, ``SynchronousResult``) — ``phased_schedule``,
``homes``, ``degrees``, ``phase_labels``, ``response_time``,
``num_phases`` — which are now aliases of this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import SchedulingError
from repro.core.schedule import OperatorHome, PhasedSchedule
from repro.core.work_vector import WorkVector

__all__ = ["Instrumentation", "SiteTimeline", "ShelfTimeline", "ScheduleResult"]


@dataclass
class Instrumentation:
    """Wall-clock and counter instrumentation of one scheduler run.

    Attributes
    ----------
    wall_clock_seconds:
        Wall-clock time spent constructing the schedule.
    operators_scheduled:
        Number of operators placed (floating and rooted).
    clones_created:
        Total operator clones created, ``sum_i N_i`` over all phases.
    bins_opened:
        Vector-packing bins that received at least one clone — the
        number of (phase, site) pairs with non-empty work.
    counters, timers:
        Free-form extras from a :class:`~repro.engine.metrics.MetricsRecorder`
        (e.g. per-stage timings of the driver).
    spans:
        Optional span-tree summaries of the run, as the plain relative-
        offset dicts of :func:`repro.obs.tracer.span_to_dict` (one entry
        per root span; empty when tracing was disabled).  Attached by
        the registry dispatch when an ambient tracer is enabled, and
        round-tripped by :func:`repro.serialization.instrumentation_to_dict`.

    ``wall_clock_seconds``, ``timers``, ``spans`` and the
    ``store_hits``/``store_misses`` counters describe one run on one
    host, so :func:`repro.serialization.schedule_result_to_dict` (and
    with it the artifact store) leaves them out: a result read back
    from the store reports them at their defaults.
    """

    wall_clock_seconds: float = 0.0
    operators_scheduled: int = 0
    clones_created: int = 0
    bins_opened: int = 0
    counters: dict[str, float] = field(default_factory=dict)
    timers: dict[str, float] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)


@dataclass(frozen=True)
class SiteTimeline:
    """One site's load within one shelf (synchronized phase).

    Attributes
    ----------
    site_index:
        Site number ``0..P-1``.
    clones:
        Number of operator clones resident during the shelf.
    load:
        The componentwise load vector ``work(s_j)`` of the site.
    t_seq_max:
        The slowest resident clone's stand-alone time.
    t_site:
        The Equation (2) site execution time.
    """

    site_index: int
    clones: int
    load: tuple[float, ...]
    t_seq_max: float
    t_site: float


@dataclass(frozen=True)
class ShelfTimeline:
    """Per-site timelines of one shelf plus its makespan."""

    label: str
    makespan: float
    sites: tuple[SiteTimeline, ...]

    @property
    def bins_opened(self) -> int:
        """Sites that host at least one clone during this shelf."""
        return sum(1 for s in self.sites if s.clones > 0)


def _timelines_of(phased: PhasedSchedule) -> tuple[ShelfTimeline, ...]:
    shelves = []
    for schedule, label in zip(phased.phases, phased.labels):
        sites = tuple(
            SiteTimeline(
                site_index=site.index,
                clones=len(site),
                load=site.load_vector().components,
                t_seq_max=site.max_t_seq(),
                t_site=site.t_site(),
            )
            for site in schedule.sites
        )
        shelves.append(
            ShelfTimeline(label=label, makespan=schedule.makespan(), sites=sites)
        )
    return tuple(shelves)


@dataclass(kw_only=True)
class ScheduleResult:
    """Outcome of one scheduling-algorithm run, with provenance.

    Attributes
    ----------
    algorithm:
        Registry name of the algorithm that produced this result.
    phased_schedule:
        The full clone-to-site mapping per synchronized phase, or ``None``
        for bound-only algorithms (OPTBOUND).
    homes:
        Final home of every operator (derived from the schedule when not
        supplied explicitly).
    degrees:
        The granularity decisions: chosen degree of partitioned
        parallelism per operator.
    phase_labels:
        Task ids scheduled in each phase.
    response_time:
        Total response time (sum of per-phase Equation (3) makespans;
        filled from ``phased_schedule`` when not supplied).
    instrumentation:
        Wall-clock and counter instrumentation of the run.
    """

    algorithm: str = ""
    phased_schedule: PhasedSchedule | None = None
    homes: dict[str, OperatorHome] = field(default_factory=dict)
    degrees: dict[str, int] = field(default_factory=dict)
    phase_labels: list[str] = field(default_factory=list)
    response_time: float | None = None
    instrumentation: Instrumentation = field(default_factory=Instrumentation)

    def __post_init__(self) -> None:
        phased = self.phased_schedule
        if self.response_time is None:
            if phased is None:
                raise SchedulingError(
                    "a ScheduleResult needs a phased schedule or an explicit "
                    "response time"
                )
            self.response_time = phased.response_time()
        if phased is not None:
            if not self.homes:
                self.homes = {
                    op: schedule.home(op)
                    for schedule in phased.phases
                    for op in schedule.operators
                }
            if not self.phase_labels:
                self.phase_labels = list(phased.labels)
            inst = self.instrumentation
            if not inst.operators_scheduled:
                inst.operators_scheduled = sum(
                    len(s.operators) for s in phased.phases
                )
            if not inst.clones_created:
                inst.clones_created = sum(s.clone_count() for s in phased.phases)
            if not inst.bins_opened:
                inst.bins_opened = sum(
                    1
                    for schedule in phased.phases
                    for site in schedule.sites
                    if not site.is_empty()
                )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_value(
        cls,
        algorithm: str,
        response_time: float,
        *,
        wall_clock_seconds: float = 0.0,
    ) -> "ScheduleResult":
        """Wrap a bound-only response time (no schedule attached)."""
        return cls(
            algorithm=algorithm,
            response_time=response_time,
            instrumentation=Instrumentation(wall_clock_seconds=wall_clock_seconds),
        )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        """Alias of :attr:`response_time` (sum of shelf makespans)."""
        assert self.response_time is not None  # filled by __post_init__
        return self.response_time

    @property
    def num_phases(self) -> int:
        """Number of synchronized phases (0 for bound-only results)."""
        if self.phased_schedule is None:
            return 0
        return self.phased_schedule.num_phases

    @property
    def is_bound_only(self) -> bool:
        """True when the algorithm produced a bound, not a schedule."""
        return self.phased_schedule is None

    @property
    def timelines(self) -> tuple[ShelfTimeline, ...]:
        """Per-shelf, per-site load timelines (empty for bound-only)."""
        if self.phased_schedule is None:
            return ()
        return _timelines_of(self.phased_schedule)

    def phase_makespans(self) -> list[float]:
        """Per-shelf makespans in execution order."""
        if self.phased_schedule is None:
            return []
        return self.phased_schedule.phase_makespans()

    def total_work(self) -> WorkVector | None:
        """System-wide componentwise work totals over all shelves.

        ``None`` for bound-only results (no placed clones to sum).
        """
        if self.phased_schedule is None or not self.phased_schedule.phases:
            return None
        return self.phased_schedule.total_work()

    def validate(self) -> None:
        """Validate the structural constraints of every phase."""
        if self.phased_schedule is not None:
            self.phased_schedule.validate()

    def __repr__(self) -> str:
        kind = "bound" if self.is_bound_only else f"{self.num_phases} phases"
        return (
            f"ScheduleResult({self.algorithm or '?'}, {kind}, "
            f"response_time={self.makespan:.6g})"
        )
