"""Hardware-parameter sensitivity sweeps (calibration of Table 2).

Footnote 4 of the paper: "the CPU speed and disk service rate were chosen
so that the system is relatively balanced".  This module asks how the
headline comparison depends on that calibration: sweep one
:class:`~repro.cost.params.SystemParameters` field across a range of
multipliers, re-annotate the workload, and record both algorithms'
average response times.

The interesting shape (asserted by the ``abl-params`` benchmark): the
multi-dimensional advantage is largest near balance and shrinks as one
resource dominates — when every operator is bottlenecked on the same
resource, there is little complementary idle capacity left to share, and
the problem degenerates toward one-dimensional scheduling.
"""

from __future__ import annotations

from dataclasses import replace

from repro.exceptions import ConfigurationError
from repro.core.batch import eq3_makespans_over_epsilon
from repro.core.schedule import PhasedSchedule, Schedule
from repro.cost.params import SystemParameters
from repro.experiments.config import ExperimentConfig, PAPER_CONFIG
from repro.experiments.figures import FigureData, Series
from repro.experiments.parallel import ParallelRunner, SweepPoint
from repro.store import ArtifactStore

__all__ = [
    "SWEEPABLE_FIELDS",
    "parameter_sensitivity",
    "overlap_robustness",
]

#: Fields of SystemParameters that the sweep accepts.
SWEEPABLE_FIELDS = (
    "cpu_mips",
    "disk_seconds_per_page",
    "alpha_startup_seconds",
    "beta_seconds_per_byte",
)


def parameter_sensitivity(
    field: str,
    multipliers: tuple[float, ...],
    config: ExperimentConfig = PAPER_CONFIG,
    *,
    n_joins: int = 20,
    p: int = 40,
    workers: int = 1,
    store: ArtifactStore | None = None,
) -> FigureData:
    """Sweep one hardware parameter and compare the two schedulers.

    Parameters
    ----------
    field:
        Which :class:`SystemParameters` field to scale (one of
        :data:`SWEEPABLE_FIELDS`).
    multipliers:
        Factors applied to the paper's value (1.0 = Table 2).
    config:
        Supplies workload size, seed, and the base parameters.
    n_joins, p:
        Workload and system size of the sweep.
    workers:
        Process count for the sweep grid (results are identical for any
        value; see :class:`~repro.experiments.parallel.ParallelRunner`).
    store:
        Optional :class:`~repro.store.ArtifactStore` caching point
        values (falls back to the ``REPRO_CACHE_DIR`` default).

    Returns
    -------
    FigureData
        Two series (TreeSchedule, Synchronous) against the multiplier.
    """
    if field not in SWEEPABLE_FIELDS:
        raise ConfigurationError(
            f"cannot sweep {field!r}; choose one of {SWEEPABLE_FIELDS}"
        )
    if not multipliers or any(m <= 0 for m in multipliers):
        raise ConfigurationError("multipliers must be positive and non-empty")

    # Each multiplier is its own sweep point: the scaled parameters drive
    # annotation *and* scheduling.  The structural cohort is shared; each
    # parameter set gets its own immutable PlanAnnotation (the
    # with_params path), so sweep points can never alias specs.
    scaled: list[SystemParameters] = [
        replace(config.params, **{field: getattr(config.params, field) * m})
        for m in multipliers
    ]
    points = [
        SweepPoint(
            algorithm, n_joins, config.n_queries, config.seed,
            p, config.default_f, config.default_epsilon, params,
        )
        for algorithm in ("treeschedule", "synchronous")
        for params in scaled
    ]
    values = ParallelRunner(workers, store=store).run(points)
    ts_ys = values[: len(multipliers)]
    sy_ys = values[len(multipliers) :]

    xs = tuple(float(m) for m in multipliers)
    return FigureData(
        figure_id=f"sens-{field}",
        title=f"Sensitivity to {field} ({n_joins} joins, P={p})",
        x_label=f"{field} multiplier (1.0 = Table 2)",
        y_label="avg response time (s)",
        series=(
            Series(label="TreeSchedule", xs=xs, ys=tuple(ts_ys)),
            Series(label="Synchronous", xs=xs, ys=tuple(sy_ys)),
        ),
        notes=(
            "Footnote 4 calibration check: the multi-dimensional advantage "
            "peaks near resource balance.",
        ),
    )


def overlap_robustness(
    schedule: Schedule | PhasedSchedule,
    epsilons: tuple[float, ...],
) -> FigureData:
    """Re-evaluate a *fixed* placement's response time per overlap value.

    Complementary to the Figure 5(b) sweep, which re-runs the scheduler
    at each ``epsilon``: this sweep keeps the clone-to-site mapping fixed
    and asks how its Equation (3) response time degrades when the EA2
    overlap calibration was wrong — the placement-robustness side of the
    sensitivity analysis.  Evaluation goes through the batch kernel
    :func:`repro.core.batch.eq3_makespans_over_epsilon` (clone statistics
    are read once and reused for every epsilon), so it is cheap enough to
    run per sweep point.
    """
    if not epsilons:
        raise ConfigurationError("overlap_robustness requires at least one epsilon")
    phases = (
        list(schedule.phases)
        if isinstance(schedule, PhasedSchedule)
        else [schedule]
    )
    per_phase = [eq3_makespans_over_epsilon(phase, epsilons) for phase in phases]
    ys = tuple(
        sum(spans[k] for spans in per_phase) for k in range(len(epsilons))
    )
    return FigureData(
        figure_id="sens-overlap-fixed",
        title="Fixed-placement response time vs overlap parameter",
        x_label="overlap parameter epsilon",
        y_label="response time (s)",
        series=(Series(label="fixed placement", xs=tuple(map(float, epsilons)), ys=ys),),
        notes=(
            "Placement held constant; only the EA2 stand-alone clone "
            "times are re-derived per epsilon (Equation 3 batch kernel).",
        ),
    )
