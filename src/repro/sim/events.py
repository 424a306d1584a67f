"""Event records produced by the fluid execution simulator.

The simulator is event-driven: site state (the set of active clones and
their progress rates) is piecewise constant, changing only at clone
completions and, under faults, at straggler releases, failures and
recoveries.  These records capture the resulting execution history so
tests and reports can audit rate feasibility and work conservation.  They
are named tuples: the simulator builds one per clone and one per interval,
and a named tuple costs about half as much to build as a frozen dataclass.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["CloneTrace", "RateInterval"]


class CloneTrace(NamedTuple):
    """Execution record of one clone at one site.

    Attributes
    ----------
    operator:
        Owning operator's name.
    clone_index:
        Clone index within the operator.
    start:
        Simulation time at which the clone began executing.
    finish:
        Simulation time at which it completed.
    nominal_t_seq:
        The clone's stand-alone sequential time ``T_seq`` (its execution
        is stretched/throttled relative to this).
    """

    operator: str
    clone_index: int
    start: float
    finish: float
    nominal_t_seq: float

    @property
    def stretch(self) -> float:
        """Observed slowdown relative to running alone (``>= 1`` up to
        floating point, except for zero-work clones)."""
        if self.nominal_t_seq <= 0.0:
            return 1.0
        return (self.finish - self.start) / self.nominal_t_seq


class RateInterval(NamedTuple):
    """One piecewise-constant interval of a site's execution.

    Attributes
    ----------
    start, end:
        Interval bounds in simulation time.
    active:
        Names of the clones executing during the interval (as
        ``operator#clone`` strings).
    throttle:
        Progress speed of the slowest active clone relative to its
        stand-alone ``T_seq`` (1.0 means full nominal speed; a lone clone
        on a capacity-``c`` site runs at ``c``).
    resource_rates:
        Aggregate per-resource consumption rate during the interval;
        feasibility requires every entry ``<= 1`` (+ rounding).
    """

    start: float
    end: float
    active: tuple[str, ...]
    throttle: float
    resource_rates: tuple[float, ...]

    @property
    def duration(self) -> float:
        """Length of the interval."""
        return self.end - self.start

    def is_feasible(self, tolerance: float = 1e-9) -> bool:
        """No resource consumed above unit capacity during the interval."""
        return all(r <= 1.0 + tolerance for r in self.resource_rates)
