"""Comparators: the SYNCHRONOUS 1-D adversary, OPTBOUND, scalar baselines.

Everything the Section 6 evaluation compares TREESCHEDULE against:

* :func:`synchronous_schedule` — synchronous-execution-time allocation
  [HCY94] + two-phase minimax pipeline splitting [LCRY93], extended with
  shared-nothing redistribution costs;
* :func:`opt_bound` — the lower bound on the optimal ``CG_f`` execution;
* :func:`scalar_list_schedule` — a pure scalar-metric list scheduler
  isolating the value of multi-dimensional packing;
* :func:`minimax_allocation` — the exact integer minimax water-filling
  primitive.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".hong": ("HongResult", "hong_schedule"),
        ".minimax": ("minimax_allocation", "minimax_time"),
        ".one_dimensional": ("scalar_list_schedule", "one_dimensional_tree_schedule"),
        ".opt_bound": ("opt_bound", "congestion_bound", "critical_path_time"),
        ".synchronous": ("SynchronousResult", "synchronous_schedule"),
    },
)

# ``opt_bound`` also names the submodule defining it, and importing a
# submodule binds it on the package, where it would shadow the lazy
# lookup; bind the function here so ``baselines.opt_bound`` stays it.
from repro.baselines.opt_bound import opt_bound  # noqa: E402
