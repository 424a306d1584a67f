"""Memory-constrained scheduling: the paper's Section 8 open problem.

Drops assumption A1 (no memory limitations): sites get buffer-memory
capacities, hash tables occupy real bytes from build to probe, and the
memory-aware TREESCHEDULE variant spreads or spills tables that do not
fit, pricing the spill I/O with the Table 2 cost model.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".model": ("MemoryModel", "MemoryLedger", "TableCommitment"),
        ".spill": ("spill_fraction", "build_spill_work", "probe_spill_work"),
        ".scheduler": ("MemoryAwareResult", "memory_aware_tree_schedule"),
    },
)
