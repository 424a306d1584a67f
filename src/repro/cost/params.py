"""System and cost-model parameters — Table 2 of the paper.

All times are seconds internally.  The paper's Table 2:

===============================  ======================
Configuration/Catalog parameter  Value
===============================  ======================
Number of Sites                  10 - 140
CPU Speed                        1 MIPS
Effective Disk Service Time      20 msec per page
Startup Cost per site (alpha)    15 msec
Network Transfer Cost (beta)     0.6 usec per byte
Tuple Size                       128 bytes
Page Size                        40 tuples
Relation Size                    10^3 - 10^5 tuples
===============================  ======================

CPU cost parameters (instructions):

====================  =====
Read Page from Disk   5000
Write Page to Disk    5000
Extract Tuple          300
Hash Tuple             100
Probe Hash Table       200
====================  =====

The CPU speed and disk service rate were chosen by the authors so the
system is relatively balanced (neither heavily CPU- nor IO-bound);
changing them here shifts the resource mix, which is useful for
sensitivity studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.exceptions import ConfigurationError
from repro.core.granularity import CommunicationModel

__all__ = ["SystemParameters", "PAPER_PARAMETERS"]


@dataclass(frozen=True)
class SystemParameters:
    """The experimental configuration and catalog parameters of Table 2.

    Attributes
    ----------
    cpu_mips:
        CPU speed in millions of instructions per second.
    disk_seconds_per_page:
        Effective disk service time per page, in seconds.
    alpha_startup_seconds:
        Parallel-execution startup cost per participating site
        (``alpha`` of the communication model), in seconds.
    beta_seconds_per_byte:
        Network transfer cost per byte (``beta``), in seconds.
    tuple_bytes:
        Tuple size in bytes.
    tuples_per_page:
        Page capacity in tuples.
    instr_read_page / instr_write_page:
        CPU instructions to read/write one page from/to disk.
    instr_extract_tuple:
        CPU instructions to extract (copy/construct) one tuple.
    instr_hash_tuple:
        CPU instructions to hash one tuple into a table.
    instr_probe_table:
        CPU instructions to probe a hash table with one tuple.
    """

    cpu_mips: float = 1.0
    disk_seconds_per_page: float = 0.020
    alpha_startup_seconds: float = 0.015
    beta_seconds_per_byte: float = 0.6e-6
    tuple_bytes: int = 128
    tuples_per_page: int = 40
    instr_read_page: int = 5_000
    instr_write_page: int = 5_000
    instr_extract_tuple: int = 300
    instr_hash_tuple: int = 100
    instr_probe_table: int = 200

    def __post_init__(self) -> None:
        positive = {
            "cpu_mips": self.cpu_mips,
            "tuple_bytes": self.tuple_bytes,
            "tuples_per_page": self.tuples_per_page,
        }
        for name, value in positive.items():
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
            if value <= 0:
                raise ConfigurationError(f"{name} must be > 0, got {value}")
        non_negative = {
            "disk_seconds_per_page": self.disk_seconds_per_page,
            "alpha_startup_seconds": self.alpha_startup_seconds,
            "beta_seconds_per_byte": self.beta_seconds_per_byte,
            "instr_read_page": self.instr_read_page,
            "instr_write_page": self.instr_write_page,
            "instr_extract_tuple": self.instr_extract_tuple,
            "instr_hash_tuple": self.instr_hash_tuple,
            "instr_probe_table": self.instr_probe_table,
        }
        for name, value in non_negative.items():
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
            if value < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value}")

    @property
    def seconds_per_instruction(self) -> float:
        """CPU time per instruction (``1 / (MIPS * 10^6)``)."""
        return 1.0 / (self.cpu_mips * 1e6)

    def cpu_seconds(self, instructions: float) -> float:
        """Convert an instruction count to CPU seconds."""
        if instructions < 0:
            raise ConfigurationError(f"instruction count must be >= 0, got {instructions}")
        return instructions * self.seconds_per_instruction

    def pages(self, tuples: int) -> int:
        """Pages occupied by ``tuples`` tuples, rounded up."""
        if tuples < 0:
            raise ConfigurationError(f"tuple count must be >= 0, got {tuples}")
        return -(-tuples // self.tuples_per_page)

    def bytes_of(self, tuples: int) -> int:
        """Size in bytes of ``tuples`` tuples."""
        if tuples < 0:
            raise ConfigurationError(f"tuple count must be >= 0, got {tuples}")
        return tuples * self.tuple_bytes

    def communication_model(self) -> CommunicationModel:
        """The Section 4.3 communication model with these parameters."""
        return CommunicationModel(
            alpha=self.alpha_startup_seconds, beta=self.beta_seconds_per_byte
        )

    def scaled(self, **overrides: float) -> "SystemParameters":
        """Return a copy with some fields replaced (sensitivity studies)."""
        return replace(self, **overrides)


#: The exact Table 2 configuration used throughout the paper's evaluation.
PAPER_PARAMETERS = SystemParameters()
