"""Tests for the Table 2 system parameters."""

from __future__ import annotations

import math

import pytest

from repro import PAPER_PARAMETERS, ConfigurationError, SystemParameters


class TestPaperValues:
    def test_table2_exact_values(self):
        p = PAPER_PARAMETERS
        assert p.cpu_mips == 1.0
        assert p.disk_seconds_per_page == 0.020
        assert p.alpha_startup_seconds == 0.015
        assert p.beta_seconds_per_byte == 0.6e-6
        assert p.tuple_bytes == 128
        assert p.tuples_per_page == 40
        assert p.instr_read_page == 5_000
        assert p.instr_write_page == 5_000
        assert p.instr_extract_tuple == 300
        assert p.instr_hash_tuple == 100
        assert p.instr_probe_table == 200

    def test_seconds_per_instruction(self):
        assert math.isclose(PAPER_PARAMETERS.seconds_per_instruction, 1e-6)

    def test_communication_model_wiring(self):
        comm = PAPER_PARAMETERS.communication_model()
        assert comm.alpha == 0.015
        assert comm.beta == 0.6e-6


class TestHelpers:
    def test_cpu_seconds(self):
        assert math.isclose(PAPER_PARAMETERS.cpu_seconds(5_000), 0.005)

    def test_cpu_seconds_negative(self):
        with pytest.raises(ConfigurationError):
            PAPER_PARAMETERS.cpu_seconds(-1)

    def test_pages(self):
        assert PAPER_PARAMETERS.pages(0) == 0
        assert PAPER_PARAMETERS.pages(40) == 1
        assert PAPER_PARAMETERS.pages(41) == 2

    def test_pages_negative(self):
        with pytest.raises(ConfigurationError):
            PAPER_PARAMETERS.pages(-1)

    def test_bytes_of(self):
        assert PAPER_PARAMETERS.bytes_of(10) == 1_280

    def test_bytes_negative(self):
        with pytest.raises(ConfigurationError):
            PAPER_PARAMETERS.bytes_of(-1)

    def test_scaled_override(self):
        fast = PAPER_PARAMETERS.scaled(cpu_mips=10.0)
        assert fast.cpu_mips == 10.0
        assert fast.disk_seconds_per_page == PAPER_PARAMETERS.disk_seconds_per_page
        # Original untouched (frozen dataclass).
        assert PAPER_PARAMETERS.cpu_mips == 1.0


class TestValidation:
    def test_zero_mips_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemParameters(cpu_mips=0.0)

    def test_negative_disk_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemParameters(disk_seconds_per_page=-1.0)

    def test_zero_tuple_bytes_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemParameters(tuple_bytes=0)

    def test_negative_instruction_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemParameters(instr_hash_tuple=-5)

    @pytest.mark.parametrize(
        "field",
        [
            "cpu_mips",
            "disk_seconds_per_page",
            "alpha_startup_seconds",
            "beta_seconds_per_byte",
            "tuple_bytes",
            "tuples_per_page",
            "instr_read_page",
            "instr_write_page",
            "instr_extract_tuple",
            "instr_hash_tuple",
            "instr_probe_table",
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_by_name(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            SystemParameters(**{field: value})

    def test_hashable_for_caching(self):
        # prepare_workload caches on SystemParameters; it must be hashable.
        assert hash(SystemParameters()) == hash(SystemParameters())
