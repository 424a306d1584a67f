"""Tests for coarse-grain parallelism quantification (Section 4, Prop. 4.1)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro import (
    CommunicationModel,
    ConfigurationError,
    WorkVector,
    granularity_ratio,
    is_coarse_grain,
    processing_area,
)


class TestProcessingArea:
    def test_is_component_sum(self):
        assert processing_area(WorkVector([1.0, 2.0, 3.0])) == 6.0

    def test_zero_vector(self):
        assert processing_area(WorkVector.zeros(3)) == 0.0


class TestCommunicationModel:
    def test_area_formula(self):
        # W_c(op, N) = alpha*N + beta*D (Section 4.3).
        model = CommunicationModel(alpha=0.015, beta=0.6e-6)
        assert math.isclose(model.communication_area(10, 1e6), 0.15 + 0.6)

    def test_components(self):
        model = CommunicationModel(alpha=0.015, beta=0.6e-6)
        assert math.isclose(model.startup_cost(4), 0.06)
        assert math.isclose(model.transfer_cost(2e6), 1.2)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            CommunicationModel(alpha=-1.0, beta=0.0)
        with pytest.raises(ConfigurationError):
            CommunicationModel(alpha=0.0, beta=-1.0)

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, field, value):
        kwargs = {"alpha": 0.015, "beta": 0.6e-6, field: value}
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            CommunicationModel(**kwargs)

    def test_bad_degree_rejected(self):
        model = CommunicationModel(alpha=0.015, beta=0.6e-6)
        with pytest.raises(ConfigurationError):
            model.communication_area(0, 1e6)
        with pytest.raises(ConfigurationError):
            model.startup_cost(0)

    def test_negative_volume_rejected(self):
        model = CommunicationModel(alpha=0.015, beta=0.6e-6)
        with pytest.raises(ConfigurationError):
            model.communication_area(1, -1.0)
        with pytest.raises(ConfigurationError):
            model.transfer_cost(-1.0)


class TestNMax:
    def test_proposition_4_1_formula(self):
        model = CommunicationModel(alpha=0.015, beta=0.6e-6)
        # N_max = floor((f*W_p - beta*D)/alpha)
        f, w_p, d_bytes = 0.7, 30.0, 1e6
        expected = math.floor((0.7 * 30.0 - 0.6) / 0.015)
        assert model.n_max(f, w_p, d_bytes) == expected

    def test_floor_at_one(self):
        model = CommunicationModel(alpha=0.015, beta=0.6e-6)
        # Tiny processing area: communication dominates, degree clamps to 1.
        assert model.n_max(0.5, 0.001, 1e6) == 1

    def test_zero_alpha_sentinel(self):
        model = CommunicationModel(alpha=0.0, beta=0.6e-6)
        assert model.n_max(0.7, 10.0, 1e3) == 2**31
        assert model.n_max(0.7, 0.0, 1e6) == 1

    @pytest.mark.parametrize("alpha", [1e-10, 1e-20, 1e-200, 1e-300, 1e-320, 5e-324])
    def test_tiny_alpha_returns_the_sentinel(self, alpha):
        # The quotient (7e10 .. inf) is past any cluster size: the bound
        # is the alpha == 0 sentinel, at once and without an OverflowError.
        model = CommunicationModel(alpha=alpha, beta=0.0)
        assert model.n_max(0.7, 10.0, 0.0) == 2**31

    def test_quotient_just_below_the_sentinel_is_settled(self):
        # 7 / (7 / (2**31 - 1)) lands on (or a step from) 2**31 - 1, which
        # the Definition 4.1 test then settles exactly as before.
        model = CommunicationModel(alpha=7.0 / (2**31 - 1), beta=0.0)
        n = model.n_max(0.7, 10.0, 0.0)
        assert 2**31 - 2 <= n <= 2**31
        assert model.alpha * n <= 7.0 < model.alpha * (n + 1)

    def test_overflowing_transfer_floors_at_one(self):
        # beta*D overflows to inf, so the quotient is -inf, not an error.
        model = CommunicationModel(alpha=0.015, beta=1e300)
        assert model.n_max(0.7, 10.0, 1e300) == 1

    def test_invalid_f(self):
        model = CommunicationModel(alpha=0.015, beta=0.6e-6)
        with pytest.raises(ConfigurationError):
            model.n_max(0.0, 10.0, 0.0)
        with pytest.raises(ConfigurationError):
            model.n_max(-0.5, 10.0, 0.0)

    @pytest.mark.parametrize(
        "args, field",
        [
            ((math.nan, 10.0, 0.0), "granularity parameter f"),
            ((math.inf, 10.0, 0.0), "granularity parameter f"),
            ((0.7, math.nan, 0.0), "processing area w_p"),
            ((0.7, math.inf, 0.0), "processing area w_p"),
            ((0.7, 10.0, math.nan), "data_volume"),
            ((0.7, 10.0, math.inf), "data_volume"),
            ((0.7, 10.0, -math.inf), "data_volume"),
        ],
    )
    def test_non_finite_arguments_rejected(self, args, field):
        model = CommunicationModel(alpha=0.015, beta=0.6e-6)
        with pytest.raises(ConfigurationError, match=field):
            model.n_max(*args)

    def test_negative_processing_area(self):
        model = CommunicationModel(alpha=0.015, beta=0.6e-6)
        with pytest.raises(ConfigurationError):
            model.n_max(0.7, -1.0, 0.0)

    @given(
        st.floats(min_value=0.05, max_value=2.0),
        st.floats(min_value=0.0, max_value=1e3),
        st.floats(min_value=0.0, max_value=1e7),
    )
    def test_n_max_execution_is_coarse_grain(self, f, w_p, d_bytes):
        """The degree returned by Prop 4.1 satisfies Definition 4.1...

        ...whenever any degree above 1 does (the clamp to 1 exists exactly
        because some operators admit no coarse-grain parallel execution).
        """
        model = CommunicationModel(alpha=0.015, beta=0.6e-6)
        n = model.n_max(f, w_p, d_bytes)
        if n > 1:
            # A hair of slack absorbs the floor()'s floating-point edge
            # (f*w_p - beta*D landing exactly on a multiple of alpha).
            area = model.communication_area(n, d_bytes)
            assert area <= f * w_p * (1 + 1e-9) + 1e-12
            # And n is maximal: n+1 violates the condition.
            assert not is_coarse_grain(
                w_p, model.communication_area(n + 1, d_bytes), f
            )

    def test_n_max_exact_boundary_survives_rounding(self):
        # 0.75 * 0.3 / 0.015 rounds to 14.999..., yet 15 * 0.015 <= 0.225.
        model = CommunicationModel(alpha=0.015, beta=0.6e-6)
        assert model.n_max(0.75, 0.3, 0.0) == 15
        assert is_coarse_grain(0.3, model.communication_area(15, 0.0), 0.75)

    @given(
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.0, max_value=1e3),
        st.floats(min_value=0.0, max_value=1e7),
    )
    def test_n_max_monotone_in_f(self, f1, f2, w_p, d_bytes):
        model = CommunicationModel(alpha=0.015, beta=0.6e-6)
        lo, hi = sorted([f1, f2])
        assert model.n_max(lo, w_p, d_bytes) <= model.n_max(hi, w_p, d_bytes)


class TestGranularityPredicates:
    def test_ratio(self):
        assert granularity_ratio(10.0, 5.0) == 0.5

    def test_ratio_zero_processing(self):
        assert granularity_ratio(0.0, 5.0) == math.inf
        assert granularity_ratio(0.0, 0.0) == 0.0

    def test_is_coarse_grain_definition(self):
        # Definition 4.1: W_c <= f * W_p.
        assert is_coarse_grain(10.0, 6.9, 0.7)
        assert is_coarse_grain(10.0, 7.0, 0.7)
        assert not is_coarse_grain(10.0, 7.1, 0.7)

    def test_is_coarse_grain_invalid_f(self):
        with pytest.raises(ConfigurationError):
            is_coarse_grain(10.0, 5.0, 0.0)
