"""Tests for the NBTI model and lifetime analysis."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.aging.lifetime import (
    delay_curve,
    lifetime_improvement,
    lifetime_years,
)
from repro.aging.nbti import NBTIModel
from repro.errors import ConfigurationError

utils = st.floats(min_value=0.01, max_value=1.0)


@pytest.fixture
def model():
    return NBTIModel()


class TestEquationOne:
    def test_calibration_point(self, model):
        """10% delay increase at 3 years, u=1 (paper Section IV-A)."""
        assert model.delay_increase(3.0, 1.0) == pytest.approx(0.10)

    def test_delta_vt_scales_with_vdd_fourth_power(self):
        low = NBTIModel(vdd=0.6)
        high = NBTIModel(vdd=1.2)
        ratio = high.delta_vt(1.0, 1.0) / low.delta_vt(1.0, 1.0)
        assert ratio == pytest.approx(2.0**4)

    def test_delta_vt_temperature_dependence(self):
        cold = NBTIModel(temperature_k=300.0)
        hot = NBTIModel(temperature_k=400.0)
        assert hot.delta_vt(1.0, 1.0) > cold.delta_vt(1.0, 1.0)

    def test_sixth_root_time_dependence(self, model):
        one = model.delta_vt(1.0, 1.0)
        sixty_four = model.delta_vt(64.0, 1.0)
        assert sixty_four / one == pytest.approx(2.0)

    def test_sixth_root_utilization_dependence(self, model):
        full = model.delta_vt(1.0, 1.0)
        fraction = model.delta_vt(1.0, 1.0 / 64.0)
        assert full / fraction == pytest.approx(2.0)

    def test_zero_utilization_means_no_aging(self, model):
        assert model.delta_vt(10.0, 0.0) == 0.0
        assert model.years_to_degradation(0.0) == math.inf

    def test_input_validation(self, model):
        with pytest.raises(ValueError):
            model.delta_vt(-1.0, 0.5)
        with pytest.raises(ValueError):
            model.delta_vt(1.0, 1.5)
        with pytest.raises(ValueError):
            model.years_to_degradation(0.5, threshold=-0.1)
        with pytest.raises(ConfigurationError):
            NBTIModel(temperature_k=-2)
        with pytest.raises(ConfigurationError):
            NBTIModel(vdd=0)

    def test_nan_rejected(self, model):
        with pytest.raises(ValueError):
            model.delta_vt(float("nan"), 0.5)
        with pytest.raises(ValueError):
            model.delta_vt(1.0, float("nan"))
        with pytest.raises(ValueError):
            model.years_to_degradation(float("nan"))
        with pytest.raises(ValueError):
            model.delta_vt(3.0, np.array([0.5, float("nan")]))

    def test_batched_matches_scalar(self, model):
        utils_matrix = np.array([[1.0, 0.5], [0.25, 0.125]])
        batched = model.delta_vt(3.0, utils_matrix)
        for row in range(2):
            for col in range(2):
                assert batched[row, col] == pytest.approx(
                    model.delta_vt(3.0, float(utils_matrix[row, col]))
                )
        lifetimes = model.years_to_degradation(utils_matrix)
        assert lifetimes.shape == (2, 2)
        assert lifetimes[0, 0] == pytest.approx(3.0)

    @given(u=utils)
    def test_monotonic_in_utilization(self, u):
        model = NBTIModel()
        assert model.delay_increase(3.0, u) <= model.delay_increase(3.0, 1.0)

    @given(u=utils, years=st.floats(min_value=0.1, max_value=30.0))
    def test_inversion_round_trip(self, u, years):
        model = NBTIModel()
        degradation = model.delay_increase(years, u)
        recovered = model.years_to_degradation(u, threshold=degradation)
        assert recovered == pytest.approx(years, rel=1e-6)


class TestLifetime:
    def test_closed_form(self, model):
        """lifetime(u) = 3 years / u under default calibration."""
        assert lifetime_years(model, 1.0) == pytest.approx(3.0)
        assert lifetime_years(model, 0.5) == pytest.approx(6.0)
        assert lifetime_years(model, 0.25) == pytest.approx(12.0)

    def test_improvement_equals_util_ratio_table1(self, model):
        """The three Table I rows compose as worst-util ratios."""
        assert lifetime_improvement(model, 0.945, 0.411) == pytest.approx(
            2.29, abs=0.01
        )
        assert lifetime_improvement(model, 0.981, 0.224) == pytest.approx(
            4.37, abs=0.02
        )
        assert lifetime_improvement(model, 0.981, 0.123) == pytest.approx(
            7.97, abs=0.03
        )

    @given(u_base=utils, u_prop=utils)
    def test_improvement_ratio_property(self, u_base, u_prop):
        model = NBTIModel()
        improvement = lifetime_improvement(model, u_base, u_prop)
        assert improvement == pytest.approx(u_base / u_prop, rel=1e-9)

    def test_delay_curve_monotonic(self, model):
        years = np.linspace(0.1, 10, 25)
        curve = delay_curve(model, 0.9, years)
        assert (np.diff(curve) > 0).all()

    def test_be_scenario_lifetimes(self, model):
        """BE: 10% degradation at ~3 years baseline vs ~7 proposed."""
        baseline_years = lifetime_years(model, 0.945)
        proposed_years = lifetime_years(model, 0.411)
        assert baseline_years == pytest.approx(3.17, abs=0.01)
        assert proposed_years == pytest.approx(7.30, abs=0.01)
