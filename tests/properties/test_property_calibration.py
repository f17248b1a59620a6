"""Property tests for circular statistics (calibration foundations)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.calibration import circular_mean, circular_std
from repro.units import TWO_PI, wrap_phase


@given(
    st.floats(min_value=0.0, max_value=TWO_PI - 1e-6),
    st.floats(min_value=0.001, max_value=0.3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40)
def test_mean_rotation_equivariance(offset, sigma, seed):
    rng = np.random.default_rng(seed)
    base = np.mod(rng.normal(3.0, sigma, 200), TWO_PI)
    rotated = np.mod(base + offset, TWO_PI)
    expected = wrap_phase(circular_mean(base) + offset)
    actual = circular_mean(rotated)
    diff = abs(actual - expected)
    assert min(diff, TWO_PI - diff) < 1e-6


@given(
    st.floats(min_value=0.0, max_value=TWO_PI - 1e-6),
    st.floats(min_value=0.001, max_value=0.3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40)
def test_std_rotation_invariance(offset, sigma, seed):
    rng = np.random.default_rng(seed)
    base = np.mod(rng.normal(3.0, sigma, 200), TWO_PI)
    rotated = np.mod(base + offset, TWO_PI)
    assert circular_std(rotated) == pytest.approx(circular_std(base), rel=1e-6)


@given(st.floats(min_value=0.0, max_value=TWO_PI - 1e-6))
def test_constant_series(value):
    series = np.full(50, value)
    mean = circular_mean(series)
    diff = abs(mean - value)
    assert min(diff, TWO_PI - diff) < 1e-9
    assert circular_std(series) == pytest.approx(0.0, abs=1e-6)


@given(
    st.floats(min_value=0.001, max_value=0.5),
    st.floats(min_value=0.001, max_value=0.5),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=30)
def test_std_monotone_in_dispersion(sigma_small, sigma_big, seed):
    assume(sigma_big > sigma_small * 1.5)
    rng = np.random.default_rng(seed)
    small = np.mod(rng.normal(1.0, sigma_small, 400), TWO_PI)
    big = np.mod(rng.normal(1.0, sigma_big, 400), TWO_PI)
    assert circular_std(big) > circular_std(small)
