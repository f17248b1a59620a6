"""Property tests for the OTSU threshold."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.otsu import between_class_variance, otsu_threshold

value_sets = arrays(
    dtype=float,
    shape=st.integers(min_value=1, max_value=80),
    elements=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)


@given(value_sets)
def test_threshold_within_range(values):
    thr = otsu_threshold(values)
    assert values.min() <= thr <= values.max()


@given(value_sets)
def test_shift_equivariance(values):
    thr = otsu_threshold(values)
    shifted = otsu_threshold(values + 13.0)
    assert shifted == pytest.approx(thr + 13.0, abs=1e-6 + 0.05 * np.ptp(values))


@given(value_sets, st.floats(min_value=0.1, max_value=10.0))
@example(values=np.array([66.0, 0.0, 0.0, 74.0, 35.0]), scale=3.0)
def test_scale_equivariance(values, scale):
    thr = otsu_threshold(values)
    scaled = otsu_threshold(values * scale)
    assert scaled == pytest.approx(thr * scale, abs=1e-6 + 0.05 * scale * max(np.ptp(values), 1e-9))


@given(
    st.integers(min_value=2, max_value=30),
    st.integers(min_value=2, max_value=30),
    st.floats(min_value=5.0, max_value=50.0),
)
def test_separated_clusters_split(n_low, n_high, gap):
    rng = np.random.default_rng(0)
    low = rng.uniform(0.0, 1.0, n_low)
    high = rng.uniform(gap, gap + 1.0, n_high)
    values = np.concatenate([low, high])
    thr = otsu_threshold(values)
    assert low.max() <= thr <= high.min() + 1e-9


@given(value_sets)
def test_between_class_variance_nonnegative(values):
    thr = otsu_threshold(values)
    assert between_class_variance(values, thr) >= 0.0
