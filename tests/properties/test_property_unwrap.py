"""Property tests for phase de-periodicity (the pipeline's first stage)."""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.unwrap import fold_to_pi, largest_jump, total_variation, unwrap
from repro.units import TWO_PI, wrap_phase

phases = arrays(
    dtype=float,
    shape=st.integers(min_value=0, max_value=60),
    elements=st.floats(min_value=0.0, max_value=TWO_PI - 1e-9),
)

angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@given(angles)
def test_fold_in_branch(delta):
    folded = fold_to_pi(delta)
    assert -math.pi < folded <= math.pi + 1e-12


@given(angles)
def test_fold_preserves_angle_mod_2pi(delta):
    folded = fold_to_pi(delta)
    assert wrap_phase(folded) == (
        __import__("pytest").approx(wrap_phase(delta), abs=1e-6)
    )


@given(phases)
def test_unwrap_never_jumps_more_than_pi(series):
    assert largest_jump(unwrap(series)) <= math.pi + 1e-9


@given(phases)
def test_unwrap_preserves_wrapped_values(series):
    out = unwrap(series)
    for raw, un in zip(series, out):
        diff = abs(wrap_phase(un) - wrap_phase(raw))
        assert min(diff, TWO_PI - diff) < 1e-6  # circular comparison


@given(phases)
def test_unwrap_idempotent_on_smooth_series(series):
    smooth = unwrap(series)
    again = unwrap(np.mod(smooth, TWO_PI))
    # Re-unwrapping the wrapped smooth series reproduces its differences.
    if smooth.size >= 2:
        assert np.allclose(np.diff(again), np.diff(smooth), atol=1e-6)


@given(
    st.floats(min_value=0.0, max_value=TWO_PI - 1e-6),
    st.floats(min_value=-0.4, max_value=0.4),
    st.integers(min_value=2, max_value=80),
)
def test_unwrap_recovers_linear_drift(start, step, n):
    truth = start + step * np.arange(n)
    recovered = unwrap(np.mod(truth, TWO_PI))
    assert np.allclose(np.diff(recovered), step, atol=1e-6)


@given(phases)
def test_total_variation_nonnegative_and_additive(series):
    tv = total_variation(series)
    assert tv >= 0.0
    if series.size >= 3:
        k = series.size // 2
        left = total_variation(series[: k + 1])
        right = total_variation(series[k:])
        assert tv == __import__("pytest").approx(left + right, rel=1e-9, abs=1e-9)
