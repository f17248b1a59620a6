import pytest

from repro.units import (
    DEFAULT_FREQUENCY_HZ,
    TWO_PI,
    db_to_linear,
    dbm_to_watts,
    linear_to_db,
    quantise,
    watts_to_dbm,
    watts_to_dbm_floor,
    wavelength,
    wrap_phase,
)


def test_wavelength_at_prototype_frequency():
    # 922.38 MHz -> ~32.5 cm, the figure the paper's resolution math uses.
    assert wavelength(DEFAULT_FREQUENCY_HZ) == pytest.approx(0.325, abs=0.001)


def test_wavelength_rejects_nonpositive_frequency():
    with pytest.raises(ValueError):
        wavelength(0.0)


def test_dbm_watts_roundtrip():
    for dbm in (-60.0, -17.0, 0.0, 30.0, 32.5):
        assert watts_to_dbm(dbm_to_watts(dbm)) == pytest.approx(dbm)


def test_watts_to_dbm_rejects_zero():
    with pytest.raises(ValueError):
        watts_to_dbm(0.0)


def test_watts_to_dbm_floor_clamps():
    assert watts_to_dbm_floor(0.0) == -120.0
    assert watts_to_dbm_floor(1e-30, floor_dbm=-90.0) == -90.0


def test_db_linear_roundtrip():
    assert linear_to_db(db_to_linear(8.0)) == pytest.approx(8.0)


def test_wrap_phase_range():
    for value in (-10.0, -0.1, 0.0, 3.0, TWO_PI, 100.0):
        wrapped = wrap_phase(value)
        assert 0.0 <= wrapped < TWO_PI


def test_wrap_phase_preserves_angle():
    assert wrap_phase(TWO_PI + 1.0) == pytest.approx(1.0)
    assert wrap_phase(-1.0) == pytest.approx(TWO_PI - 1.0)


def test_quantise_step():
    assert quantise(0.00151, 0.0015) == pytest.approx(0.0015)
    assert quantise(1.24, 0.5) == pytest.approx(1.0)
    assert quantise(1.26, 0.5) == pytest.approx(1.5)


def test_quantise_disabled_for_nonpositive_step():
    assert quantise(1.234, 0.0) == 1.234
    assert quantise(1.234, -1.0) == 1.234
