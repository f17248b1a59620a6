import numpy as np
import pytest

from repro.physics.coupling import TAG_DESIGN_B
from repro.physics.geometry import Vec3
from repro.rfid.tag import (
    DEFAULT_IC_SENSITIVITY_DBM,
    Tag,
    make_epc,
    sample_ic_sensitivity_dbm,
    sample_modulation_efficiency,
    sample_theta_tag,
)
from repro.units import TWO_PI, dbm_to_watts


def _tag(**kwargs) -> Tag:
    defaults = dict(epc="E200-0001", index=0, position=Vec3(0, 0, 0))
    defaults.update(kwargs)
    return Tag(**defaults)


def test_power_threshold():
    tag = _tag(ic_sensitivity_dbm=-17.0)
    assert tag.is_powered(dbm_to_watts(-16.0))
    assert tag.is_powered(dbm_to_watts(-17.0))
    assert not tag.is_powered(dbm_to_watts(-18.0))


def test_gain_linear_from_design():
    tag = _tag(design=TAG_DESIGN_B)
    assert tag.gain_linear == pytest.approx(10 ** (TAG_DESIGN_B.gain_dbi / 10.0))


def test_validation():
    with pytest.raises(ValueError):
        _tag(epc="")
    with pytest.raises(ValueError):
        _tag(modulation_efficiency=0.0)
    with pytest.raises(ValueError):
        _tag(modulation_efficiency=1.5)
    with pytest.raises(ValueError):
        _tag(static_shadow_db=-1.0)


def test_make_epc_unique_and_deterministic():
    epcs = [make_epc(i) for i in range(100)]
    assert len(set(epcs)) == 100
    assert make_epc(7) == make_epc(7)
    with pytest.raises(ValueError):
        make_epc(-1)


def test_theta_tag_spread(rng):
    draws = [sample_theta_tag(rng) for _ in range(500)]
    assert all(0.0 <= d < TWO_PI for d in draws)
    # Uniform over the circle: mean resultant length should be small.
    resultant = abs(np.exp(1j * np.array(draws)).mean())
    assert resultant < 0.15


def test_modulation_efficiency_bounds(rng):
    draws = [sample_modulation_efficiency(rng) for _ in range(500)]
    assert all(0.05 <= d <= 1.0 for d in draws)
    assert np.mean(draws) == pytest.approx(0.25, abs=0.02)


def test_ic_sensitivity_spread(rng):
    draws = [sample_ic_sensitivity_dbm(rng) for _ in range(500)]
    assert np.mean(draws) == pytest.approx(DEFAULT_IC_SENSITIVITY_DBM, abs=0.2)
    assert 0.2 < np.std(draws) < 1.0
