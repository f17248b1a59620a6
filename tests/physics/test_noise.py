import cmath
import math

import numpy as np
import pytest

from repro.physics.noise import ReceiverNoise
from repro.units import dbm_to_watts

from .read_oracles import doppler_estimate_hz, observe_with_draws


@pytest.fixture()
def noise() -> ReceiverNoise:
    return ReceiverNoise()


def _observe(noise, baseband, rng, n):
    """``n`` reads of one baseband voltage through the production path."""
    return noise.observe_many(np.full(n, complex(baseband)), rng.standard_normal((n, 4)))


def test_strong_signal_low_phase_jitter(noise, rng):
    baseband = math.sqrt(dbm_to_watts(-20.0)) * cmath.exp(1j * 1.0)
    _, phases = _observe(noise, baseband, rng, 300)
    assert np.std(phases) < 0.03


def test_weak_signal_higher_phase_jitter(noise, rng):
    strong = math.sqrt(dbm_to_watts(-20.0)) * cmath.exp(1j * 1.0)
    weak = math.sqrt(dbm_to_watts(-60.0)) * cmath.exp(1j * 1.0)
    strong_std = np.std(_observe(noise, strong, rng, 300)[1])
    weak_std = np.std(_observe(noise, weak, rng, 300)[1])
    assert weak_std > 2.0 * strong_std


def test_rss_matches_input_level(noise, rng):
    baseband = math.sqrt(dbm_to_watts(-30.0))
    rss, _ = _observe(noise, baseband, rng, 200)
    assert np.mean(rss) == pytest.approx(-30.0, abs=1.0)


def test_reported_phase_in_range(noise, rng):
    baseband = math.sqrt(dbm_to_watts(-40.0)) * cmath.exp(1j * 5.9)
    _, phases = _observe(noise, baseband, rng, 50)
    assert ((phases >= 0.0) & (phases < 2.0 * math.pi)).all()


def test_phase_quantisation(rng):
    noise = ReceiverNoise(residual_phase_jitter_rad=0.0)
    baseband = math.sqrt(dbm_to_watts(-20.0)) * cmath.exp(1j * 1.0)
    _, phases = _observe(noise, baseband, rng, 20)
    steps = phases / noise.phase_quantum_rad
    assert np.allclose(steps, np.round(steps), rtol=0.0, atol=1e-6)


def test_phase_std_estimate_monotone(noise):
    strong = noise.phase_std_estimate(dbm_to_watts(-20.0))
    weak = noise.phase_std_estimate(dbm_to_watts(-90.0))
    none = noise.phase_std_estimate(0.0)
    assert strong < weak < none
    assert none == pytest.approx(math.pi / math.sqrt(3.0))


def test_doppler_finite_difference():
    # pi/2 phase advance over 0.25 s -> 1 Hz... (dphi/(2*pi*dt)).
    d = doppler_estimate_hz(1.5 + math.pi / 2, 1.5, 0.25)
    assert d == pytest.approx(1.0)


def test_doppler_folds_to_principal_branch():
    d = doppler_estimate_hz(6.2, 0.1, 1.0)
    assert abs(d) <= 0.5  # |dphi| folded to <= pi


def test_doppler_rejects_bad_dt():
    with pytest.raises(ValueError):
        doppler_estimate_hz(1.0, 0.5, 0.0)


def _report_rows(rng: np.random.Generator, n: int):
    """``n`` seeded baseband voltages and draws spanning the cases where
    the whole-array receiver could part from the scalar one."""
    level_dbm = rng.uniform(-115.0, -5.0, n)
    angle = rng.uniform(-math.pi, math.pi, n)
    z = rng.standard_normal((n, 4))
    k = n // 8
    # Deep AGC deficit: backscatter at or under the noise floor.
    level_dbm[:k] = rng.uniform(-140.0, -100.0, k)
    # Phases next to 0 and 2*pi from either side, with and without jitter.
    angle[k:2 * k] = rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-12.0, -3.0, k)
    z[k:2 * k:2, 3] = 0.0
    angle[2 * k:3 * k] = math.pi - 10.0 ** rng.uniform(-12.0, -3.0, k)
    baseband = np.sqrt(10.0 ** (level_dbm / 10.0) / 1000.0) * np.exp(1j * angle)
    # Zero received power: no signal and no I/Q noise.
    baseband[3 * k:3 * k + 100] = 0.0
    z[3 * k:3 * k + 100, :2] = 0.0
    return baseband, z


def test_observe_many_equals_scalar_reference_report_for_report(noise):
    """The whole-array receiver rounds to the scalar reference's reports
    (libm ``abs``/``log10``/``atan2``/``hypot``/``round``/``fmod``, one read
    at a time) on every row: quantisation absorbs numpy's last-ulp
    differences unless a value lies within an ulp of a rounding midpoint."""
    rng = np.random.default_rng(2027)
    n = 120_000
    baseband, z = _report_rows(rng, n)
    rss, phase = noise.observe_many(baseband, z)
    assert rss.shape == phase.shape == (n,)
    mismatched = []
    for i, (b, zi) in enumerate(zip(baseband.tolist(), z.tolist())):
        want = observe_with_draws(noise, b, *zi)
        if (rss[i], phase[i]) != want:
            mismatched.append((i, (rss[i], phase[i]), want))
    assert not mismatched, f"{len(mismatched)} of {n} rows differ, first: {mismatched[:3]}"
    # The rows reach both ends of the phase range and a deep AGC deficit.
    assert (phase == 0.0).any() and (phase > 2.0 * math.pi - 0.002).any()
    assert (noise.agc_reference_dbm - rss > 60.0).sum() > 1000
