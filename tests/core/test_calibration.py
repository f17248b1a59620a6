import numpy as np
import pytest

from repro.core.calibration import (
    StaticCalibration,
    calibrate,
    circular_mean,
    circular_std,
)
from repro.rfid.reports import ReportLog, TagReadReport
from repro.units import TWO_PI


def _static_log(phases_by_tag: dict, rss: float = -40.0) -> ReportLog:
    log = ReportLog()
    for tag, phases in phases_by_tag.items():
        for i, p in enumerate(phases):
            log.append(
                TagReadReport(
                    epc=f"E-{tag}", tag_index=tag, timestamp=i * 0.05 + tag * 0.001,
                    phase_rad=p % TWO_PI, rss_dbm=rss,
                )
            )
    return log


class TestCircularStats:
    def test_mean_simple(self):
        assert circular_mean(np.array([1.0, 1.2, 0.8])) == pytest.approx(1.0)

    def test_mean_across_boundary(self):
        phases = np.array([0.1, TWO_PI - 0.1])
        mean = circular_mean(phases)
        assert min(mean, TWO_PI - mean) < 1e-6

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            circular_mean(np.array([]))

    def test_std_concentrated_matches_linear(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(3.0, 0.05, 2000)
        assert circular_std(np.mod(samples, TWO_PI)) == pytest.approx(0.05, rel=0.1)

    def test_std_across_boundary(self):
        rng = np.random.default_rng(0)
        samples = np.mod(rng.normal(0.0, 0.05, 2000), TWO_PI)
        assert circular_std(samples) == pytest.approx(0.05, rel=0.1)

    def test_std_uniform_saturates(self):
        rng = np.random.default_rng(0)
        samples = rng.uniform(0, TWO_PI, 5000)
        assert circular_std(samples) > 1.5


class TestCalibrate:
    def test_per_tag_statistics(self):
        log = _static_log({0: [1.0] * 20, 1: [2.0] * 20})
        cal = calibrate(log)
        assert cal.central_phase(0) == pytest.approx(1.0)
        assert cal.central_phase(1) == pytest.approx(2.0)
        assert cal.tags[0].sample_count == 20

    def test_min_samples_enforced(self):
        log = _static_log({0: [1.0] * 3})
        with pytest.raises(ValueError):
            calibrate(log, min_samples=5)

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            calibrate(ReportLog())

    def test_bias_floor_guards_weights(self):
        log = _static_log({0: [1.0] * 20, 1: [2.0] * 20})  # zero variance
        cal = calibrate(log)
        weights = cal.weights()
        assert all(w > 0 for w in weights.values())
        assert sum(weights.values()) == pytest.approx(1.0)

    def test_noisier_tag_gets_larger_weight(self, rng):
        quiet = np.mod(rng.normal(1.0, 0.01, 50), TWO_PI)
        noisy = np.mod(rng.normal(4.0, 0.3, 50), TWO_PI)
        cal = calibrate(_static_log({0: quiet.tolist(), 1: noisy.tolist()}))
        weights = cal.weights()
        assert weights[1] > weights[0]

    def test_residual_series_centred(self, rng):
        phases = np.mod(rng.normal(6.1, 0.05, 50), TWO_PI)
        cal = calibrate(_static_log({0: phases.tolist()}))
        residual = cal.residual_series(0, phases)
        assert np.all(np.abs(residual) < 0.4)

    def test_mean_rss_recorded(self):
        log = _static_log({0: [1.0] * 10}, rss=-37.5)
        cal = calibrate(log)
        assert cal.mean_rss(0) == -37.5


def test_calibration_from_simulated_reader(shared_runner):
    cal = shared_runner.pad.calibration
    assert len(cal.tags) == 25
    # Static biases are small (fractions of a radian), not garbage.
    assert all(tc.deviation_bias < 1.0 for tc in cal.tags.values())


def test_empty_calibration_rejected():
    with pytest.raises(ValueError):
        StaticCalibration(tags={})
