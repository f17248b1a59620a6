"""Receiver noise and report quantisation.

Two non-idealities matter for RFIPad's accuracy story:

* **Thermal noise at the reader.**  Phase and RSS jitter grow as the
  backscatter SNR falls — this is the mechanism behind Fig. 17 (error
  rate vs TX power) and Fig. 19 (error vs reader-to-tag distance).  We add
  circular complex Gaussian noise to the baseband sample, from which both
  the reported RSS wiggle and phase jitter follow with the textbook
  ``sigma_phase ~ 1/sqrt(2*SNR)`` behaviour at high SNR.

* **Report quantisation.**  Commodity readers report phase in fixed steps
  (0.0015 rad for the Impinj family the paper uses) and RSS in 0.5 dB
  steps.  Quantisation bounds the best-case resolution of the pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..units import PHASE_QUANTUM_RAD, RSS_QUANTUM_DB, TWO_PI, dbm_to_watts


#: Thermal noise floor of a commodity UHF reader front end (dBm).  kTB for
#: ~1 MHz bandwidth is -114 dBm; add a ~10 dB noise figure.
DEFAULT_NOISE_FLOOR_DBM = -104.0


@dataclass(frozen=True)
class ReceiverNoise:
    """Noise + quantisation model applied to each tag read."""

    noise_floor_dbm: float = DEFAULT_NOISE_FLOOR_DBM
    phase_quantum_rad: float = PHASE_QUANTUM_RAD
    rss_quantum_db: float = RSS_QUANTUM_DB
    #: Extra phase jitter (radians) independent of SNR: local-oscillator
    #: drift and timing jitter.  Keeps static traces realistically non-flat
    #: even at high SNR (cf. the per-tag std floors in Fig. 5).
    residual_phase_jitter_rad: float = 0.004
    #: Front-end impairments at low signal level: below ``agc_reference_dbm``
    #: the reader's AGC gain steps and coarse I/Q quantisation add phase and
    #: RSS jitter that grows with the signal deficit.  This — much more than
    #: thermal noise — is why commodity-reader phase gets ragged when the
    #: backscatter is weak, and it drives the TX-power error trend (Fig. 17).
    agc_reference_dbm: float = -25.0
    agc_phase_slope_rad_per_db: float = 0.0045
    agc_rss_slope_db_per_db: float = 0.035
    base_rss_jitter_db: float = 0.15

    # cached_property writes straight into __dict__, which bypasses the
    # frozen-dataclass setattr guard — safe here because both values are
    # pure functions of frozen fields.
    @cached_property
    def noise_floor_w(self) -> float:
        return dbm_to_watts(self.noise_floor_dbm)

    @cached_property
    def _iq_sigma(self) -> float:
        return math.sqrt(self.noise_floor_w / 2.0)

    def snr_linear(self, signal_power_w: float) -> float:
        if signal_power_w <= 0.0:
            return 0.0
        return signal_power_w / self.noise_floor_w

    def observe_many(
        self, baseband: np.ndarray, z: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Turn M noiseless baseband voltages into reported (rss_dbm, phase).

        ``baseband`` is the complex ``(M,)`` voltage at the reader (channel
        plus circuit phase); ``z`` the ``(M, 4)`` standard-normal draws of
        each read, in the order I, Q, RSS jitter, phase jitter.  Returns the
        RSS in dBm quantised to ``rss_quantum_db`` (floored at -120 dBm) and
        the phase wrapped into [0, 2*pi) and quantised to
        ``phase_quantum_rad``, as ``(M,)`` arrays.

        One whole-array pass.  It matches the scalar reference
        (``observe_with_draws`` in ``tests/physics/read_oracles.py``) report
        for report: numpy's ``log10``/``arctan2``/``hypot`` may differ from
        libm in the last ulp, and only a value within that ulp of a
        quantisation boundary would round differently (DESIGN.md §13).
        """
        sigma = self._iq_sigma
        re = baseband.real + z[:, 0] * sigma
        im = baseband.imag + z[:, 1] * sigma
        power_mw = (re * re + im * im) * 1000.0
        # p <= 0 has no dBm: its log is -inf, which the floor clamps.
        log_mw = np.log10(power_mw, out=np.full(power_mw.shape, -np.inf), where=power_mw > 0.0)
        rss = np.maximum(-120.0, 10.0 * log_mw)

        # Low-signal front-end impairments (AGC steps, coarse I/Q).
        deficit = np.maximum(0.0, self.agc_reference_dbm - rss)
        phase_sigma = np.hypot(
            self.residual_phase_jitter_rad, self.agc_phase_slope_rad_per_db * deficit
        )
        rss_sigma = self.base_rss_jitter_db + self.agc_rss_slope_db_per_db * deficit

        rss = _quantise(rss + z[:, 2] * rss_sigma, self.rss_quantum_db)
        phase = np.arctan2(im, re) + z[:, 3] * phase_sigma
        # Quantisation can land exactly on 2*pi; wrap again.
        return rss, _wrap(_quantise(_wrap(phase), self.phase_quantum_rad))

    def phase_std_estimate(self, signal_power_w: float) -> float:
        """Predicted phase std (radians) at a given backscatter power.

        High-SNR approximation 1/sqrt(2*SNR) combined with the residual
        jitter floor; used by tests and by the calibration sanity checks.
        """
        snr = self.snr_linear(signal_power_w)
        if snr <= 0.0:
            return math.pi / math.sqrt(3.0)  # uniform phase: no signal
        thermal = 1.0 / math.sqrt(2.0 * snr)
        return math.hypot(thermal, self.residual_phase_jitter_rad)


def _wrap(phase: np.ndarray) -> np.ndarray:
    """:func:`~repro.units.wrap_phase` over an array: into [0, 2*pi)."""
    wrapped = np.fmod(phase, TWO_PI)
    wrapped = np.where(wrapped < 0.0, wrapped + TWO_PI, wrapped)
    # fmod can return TWO_PI itself through rounding; normalise.
    return np.where(wrapped >= TWO_PI, wrapped - TWO_PI, wrapped)


def _quantise(value: np.ndarray, quantum: float) -> np.ndarray:
    """:func:`~repro.units.quantise` over an array: ``np.rint`` rounds half
    to even, as Python's ``round`` does."""
    if quantum <= 0.0:
        return value
    return np.rint(value / quantum) * quantum
