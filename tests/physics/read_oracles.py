"""Scalar per-read references of the reader's emit.

These are the one-read bodies the production code ran before the emit
became whole-array numpy: receiver noise and quantisation over a
:class:`~repro.physics.noise.ReceiverNoise`, the LOS arm-occlusion loss of
one antenna->tag line of sight, and the Doppler finite difference.  They
call libm through ``math``/``cmath`` one value at a time.  The tests check
the production kernels against them (``observe_many`` report for report
with ``==``, the occlusion rows to floating-point noise), and the scalar
reference collect (``tests/rfid/collect_oracles.py``) reads through them.
Nothing in ``src/`` may import this module.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from repro.physics.geometry import Vec3
from repro.physics.hand import OCCLUSION_DEPTH_DB, OCCLUSION_FRESNEL_RADIUS_M, HandPose
from repro.physics.noise import ReceiverNoise
from repro.units import quantise, watts_to_dbm_floor, wrap_phase


def observe(
    noise: ReceiverNoise, baseband: complex, rng: np.random.Generator
) -> "tuple[float, float]":
    """Turn a noiseless baseband voltage into a reported (rss_dbm, phase).

    Returns the quantised RSS in dBm and the quantised wrapped phase in
    [0, 2*pi).  The input carries the channel plus circuit phase; this
    function only adds receiver impairments.  It draws I and Q as one
    batched pair (the same values as two sequential scalar draws), then
    the RSS and phase jitter.
    """
    iq = rng.normal(0.0, noise._iq_sigma, size=2)
    noisy = baseband + complex(iq[0], iq[1])
    power_w = abs(noisy) ** 2
    rss_dbm = watts_to_dbm_floor(power_w)

    # Low-signal front-end impairments (AGC steps, coarse I/Q).
    deficit_db = max(0.0, noise.agc_reference_dbm - rss_dbm)
    phase_sigma = math.hypot(
        noise.residual_phase_jitter_rad,
        noise.agc_phase_slope_rad_per_db * deficit_db,
    )
    rss_sigma = noise.base_rss_jitter_db + noise.agc_rss_slope_db_per_db * deficit_db

    rss_dbm = quantise(rss_dbm + rng.normal(0.0, rss_sigma), noise.rss_quantum_db)
    phase = cmath.phase(noisy) + rng.normal(0.0, phase_sigma)
    phase = quantise(wrap_phase(phase), noise.phase_quantum_rad)
    # Quantisation can land exactly on 2*pi; fold back.
    return rss_dbm, wrap_phase(phase)


def observe_with_draws(
    noise: ReceiverNoise,
    baseband: complex,
    z_iq0: float,
    z_iq1: float,
    z_rss: float,
    z_phase: float,
) -> "tuple[float, float]":
    """:func:`observe` over pre-drawn standard normals (I, Q, RSS, phase —
    the order :func:`observe` consumes them).  ``normal(0, s)`` draws a
    standard normal and scales it by ``s``, so the same stream gives the
    same reports."""
    sigma = noise._iq_sigma
    noisy = baseband + complex(z_iq0 * sigma, z_iq1 * sigma)
    power_w = abs(noisy) ** 2
    rss_dbm = watts_to_dbm_floor(power_w)

    deficit_db = max(0.0, noise.agc_reference_dbm - rss_dbm)
    phase_sigma = math.hypot(
        noise.residual_phase_jitter_rad,
        noise.agc_phase_slope_rad_per_db * deficit_db,
    )
    rss_sigma = noise.base_rss_jitter_db + noise.agc_rss_slope_db_per_db * deficit_db

    rss_dbm = quantise(rss_dbm + z_rss * rss_sigma, noise.rss_quantum_db)
    phase = cmath.phase(noisy) + z_phase * phase_sigma
    phase = quantise(wrap_phase(phase), noise.phase_quantum_rad)
    return rss_dbm, wrap_phase(phase)


def point_to_segment_distance(p: Vec3, a: Vec3, b: Vec3) -> float:
    """Shortest distance from point ``p`` to segment ``ab``."""
    ab = b - a
    denom = ab.dot(ab)
    if denom == 0.0:
        return p.distance_to(a)
    t = (p - a).dot(ab) / denom
    t = max(0.0, min(1.0, t))
    return p.distance_to(a + ab * t)


def occlusion_loss_db(
    antenna_position: Vec3,
    tag_position: Vec3,
    pose: "HandPose | None",
) -> float:
    """Direct-path loss (dB) when the hand/arm cuts the reader-tag LOS.

    Loss is maximal (``OCCLUSION_DEPTH_DB`` per body point) when a body
    point sits on the antenna->tag segment and decays as a Gaussian of its
    clearance relative to ``OCCLUSION_FRESNEL_RADIUS_M``.  Returns 0 for
    ``pose is None`` (no hand in the scene).
    """
    if pose is None:
        return 0.0
    total = 0.0
    for body_point in [pose.position] + pose.arm_points():
        clearance = point_to_segment_distance(body_point, antenna_position, tag_position)
        total += OCCLUSION_DEPTH_DB * math.exp(
            -0.5 * (clearance / OCCLUSION_FRESNEL_RADIUS_M) ** 2
        )
    return total


def doppler_estimate_hz(phase_now: float, phase_prev: float, dt: float) -> float:
    """Doppler shift a reader derives from successive phase reads: the
    finite difference of phase over the read interval, folded to the
    principal branch.  At typical read rates it is dominated by noise —
    the paper's observation (Fig. 2a) that Doppler cannot tell hand
    movements apart."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    dphi = phase_now - phase_prev
    # Fold to the principal branch: |dphi| <= pi.
    while dphi > math.pi:
        dphi -= 2.0 * math.pi
    while dphi < -math.pi:
        dphi += 2.0 * math.pi
    return dphi / (2.0 * math.pi * dt)
