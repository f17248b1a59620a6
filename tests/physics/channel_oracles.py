"""Whole-population batch reference of the channel engine.

These are the engine's batch-tier methods, kept as functions over a
:class:`~repro.physics.channel_vec.ChannelEngine` once the reader stopped
calling them: the coherent ray sum for every tag at once from general
``Scatterer`` lists, per-tag losses and optional fluttered coefficients.
The tests check them against ``ChannelModel`` to <= 1e-9 relative error,
and the production readability kernel (``ChannelEngine.scene_powers``)
against them bit for bit.  Nothing in ``src/`` may import this module.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.physics.channel import Scatterer
from repro.physics.channel_vec import ChannelEngine


def shadow_attenuation_db_batch(
    engine: ChannelEngine, scatterers: Iterable[Scatterer]
) -> np.ndarray:
    """Per-tag near-field blockage (dB), vectorized over tags."""
    p = engine.tag_positions_np
    total = np.zeros(len(p))
    for sc in scatterers:
        if sc.shadow_depth_db <= 0.0:
            continue
        lateral = np.hypot(sc.position.x - p[:, 0], sc.position.y - p[:, 1])
        vertical = np.abs(sc.position.z - p[:, 2])
        total += sc.shadow_depth_db * np.exp(
            -0.5 * (lateral / sc.shadow_lateral_scale) ** 2
            - 0.5 * (vertical / sc.shadow_vertical_scale) ** 2
        )
    return total


def detuning_phase_batch(
    engine: ChannelEngine, scatterers: Iterable[Scatterer]
) -> np.ndarray:
    """Per-tag near-field resonance phase shift (radians)."""
    p = engine.tag_positions_np
    total = np.zeros(len(p))
    for sc in scatterers:
        if sc.detune_rad == 0.0:
            continue
        lateral = np.hypot(sc.position.x - p[:, 0], sc.position.y - p[:, 1])
        vertical = np.abs(sc.position.z - p[:, 2])
        total += sc.detune_rad * np.exp(
            -0.5 * (lateral / sc.detune_lateral_scale) ** 2
            - 0.5 * (vertical / sc.detune_vertical_scale) ** 2
        )
    return total


def one_way_batch(
    engine: ChannelEngine,
    scatterers: Iterable[Scatterer] = (),
    direct_extra_loss_db: "np.ndarray | float | None" = None,
    gammas: Optional[Sequence[complex]] = None,
    base: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Complex one-way channel g(reader -> tag) for every tag at once.

    ``direct_extra_loss_db`` is a scalar or per-tag ``(N,)`` vector of
    extra direct-path losses (static coupling shadow + LOS occlusion).
    ``gammas`` overrides the nominal reflection coefficients (flutter);
    ``None`` reuses the cached nominal reflector sum.  ``base`` is a
    precomputed ``engine.static_base`` result that replaces the direct and
    reflector terms entirely (both loss and gamma arguments are then
    ignored).
    """
    scs = list(scatterers)
    if base is not None:
        g = base
    else:
        g = (
            engine.a_direct_np
            * engine._direct_loss_factor(direct_extra_loss_db)
            * engine.exp_direct_np
        )
        g = g + (
            engine._nominal_reflector_sum
            if gammas is None
            else engine._reflector_sum(gammas)
        )

    if scs:
        # One (S, N) broadcast over all scatterer hops, with the antenna
        # pattern inlined (the direction-cosine formula of
        # ReaderAntenna.gain_towards).
        sc_pos = np.array([sc.position.as_tuple() for sc in scs])
        sc_rcs = np.array([sc.rcs_m2 for sc in scs])
        diff0 = sc_pos - engine._ant_np
        d1 = np.sqrt(np.einsum("ij,ij->i", diff0, diff0))
        d1_safe = np.where(d1 > 0.0, d1, 1.0)
        cos_t = np.clip((diff0 @ engine._boresight_np) / d1_safe, -1.0, 1.0)
        if engine._pattern_n > 0.0:
            pattern = np.maximum(
                np.maximum(cos_t, 0.0) ** engine._pattern_n, engine._back_lobe
            )
        else:
            pattern = np.where(cos_t >= 0.0, 1.0, engine._back_lobe)
        gr_sc = engine._gain_linear * pattern
        diff = engine.tag_positions_np[None, :, :] - sc_pos[:, None, :]
        d2 = np.sqrt(np.einsum("snk,snk->sn", diff, diff))
        valid = (d1[:, None] > 0.0) & (d2 > 0.0)
        d2_safe = np.where(valid, d2, 1.0)
        amp = np.sqrt(
            (gr_sc * sc_rcs)[:, None] * engine.tag_gains_np * engine._scatter_const
        ) / (d1_safe[:, None] * d2_safe)
        contrib = amp * np.exp(engine._neg_jk * (d1_safe[:, None] + d2_safe))
        if not valid.all():
            contrib = np.where(valid, contrib, 0.0)
        g = g + contrib.sum(axis=0)

    shadow_db = shadow_attenuation_db_batch(engine, scs)
    if np.any(shadow_db > 0.0):
        g = g * np.where(shadow_db > 0.0, 10.0 ** (-shadow_db / 20.0), 1.0)
    return g


def incident_power_batch(
    engine: ChannelEngine,
    tx_power_w: float,
    scatterers: Iterable[Scatterer] = (),
    direct_extra_loss_db: "np.ndarray | float | None" = None,
) -> np.ndarray:
    """Forward-link power (watts) at every tag's antenna port."""
    if tx_power_w <= 0.0:
        raise ValueError(f"tx power must be positive, got {tx_power_w}")
    g = one_way_batch(engine, scatterers, direct_extra_loss_db)
    return tx_power_w * np.abs(g) ** 2


def roundtrip_batch(
    engine: ChannelEngine,
    tx_power_w: float,
    tag_modulation_efficiency: "np.ndarray | float" = 0.25,
    scatterers: Iterable[Scatterer] = (),
    direct_extra_loss_db: "np.ndarray | float | None" = None,
    gammas: Optional[Sequence[complex]] = None,
) -> np.ndarray:
    """Complex baseband backscatter voltage at the reader, per tag."""
    g = one_way_batch(engine, scatterers, direct_extra_loss_db, gammas)
    return np.sqrt(tx_power_w * np.asarray(tag_modulation_efficiency)) * g * g
