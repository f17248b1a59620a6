"""Vectorized channel engine: the production evaluation of Eqs. 1-8.

:class:`ChannelModel` evaluates the coherent ray sum (Eqs. 1-8) one tag at
a time in scalar Python — the right shape for tests and for reasoning, but
the simulation hot path asks the opposite question: *given one scene, what
does every tag see?*  Every inventory round runs on the readable set of
all 25 tags at its start, and the paper-scale batteries replay hundreds of
such sessions.

:class:`ChannelEngine` answers that question for many scenes at once with
numpy: all static geometry — antenna→tag distances, pattern gains,
image-antenna distances, Friis amplitudes — is resolved **once per
deployment** at construction, so an evaluation touches only the
pose-dependent terms (scatterer hops, near-field shadow, LOS occlusion
factors), one row per round of a checked block.

Contract with the scalar reference
----------------------------------
``ChannelModel`` stays the reference implementation, and the engine's
static amplitudes come from its own helpers.  The engine has two paths:

* :meth:`scene_powers_trials` (and its one-row case
  :meth:`scene_powers`) — readability over the whole array, one row per
  inventory round.  It repeats the elementwise operations of the
  whole-population batch reference kept with the tests
  (``tests/physics/channel_oracles.py``), bit for bit, and that reference
  matches ``ChannelModel`` to <= 1e-9 relative error;
* :meth:`backscatter_rows` — the per-read roundtrip of every successful
  slot as whole-array numpy, matching ``ChannelModel.roundtrip`` on the
  read's fluttered reflector images, and ``detuning_phase_rad``, to
  <= 1e-12 relative error.  Its last bits may differ from libm's; the
  reader quantises every value before it reaches a report, and the
  reports equal the scalar reference's exactly (DESIGN.md §8).

The cache binds to the antenna pose, wavelength, tag positions/gains, and
image-antenna positions at construction; none of these may change behind
the engine's back (see DESIGN.md for the invalidation rules).  Reflection
*coefficients* are per-read inputs, because environment flutter
legitimately changes them between reads.
"""

from __future__ import annotations

import cmath
import math
from typing import List, Sequence, Tuple

import numpy as np

from ..units import TWO_PI
from .antenna import ReaderAntenna
from .channel import ChannelModel
from .geometry import Vec3
from .hand import HandPose

FOUR_PI = 4.0 * math.pi


class ChannelEngine:
    """Batched coherent ray-sum evaluation over a fixed tag population.

    Parameters
    ----------
    antenna:
        The reader antenna (pose + pattern), fixed for the engine's life.
    wavelength:
        Carrier wavelength, metres.
    tag_positions / tag_gains_linear:
        The tag population, index-aligned.  Positions are frozen into the
        static-geometry cache.
    reflector_images:
        Static environment multipath as ``(image_position, coefficient)``
        pairs — the same input :class:`ChannelModel` takes.  The positions
        are cached; the coefficients give the nominal (flutter-free)
        reflector sum.
    """

    def __init__(
        self,
        antenna: ReaderAntenna,
        wavelength: float,
        tag_positions: Sequence[Vec3],
        tag_gains_linear: Sequence[float],
        reflector_images: Sequence[Tuple[Vec3, complex]] = (),
    ) -> None:
        if wavelength <= 0.0:
            raise ValueError(f"wavelength must be positive, got {wavelength}")
        if len(tag_positions) != len(tag_gains_linear):
            raise ValueError("tag_positions and tag_gains_linear must be index-aligned")
        if not tag_positions:
            raise ValueError("engine needs at least one tag")
        self.wavelength = wavelength
        self._ant_xyz = antenna.position.as_tuple()
        # Hot-loop constants: antenna pose/pattern as plain arrays, the
        # wavenumber, and the scatterer link-budget constant lambda^2/(4pi)^3.
        self._ant_np = np.array(self._ant_xyz)
        self._boresight_np = np.array(antenna._unit_boresight.as_tuple())
        self._pattern_n = antenna._pattern_n
        self._back_lobe = antenna._back_lobe
        self._gain_linear = antenna._gain_linear
        self._neg_jk = -1j * TWO_PI / wavelength
        self._scatter_const = wavelength**2 / FOUR_PI**3
        # The scalar reference provides the amplitude formulas, so the
        # static amplitudes are the reference's own values.
        ref = ChannelModel(antenna, wavelength, reflector_images)

        self.tag_positions_np = np.array([p.as_tuple() for p in tag_positions])
        gains = [float(g) for g in tag_gains_linear]
        self.tag_gains_np = np.array(gains)
        n = len(gains)

        # --- static geometry, computed once with the *scalar* formulas ----
        a_direct: List[float] = []
        exp_direct: List[complex] = []
        for pos, gt in zip(tag_positions, gains):
            d = antenna.position.distance_to(pos)
            gr = antenna.gain_towards(pos)
            a_direct.append(ref._free_space_amplitude(gr, gt, d))
            exp_direct.append(cmath.exp(-1j * TWO_PI * d / wavelength))
        self.a_direct_np = np.array(a_direct)
        self.exp_direct_np = np.array(exp_direct)

        d_img: List[List[float]] = []
        fs_img: List[List[float]] = []
        for img_pos, _ in reflector_images:
            d_row = [img_pos.distance_to(pos) for pos in tag_positions]
            fs_row = [
                ref._free_space_amplitude(antenna.gain_linear, gt, d)
                for gt, d in zip(gains, d_row)
            ]
            d_img.append(d_row)
            fs_img.append(fs_row)
        self.d_img_np = np.array(d_img) if d_img else np.zeros((0, n))
        self.fs_img_np = np.array(fs_img) if fs_img else np.zeros((0, n))
        # (N, R): each image antenna's ray to each tag for a unit
        # reflection coefficient, fs * exp(-jk d).
        self._reflector_rays = (self.fs_img_np * np.exp(self._neg_jk * self.d_img_np)).T

        # The reflector sum for the nominal coefficients is itself static.
        self._nominal_reflector_sum = self._reflector_sum(
            [g for _, g in reflector_images]
        )

        # Engine-level counters, drained into the metrics registry by the
        # reader after each inventory window (plain int increments on the
        # hot path; no registry lookups per call).
        self.batch_calls = 0
        self.single_calls = 0
        self.tags_evaluated = 0

    def __len__(self) -> int:
        return len(self.tag_positions_np)

    # ------------------------------------------------------------------
    # Whole-population readability (numpy)
    # ------------------------------------------------------------------

    def _reflector_sum(self, gammas: Sequence[complex]) -> np.ndarray:
        """Coherent sum of all image-antenna rays, per tag: (N,) complex."""
        total = np.zeros(len(self.tag_positions_np), dtype=complex)
        for j, gamma in enumerate(gammas):
            amp = abs(gamma) * self.fs_img_np[j]
            # The reflection coefficient's phase folds into an equivalent
            # extra path length, exactly as the scalar model does it.
            extra = (cmath.phase(gamma) / TWO_PI) * self.wavelength if gamma != 0 else 0.0
            total += amp * np.exp(-1j * TWO_PI * (self.d_img_np[j] - extra) / self.wavelength)
        return total

    def _direct_loss_factor(
        self, direct_extra_loss_db: "np.ndarray | float | None"
    ) -> "np.ndarray | float":
        if direct_extra_loss_db is None:
            return 1.0
        loss = np.asarray(direct_extra_loss_db)
        return np.where(loss > 0.0, 10.0 ** (-loss / 20.0), 1.0)

    def static_base(
        self, direct_extra_loss_db: "np.ndarray | float | None" = None
    ) -> np.ndarray:
        """Precompute the direct + nominal-reflector sum for a fixed loss.

        ``direct_extra_loss_db`` is a scalar, a per-tag ``(N,)`` vector or
        a ``(K, N)`` stack of extra direct-path losses (static coupling
        shadow + LOS occlusion), elementwise alike.  The result is the
        ``base`` argument of :meth:`scene_powers_trials` for any scene
        whose direct-path loss equals it and whose reflection coefficients
        are nominal — i.e. the readability checks of a deployment whose
        only dynamics are the hand.  With the loss fixed for the
        deployment's life it is cached once; an LOS reader recomputes it
        per checked round with the arm-occlusion loss added.
        """
        g = self.a_direct_np * self._direct_loss_factor(direct_extra_loss_db) * self.exp_direct_np
        return g + self._nominal_reflector_sum

    def scene_powers(
        self,
        base: np.ndarray,
        tx_power_w: float,
        one_way_loss: float,
        hand_xyz: "Tuple[float, float, float] | None" = None,
        offsets: "np.ndarray | None" = None,
        rcs: "np.ndarray | None" = None,
        shadow: "Tuple[float, float, float] | None" = None,
    ) -> np.ndarray:
        """Per-tag incident powers for a static base plus an optional hand:
        the one-row case of :meth:`scene_powers_trials`.

        ``hand_xyz`` is one hand position (``None``: no hand, the powers of
        ``base`` alone); the template arguments are as there.
        """
        if hand_xyz is None:
            self._count_rows(1)
            return tx_power_w * np.abs(base * one_way_loss) ** 2
        return self._powers(
            base, tx_power_w, one_way_loss, np.array([hand_xyz]), offsets, rcs, shadow
        )[0]

    def scene_powers_trials(
        self,
        base: np.ndarray,
        tx_power_w: float,
        one_way_loss: float,
        hand_xyz: np.ndarray,
        offsets: np.ndarray,
        rcs: np.ndarray,
        shadow: "Tuple[float, float, float]",
    ) -> np.ndarray:
        """Per-tag incident powers for K hand positions in one evaluation.

        The readability kernel: ``hand_xyz`` is a ``(K, 3)`` block of hand
        positions — the reader passes one row per inventory round of a
        checked block — and the result is ``(K, N)`` powers.  Element for
        element it runs the numpy operations of the whole-population batch
        reference in ``tests/physics/channel_oracles.py`` (scatterer hops
        over a hand + arm-point group, then the near-field shadow),
        followed by the reader's power expression, fed from precomputed
        template arrays instead of per-round ``Scatterer`` / ``Vec3``
        object graphs.  All rows share the deployment's static geometry
        and one scatterer *template*: ``offsets`` is the ``(S, 3)`` block
        of scatterer displacements from the hand (row 0 zeros: the hand
        itself), ``rcs`` the matching RCS column, ``shadow`` the hand's
        ``(depth_db, lateral_scale, vertical_scale)``.  ``base`` is one
        ``(N,)`` direct + reflector base shared by every row, or a
        ``(K, N)`` stack (LOS rows, each under its own arm occlusion).

        Every row is bit-equal to a one-row call: the expressions are
        elementwise ufunc chains (``+ - * /``, ``np.sqrt``, fixed-order
        ``einsum`` dot products, ``np.exp`` on identical complex inputs)
        whose results do not depend on the leading batch shape.  Counters
        advance by K rows.
        """
        return self._powers(
            base, tx_power_w, one_way_loss, hand_xyz, offsets, rcs, shadow
        )

    def _pattern(self, cos_t: np.ndarray) -> np.ndarray:
        """The antenna's cos^n power pattern at direction cosines ``cos_t``,
        floored at the back lobe (``ReaderAntenna.gain_towards`` without
        the peak gain)."""
        if self._pattern_n > 0.0:
            return np.maximum(np.maximum(cos_t, 0.0) ** self._pattern_n, self._back_lobe)
        return np.where(cos_t >= 0.0, 1.0, self._back_lobe)

    def _count_rows(self, rows: int) -> None:
        self.batch_calls += rows
        self.tags_evaluated += rows * len(self.tag_positions_np)

    def _powers(
        self,
        base: np.ndarray,
        tx_power_w: float,
        one_way_loss: float,
        hand_xyz: np.ndarray,
        offsets: np.ndarray,
        rcs: np.ndarray,
        shadow: "Tuple[float, float, float]",
    ) -> np.ndarray:
        """The body of :meth:`scene_powers_trials` (and of a one-row
        :meth:`scene_powers`), so each public call is one timed call."""
        self._count_rows(hand_xyz.shape[0])
        # position + cached u*k offsets per row; row 0 of every row's group
        # is assigned directly so signed zeros in the position survive.
        sc_pos = hand_xyz[:, None, :] + offsets[None, :, :]
        sc_pos[:, 0, :] = hand_xyz
        diff0 = sc_pos - self._ant_np
        d1 = np.sqrt(np.einsum("tsk,tsk->ts", diff0, diff0))
        diff = self.tag_positions_np[None, None, :, :] - sc_pos[:, :, None, :]
        d2 = np.sqrt(np.einsum("tsnk,tsnk->tsn", diff, diff))
        if d1.min() > 0.0 and d2.min() > 0.0:
            # All hops valid (the overwhelmingly common case): the guarded
            # ``where`` selections of the batch reference reduce to
            # identity, so skipping them leaves every element bitwise
            # unchanged while saving the mask dispatches.
            d1_safe = d1
            d2_safe = d2
            valid = None
        else:
            d1_safe = np.where(d1 > 0.0, d1, 1.0)
            valid = (d1[:, :, None] > 0.0) & (d2 > 0.0)
            d2_safe = np.where(valid, d2, 1.0)
        # np.clip(x, -1.0, 1.0) element for element, without its wrapper.
        cos_t = np.minimum(
            np.maximum((diff0 @ self._boresight_np) / d1_safe, -1.0), 1.0
        )
        gr_sc = self._gain_linear * self._pattern(cos_t)
        amp = np.sqrt(
            (gr_sc * rcs)[:, :, None] * self.tag_gains_np * self._scatter_const
        ) / (d1_safe[:, :, None] * d2_safe)
        contrib = amp * np.exp(self._neg_jk * (d1_safe[:, :, None] + d2_safe))
        if valid is not None and not valid.all():
            contrib = np.where(valid, contrib, 0.0)
        g = base + contrib.sum(axis=1)

        depth, ls, vs = shadow
        if depth > 0.0:
            p = self.tag_positions_np
            lateral = np.hypot(
                hand_xyz[:, 0, None] - p[:, 0], hand_xyz[:, 1, None] - p[:, 1]
            )
            vertical = np.abs(hand_xyz[:, 2, None] - p[:, 2])
            shadow_db = depth * np.exp(
                -0.5 * (lateral / ls) ** 2 - 0.5 * (vertical / vs) ** 2
            )
            shadowed = shadow_db > 0.0
            if shadowed.any():
                g = g * np.where(shadowed, 10.0 ** (-shadow_db / 20.0), 1.0)
        return tx_power_w * np.abs(g * one_way_loss) ** 2

    # ------------------------------------------------------------------
    # Per-read path (one whole-array evaluation per batch of reads)
    # ------------------------------------------------------------------

    def backscatter_rows(
        self,
        tag_idx: np.ndarray,
        direct_amp: np.ndarray,
        sqrt_txp_eff: np.ndarray,
        gammas_re: np.ndarray,
        gammas_im: np.ndarray,
        hand_xyz: "np.ndarray | None" = None,
        template: "HandPose | None" = None,
    ) -> "Tuple[np.ndarray, np.ndarray]":
        """Roundtrip voltages of M successful slots at once:
        ``ChannelModel.roundtrip`` on each row's fluttered reflector images,
        plus ``detuning_phase_rad``, to floating-point noise.

        Parameters are column-wise over the M rows: the winning tag index,
        the post-loss direct amplitude (``a_direct_np[tag]`` scaled by the
        row's direct-path loss), the ``sqrt(Pt * m_tag)`` roundtrip scale,
        and the fluttered reflection coefficients as ``(M, R)`` real/imag
        arrays.  ``hand_xyz``/``template`` place one hand + arm scatterer
        group (the template's parameters, its position ignored) at each
        row's ``(M, 3)`` hand position; ``None`` means no hand in the batch.

        Returns ``(s, detune_rad)``: the complex roundtrip voltages and the
        near-field detuning phase of every row.
        """
        m = int(tag_idx.size)
        self.batch_calls += 1
        self.single_calls += m
        self.tags_evaluated += m

        # Direct ray from the cached phasors; a reflector's ray is
        # gamma * fs * exp(-jk d), the same |gamma| * fs * exp(-jk (d - arg
        # gamma / k)) as the scalar model without splitting gamma.
        gammas = gammas_re + 1j * gammas_im
        g = direct_amp * self.exp_direct_np[tag_idx] + (
            gammas * self._reflector_rays[tag_idx]
        ).sum(axis=1)

        detune = np.zeros(m)
        if template is not None:
            tag_xyz = self.tag_positions_np[tag_idx]
            # (M, S) hops over the hand and its arm points.
            body = hand_xyz[:, None, :] + template.body_offsets()
            to_body = body - self._ant_np
            to_tag = tag_xyz[:, None, :] - body
            d1 = np.sqrt(np.einsum("msk,msk->ms", to_body, to_body))
            d2 = np.sqrt(np.einsum("msk,msk->ms", to_tag, to_tag))
            # A degenerate hop carries no ray (the scalar model skips it);
            # unit stand-ins keep the divisions finite before the mask.
            valid = (d1 > 0.0) & (d2 > 0.0)
            d1 = np.where(valid, d1, 1.0)
            d2 = np.where(valid, d2, 1.0)
            cos_t = np.clip((to_body @ self._boresight_np) / d1, -1.0, 1.0)
            amp = np.sqrt(
                self._gain_linear * self._pattern(cos_t) * template.body_rcs()
                * self.tag_gains_np[tag_idx, None] * self._scatter_const
            ) / (d1 * d2)
            rays = np.where(valid, amp * np.exp(self._neg_jk * (d1 + d2)), 0.0)
            g = g + rays.sum(axis=1)

            # Near-field shadow and detuning of the hand over the tag.
            hand = template.scatterers(include_arm=False)[0]
            dx, dy, dz = (hand_xyz - tag_xyz).T
            lateral = np.hypot(dx, dy)
            vertical = np.abs(dz)
            if hand.shadow_depth_db > 0.0:
                shadow_db = hand.shadow_depth_db * np.exp(
                    -0.5 * (lateral / hand.shadow_lateral_scale) ** 2
                    - 0.5 * (vertical / hand.shadow_vertical_scale) ** 2
                )
                g = g * 10.0 ** (-shadow_db / 20.0)
            if hand.detune_rad != 0.0:
                detune = hand.detune_rad * np.exp(
                    -0.5 * (lateral / hand.detune_lateral_scale) ** 2
                    - 0.5 * (vertical / hand.detune_vertical_scale) ** 2
                )
        return sqrt_txp_eff * g * g, detune

    # ------------------------------------------------------------------

    def drain_counters(self) -> "dict[str, int]":
        """Return and reset the engine's evaluation counters."""
        out = {
            "batch_calls": self.batch_calls,
            "single_calls": self.single_calls,
            "tags_evaluated": self.tags_evaluated,
        }
        self.batch_calls = 0
        self.single_calls = 0
        self.tags_evaluated = 0
        return out
