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
  slot, **bit-identical** row by row to ``ChannelModel.roundtrip`` on the
  read's fluttered reflector images, plus ``detuning_phase_rad``.

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
from .hand import ARM_POINTS

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
        if self._pattern_n > 0.0:
            pattern = np.maximum(
                np.maximum(cos_t, 0.0) ** self._pattern_n, self._back_lobe
            )
        else:
            pattern = np.where(cos_t >= 0.0, 1.0, self._back_lobe)
        gr_sc = self._gain_linear * pattern
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
    # Per-read path (bit-identical to ChannelModel.roundtrip per row)
    # ------------------------------------------------------------------

    def backscatter_rows(
        self,
        tag_idx: np.ndarray,
        direct_amp: np.ndarray,
        sqrt_txp_eff: np.ndarray,
        gammas_re: np.ndarray,
        gammas_im: np.ndarray,
        hand_xyz: "np.ndarray | None" = None,
        template: "object | None" = None,
    ) -> "Tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Roundtrip voltages for M successful slots at once, bit-identical
        per row to ``ChannelModel.roundtrip`` on the row's fluttered
        reflector images, plus ``detuning_phase_rad``.

        Parameters are column-wise over the M rows: the winning tag index,
        the post-loss direct amplitude (``a_direct_np[tag]`` times the
        caller's ``sqrt(db_to_linear(-loss))`` factor when the loss is
        positive, as ``ChannelModel.resolve_paths`` scales it), the
        precomputed ``sqrt(Pt * m_tag)`` roundtrip scale, and the fluttered
        reflection coefficients as ``(M, R)`` real/imag arrays.  ``hand_xyz``/``template`` describe a
        HandPose-shaped scatterer group (hand + arm points) shared by all
        rows; ``None`` means no hand anywhere in the batch.

        Returns ``(s_re, s_im, detune_rad)``.

        Bit-identity strategy (the PR 2 contract, extended): elementwise
        ``+ - * /``, ``np.sqrt/np.cos/np.sin`` and manual componentwise
        complex products reproduce the scalar arithmetic exactly, so the
        straight-line ray sums vectorize; everything that routes through
        libm with data-dependent arguments where numpy's kernels differ in
        the last ulp — ``hypot``, ``atan2``, ``exp``, ``pow`` (including
        ``x ** 2``, which CPython evaluates as ``pow(x, 2.0)`` while numpy
        squares with a multiply) — runs in short per-row Python loops.
        """
        m = int(tag_idx.size)
        self.batch_calls += 1
        self.single_calls += m
        self.tags_evaluated += m
        wl = self.wavelength
        out_detune = np.zeros(m)
        if m == 0:
            return np.zeros(0), np.zeros(0), out_detune

        # --- direct path: g = 0j; g += a_direct * exp_direct[tag] ---------
        er = self.exp_direct_np.real[tag_idx]
        ei = self.exp_direct_np.imag[tag_idx]
        # float * complex expands with (a, 0.0): keep the 0.0 cross terms so
        # signed zeros match the scalar product exactly.
        g_re = 0.0 + (direct_amp * er - 0.0 * ei)
        g_im = 0.0 + (direct_amp * ei + 0.0 * er)

        # --- static reflectors (fluttered coefficients per row) -----------
        for j in range(gammas_re.shape[1]):
            grl = gammas_re[:, j].tolist()
            gil = gammas_im[:, j].tolist()
            # abs() of a complex is libm hypot, which math.hypot is not (it
            # rounds its own way and differs in the last ulp for ~0.6% of
            # coefficients); cmath.phase is atan2.  numpy's complex abs and
            # arctan2 are off by an ulp too, so both stay scalar.
            amp = np.array([abs(complex(a, b)) for a, b in zip(grl, gil)])
            extra = np.array(
                [
                    0.0
                    if (a == 0.0 and b == 0.0)
                    else (math.atan2(b, a) / TWO_PI) * wl
                    for a, b in zip(grl, gil)
                ]
            )
            a_img = amp * self.fs_img_np[j][tag_idx]
            length = self.d_img_np[j][tag_idx] - extra
            # cmath.exp(-1j * TWO_PI * length / wl): the exponent's real
            # part is a signed zero (exp of it is exactly 1), its imaginary
            # part is ((-TWO_PI) * length) / wl with exactly this grouping.
            theta = ((-TWO_PI) * length) / wl
            c = np.cos(theta)
            s = np.sin(theta)
            g_re = g_re + (a_img * c - 0.0 * s)
            g_im = g_im + (a_img * s + 0.0 * c)

        # --- dynamic scatterers: hand + arm points ------------------------
        if hand_xyz is not None and template is not None:
            tag_x = self.tag_positions_np[tag_idx, 0]
            tag_y = self.tag_positions_np[tag_idx, 1]
            tag_z = self.tag_positions_np[tag_idx, 2]
            gt = self.tag_gains_np[tag_idx]
            hx = hand_xyz[:, 0]
            hy = hand_xyz[:, 1]
            hz = hand_xyz[:, 2]
            ax, ay, az = self._ant_xyz
            b = self._boresight_np
            bx, by, bz = float(b[0]), float(b[1]), float(b[2])
            pn = self._pattern_n
            bl = self._back_lobe
            gl = self._gain_linear
            wl2 = wl**2
            fp3 = FOUR_PI**3

            # Scatterer group: the hand plus its arm points, each
            # position + a body_offsets row, as HandPose.arm_points places them.
            per_point_rcs = template.arm_rcs_m2 / ARM_POINTS
            groups = [(hx, hy, hz, template.hand_rcs_m2)] + [
                (hx + ox, hy + oy, hz + oz, per_point_rcs)
                for ox, oy, oz in template.body_offsets()[1:].tolist()
            ]

            for sx, sy, sz, rcs in groups:
                dx = ax - sx
                dy = ay - sy
                dz = az - sz
                d1 = np.sqrt(dx * dx + dy * dy + dz * dz)
                e_x = sx - tag_x
                e_y = sy - tag_y
                e_z = sz - tag_z
                d2 = np.sqrt(e_x * e_x + e_y * e_y + e_z * e_z)
                valid = (d1 > 0.0) & (d2 > 0.0)
                all_valid = bool(valid.all())

                # gain_towards(sc): direction cosines from the antenna.
                gdx = sx - ax
                gdy = sy - ay
                gdz = sz - az
                gd2 = gdx * gdx + gdy * gdy + gdz * gdz
                gd2_safe = gd2 if all_valid else np.where(gd2 > 0.0, gd2, 1.0)
                cos_t = (gdx * bx + gdy * by + gdz * bz) / np.sqrt(gd2_safe)
                cos_t = np.maximum(-1.0, np.minimum(1.0, cos_t))

                # Scalar loops: the cos^n pattern and the d^2 terms are libm
                # pow in the scalar reference (x ** n, x ** 2), which no
                # numpy spelling reproduces bit-for-bit.
                cosl = cos_t.tolist()
                if pn > 0.0:
                    pat = np.array(
                        [max(c**pn, bl) if c >= 0.0 else bl for c in cosl]
                    )
                else:
                    pat = np.array([max(1.0, bl) if c >= 0.0 else bl for c in cosl])
                d1sq = np.array([v**2 for v in d1.tolist()])
                d2sq = np.array([v**2 for v in d2.tolist()])

                gr_sc = gl * pat
                power_gain = (((gr_sc * gt) * wl2) * rcs) / ((fp3 * d1sq) * d2sq)
                a_sc = np.sqrt(power_gain)
                theta = ((-TWO_PI) * (d1 + d2)) / wl
                c = np.cos(theta)
                s = np.sin(theta)
                t_re = a_sc * c - 0.0 * s
                t_im = a_sc * s + 0.0 * c
                if all_valid:
                    g_re = g_re + t_re
                    g_im = g_im + t_im
                else:
                    # The scalar loop `continue`s on degenerate hops: a
                    # masked where (not an add of 0.0) keeps -0.0 intact.
                    g_re = np.where(valid, g_re + t_re, g_re)
                    g_im = np.where(valid, g_im + t_im, g_im)

            # --- near-field shadow + detuning (hand only; scalar libm) ----
            sd = template.shadow_depth_db
            dr = template.detune_rad
            if sd > 0.0 or dr != 0.0:
                hand_sc = template.scatterers(include_arm=False)[0]
                s_ls = hand_sc.shadow_lateral_scale
                s_vs = hand_sc.shadow_vertical_scale
                d_ls = hand_sc.detune_lateral_scale
                d_vs = hand_sc.detune_vertical_scale
                shl: "List[float]" = []
                dtl: "List[float]" = []
                fal: "List[float]" = []
                for xh, yh, zh, xt, yt, zt in zip(
                    hx.tolist(), hy.tolist(), hz.tolist(),
                    tag_x.tolist(), tag_y.tolist(), tag_z.tolist(),
                ):
                    lat = math.hypot(xh - xt, yh - yt)
                    vert = abs(zh - zt)
                    if sd > 0.0:
                        sh = sd * math.exp(
                            -0.5 * (lat / s_ls) ** 2 - 0.5 * (vert / s_vs) ** 2
                        )
                        shl.append(sh)
                        # g *= sqrt(db_to_linear(-shadow_db)) when > 0 dB.
                        fal.append(
                            math.sqrt(10.0 ** ((-sh) / 10.0)) if sh > 0.0 else 1.0
                        )
                    if dr != 0.0:
                        dtl.append(
                            dr * math.exp(
                                -0.5 * (lat / d_ls) ** 2 - 0.5 * (vert / d_vs) ** 2
                            )
                        )
                if dr != 0.0:
                    out_detune = np.array(dtl)
                if sd > 0.0:
                    sh_arr = np.array(shl)
                    fac = np.array(fal)
                    apply = sh_arr > 0.0
                    # complex *= float expands with (f, 0.0) cross terms.
                    new_re = g_re * fac - g_im * 0.0
                    new_im = g_re * 0.0 + g_im * fac
                    if bool(apply.all()):
                        g_re, g_im = new_re, new_im
                    else:
                        g_re = np.where(apply, new_re, g_re)
                        g_im = np.where(apply, new_im, g_im)

        # --- roundtrip: (sqrt(Pt*m) * g) * g ------------------------------
        c0 = sqrt_txp_eff
        h_re = c0 * g_re - 0.0 * g_im
        h_im = c0 * g_im + 0.0 * g_re
        s_re = h_re * g_re - h_im * g_im
        s_im = h_re * g_im + h_im * g_re
        return s_re, s_im, out_detune

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
