"""Static environment multipath: image-method reflectors and location presets.

The paper evaluates RFIPad at four locations in an office (Fig. 15) and
shows (Fig. 16) that multipath richness drives the *location diversity* the
suppression algorithm targets: each tag sees a different static phase offset
and a different noise level ("Deviation bias") depending on nearby walls,
tables, and moving clutter.

We model each location as a set of infinite planar reflectors.  Every
reflector contributes, per tag, a coherent static ray (via the mirror-image
antenna — see :class:`repro.physics.channel.ChannelModel`) plus a small
incoherent *flutter* term: real environments are never perfectly static
(people, doors, HVAC), so each reflector jitters its coefficient slightly
between reads.  The flutter is what inflates per-tag phase variance and, in
rich environments, degrades unsuppressed recognition exactly as Fig. 16
shows.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple

import numpy as np

from .geometry import Vec3, mirror_across_plane


@dataclass(frozen=True)
class PlanarReflector:
    """An infinite plane with a complex reflection coefficient.

    ``flutter`` is the standard deviation of the per-read multiplicative
    perturbation of the coefficient (models non-static clutter near the
    reflector).
    """

    point: Vec3
    normal: Vec3
    coefficient: complex = 0.3 + 0.0j
    flutter: float = 0.0

    def __post_init__(self) -> None:
        if self.normal.norm() == 0.0:
            raise ValueError("reflector normal must be non-zero")
        if abs(self.coefficient) > 1.0:
            raise ValueError("reflection coefficient magnitude cannot exceed 1")
        if self.flutter < 0.0:
            raise ValueError("flutter must be non-negative")

    def image_of(self, antenna_position: Vec3) -> Vec3:
        return mirror_across_plane(antenna_position, self.point, self.normal)


@dataclass(frozen=True)
class Environment:
    """A named multipath environment (one of the paper's locations)."""

    name: str
    reflectors: Tuple[PlanarReflector, ...] = ()

    @cached_property
    def _flutter_plan(
        self,
    ) -> "tuple[np.ndarray, tuple[tuple[complex, float, float, int], ...]]":
        """Precomputed flutter constants: draw scales + per-reflector terms.

        ``scales`` holds the normal-draw standard deviations — a (magnitude,
        phase) pair per *fluttering* reflector, in reflector order.  The info
        tuple carries each reflector's coefficient, its polar decomposition,
        and its index into the draw vector (-1 when it never flutters).
        cached_property stores into ``__dict__``, bypassing the frozen guard;
        all inputs are frozen fields.
        """
        scales: List[float] = []
        info: List[Tuple[complex, float, float, int]] = []
        for r in self.reflectors:
            if r.flutter > 0.0:
                info.append(
                    (r.coefficient, abs(r.coefficient), cmath.phase(r.coefficient), len(scales))
                )
                scales.append(r.flutter)
                scales.append(r.flutter * math.pi)
            else:
                info.append((r.coefficient, 0.0, 0.0, -1))
        return np.array(scales), tuple(info)

    def sample_gammas(
        self, rng: "np.random.Generator | None" = None
    ) -> List[complex]:
        """Per-reflector coefficients, flutter-perturbed when ``rng`` is given.

        One draw pair (magnitude, phase) per fluttering reflector, in
        reflector order — the reader's per-read flutter resampling and
        :meth:`image_antennas` share this exact RNG consumption order, so
        hoisting the image positions out of the per-read path cannot change
        the random stream.  The pairs are drawn as one batched ``normal``
        call, which numpy fills with the same values (bit-identical) as the
        equivalent sequence of scalar draws.
        """
        scales, info = self._flutter_plan
        if rng is None or scales.size == 0:
            return [r.coefficient for r in self.reflectors]
        # standard_normal * scale draws the same (bit-identical) values as
        # normal(0, scales) while skipping its per-call array validation.
        draws = rng.standard_normal(scales.size) * scales
        gammas: List[complex] = []
        for coefficient, mag0, ph0, idx in info:
            if idx < 0:
                gammas.append(coefficient)
            else:
                # Perturb magnitude and phase independently.
                mag = mag0 * max(0.0, 1.0 + float(draws[idx]))
                ph = ph0 + float(draws[idx + 1])
                gammas.append(mag * cmath.exp(1j * ph))
        return gammas

    @property
    def flutter_draw_count(self) -> int:
        """Standard normals :meth:`sample_gammas` consumes per call."""
        return int(self._flutter_plan[0].size)

    def sample_gammas_rows(
        self, z: "np.ndarray"
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Vectorized :meth:`sample_gammas` over pre-drawn standard normals.

        ``z`` is an ``(M, flutter_draw_count)`` block of standard-normal
        draws, one row per read, laid out exactly as M sequential
        ``sample_gammas`` calls would consume them.  Returns the reflection
        coefficients as real/imaginary ``(M, R)`` arrays whose elements are
        bit-identical to the scalar path: the elementwise operations
        (``scale`` multiply, clamp, ``cos``/``sin``, the float-times-complex
        product expansion) all reproduce the scalar arithmetic exactly —
        ``cmath.exp(1j * ph)`` is ``(cos(ph), sin(ph))``, and the scalar
        ``mag * <complex>`` product carries ``0.0 *`` cross terms whose
        signed zeros the expansion below preserves.
        """
        scales, info = self._flutter_plan
        m = z.shape[0]
        n_refl = len(self.reflectors)
        g_re = np.empty((m, n_refl))
        g_im = np.empty((m, n_refl))
        draws = z * scales if scales.size else z
        for j, (coefficient, mag0, ph0, idx) in enumerate(info):
            if idx < 0:
                g_re[:, j] = coefficient.real
                g_im[:, j] = coefficient.imag
            else:
                mag = mag0 * np.maximum(0.0, 1.0 + draws[:, idx])
                ph = ph0 + draws[:, idx + 1]
                c = np.cos(ph)
                s = np.sin(ph)
                g_re[:, j] = mag * c - 0.0 * s
                g_im[:, j] = mag * s + 0.0 * c
        return g_re, g_im

    def image_antennas(
        self, antenna_position: Vec3, rng: "np.random.Generator | None" = None
    ) -> List[Tuple[Vec3, complex]]:
        """Resolve reflectors into (image position, coefficient) pairs.

        When ``rng`` is given, each coefficient is perturbed by the
        reflector's flutter — call once per read to model clutter motion.
        """
        gammas = self.sample_gammas(rng)
        return [
            (r.image_of(antenna_position), gamma)
            for r, gamma in zip(self.reflectors, gammas)
        ]

    @property
    def richness(self) -> float:
        """Scalar multipath richness: sum of |coefficient| * (1 + flutter)."""
        return sum(abs(r.coefficient) * (1.0 + r.flutter) for r in self.reflectors)


def _wall(x: float = 0.0, y: float = 0.0, z: float = 0.0,
          nx: float = 0.0, ny: float = 0.0, nz: float = 0.0,
          gamma: complex = 0.3 + 0.0j, flutter: float = 0.0) -> PlanarReflector:
    return PlanarReflector(Vec3(x, y, z), Vec3(nx, ny, nz), gamma, flutter)


def location_preset(index: int) -> Environment:
    """The four lab locations of Fig. 15, ordered by multipath richness.

    Location #1 is open space (weak multipath); location #4 is the corner
    near walls and tables where the paper observes the strongest multipath
    and the biggest win from diversity suppression (75% -> 93%, Fig. 16).
    Geometry is in the tag-plane frame (plane at z = 0, user side z > 0).
    """
    if index == 1:
        return Environment("location-1", (
            _wall(z=3.0, nz=-1.0, gamma=0.10 + 0.05j, flutter=0.010),
        ))
    if index == 2:
        return Environment("location-2", (
            _wall(z=3.0, nz=-1.0, gamma=0.12 + 0.05j, flutter=0.015),
            _wall(x=1.5, nx=-1.0, gamma=0.20 + 0.10j, flutter=0.020),
        ))
    if index == 3:
        return Environment("location-3", (
            _wall(z=2.0, nz=-1.0, gamma=0.15 + 0.08j, flutter=0.020),
            _wall(x=1.0, nx=-1.0, gamma=0.25 + 0.10j, flutter=0.030),
            _wall(y=-1.0, ny=1.0, gamma=0.20 + 0.12j, flutter=0.025),
        ))
    if index == 4:
        # The corner spot: a wall and a table edge close enough that tags
        # on the near side of the pad see markedly noisier channels than
        # tags on the far side — the asymmetry that makes the deviation-
        # bias weighting matter most here (Fig. 16's 75% -> 93%).
        return Environment("location-4", (
            _wall(z=1.2, nz=-1.0, gamma=0.25 + 0.10j, flutter=0.028),
            _wall(x=0.35, nx=-1.0, gamma=0.40 + 0.15j, flutter=0.060),
            _wall(y=-0.45, ny=1.0, gamma=0.35 + 0.15j, flutter=0.050),
            _wall(x=-0.8, nx=1.0, gamma=0.25 + 0.12j, flutter=0.022),
        ))
    raise ValueError(f"location preset must be 1..4, got {index}")


ALL_LOCATIONS: Sequence[int] = (1, 2, 3, 4)


def free_space() -> Environment:
    """No multipath at all — used by unit tests and theory checks."""
    return Environment("free-space", ())
