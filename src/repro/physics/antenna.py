"""Directional reader antenna model.

The paper idealises the Laird A9028R30NF panel antenna (8 dBi) with the
solid-angle approximation of section IV-B.3:

* gain        ``G ~= 4*pi / Omega_s``            (Eq. 13)
* beam angle  ``theta_beam ~= sqrt(4*pi / G)``   (Eq. 14)

which gives ~72 degrees for G = 8 dBi ~= 6.31.  For off-boresight directions
we use the standard ``cos^n`` pattern whose exponent is fitted so that the
half-power (−3 dB) width equals the Eq. 14 beam angle.  That keeps the model
exactly consistent with the paper's own geometry reasoning (minimum
antenna-to-plane distance, Fig. 13) while giving a smooth roll-off that the
angle-sweep experiment (Fig. 18) can exercise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..units import db_to_linear
from .geometry import Vec3


@dataclass(frozen=True)
class ReaderAntenna:
    """A directional panel antenna at a fixed pose.

    Parameters
    ----------
    position:
        Phase centre of the antenna, metres.
    boresight:
        Direction of maximum radiation (need not be unit length).
    gain_dbi:
        Peak gain relative to isotropic.  The paper's prototype uses 8 dBi.
    front_to_back_db:
        Suppression applied to the back hemisphere.  Commodity panels are
        ~25 dB; it mostly matters for NLOS placements where tags sit in the
        main lobe but wall reflections may arrive from behind.
    """

    position: Vec3
    boresight: Vec3
    gain_dbi: float = 8.0
    front_to_back_db: float = 25.0
    _unit_boresight: Vec3 = field(init=False, repr=False, compare=False)
    _pattern_n: float = field(init=False, repr=False, compare=False)
    _gain_linear: float = field(init=False, repr=False, compare=False)
    _back_lobe: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.boresight.norm() == 0.0:
            raise ValueError("boresight must be a non-zero direction")
        object.__setattr__(self, "_unit_boresight", self.boresight.normalized())
        object.__setattr__(self, "_gain_linear", db_to_linear(self.gain_dbi))
        object.__setattr__(self, "_back_lobe", db_to_linear(-self.front_to_back_db))
        object.__setattr__(self, "_pattern_n", self._solve_pattern_exponent())

    @property
    def gain_linear(self) -> float:
        return self._gain_linear

    def beam_angle(self) -> float:
        """Full beam angle in radians, Eq. 14: sqrt(4*pi/G)."""
        return math.sqrt(4.0 * math.pi / self.gain_linear)

    def beam_angle_degrees(self) -> float:
        return math.degrees(self.beam_angle())

    def _solve_pattern_exponent(self) -> float:
        """Exponent n of the cos^n power pattern, from ``cos(theta_3dB)^n =
        1/2`` with ``theta_3dB`` the half-beam angle from Eq. 14."""
        half = self.beam_angle() / 2.0
        # Guard: for near-isotropic gains the half-angle can exceed 90 deg;
        # fall back to an isotropic pattern (n = 0).
        if half >= math.pi / 2.0 - 1e-9:
            return 0.0
        return math.log(0.5) / math.log(math.cos(half))

    def gain_towards(self, target: Vec3) -> float:
        """Linear gain in the direction of ``target``.

        Back-hemisphere directions are attenuated by ``front_to_back_db``.
        The target coinciding with the antenna position is an error — the
        link geometry upstream should never produce it.

        Hot path: called once per scatterer per tag read, so the cos^n
        pattern is evaluated directly from the direction cosine (no
        acos/cos round trip) with all dB conversions precomputed.
        """
        dx = target.x - self.position.x
        dy = target.y - self.position.y
        dz = target.z - self.position.z
        d2 = dx * dx + dy * dy + dz * dz
        if d2 == 0.0:
            raise ValueError("target coincides with the antenna phase centre")
        b = self._unit_boresight
        cos_t = (dx * b.x + dy * b.y + dz * b.z) / math.sqrt(d2)
        cos_t = max(-1.0, min(1.0, cos_t))
        if cos_t >= 0.0:
            pattern = cos_t ** self._pattern_n if self._pattern_n > 0.0 else 1.0
        else:
            pattern = self._back_lobe
        # Floor the pattern so deep nulls stay numerically sane.
        pattern = max(pattern, self._back_lobe)
        return self._gain_linear * pattern


def minimum_plane_distance(plane_side: float, gain_dbi: float = 8.0) -> float:
    """Minimum antenna-to-plane distance for full 3 dB-beam coverage.

    Paper section IV-B.3: with half beam angle ``theta_beam/2`` and a square
    tag plane of side ``l`` parallel to the panel, all tags are inside the
    3 dB beam when ``d >= (l/2) / tan(theta_beam/2)``.  For the prototype
    (l ~= 46 cm, 8 dBi -> 72 deg beam) this is the paper's ~31.7 cm.
    """
    if plane_side <= 0.0:
        raise ValueError(f"plane side must be positive, got {plane_side}")
    beam = math.sqrt(4.0 * math.pi / db_to_linear(gain_dbi))
    half = beam / 2.0
    if half >= math.pi / 2.0:
        return 0.0  # beam wider than a hemisphere covers any parallel plane
    return (plane_side / 2.0) / math.tan(half)


def plane_side_for_grid(tag_size: float, pitch: float, tags_per_side: int) -> float:
    """Physical side length of the tag plane.

    Matches the paper's accounting: 5 tags of 4.4 cm with 6 cm gaps between
    adjacent tag edges gives ~46 cm.
    """
    if tags_per_side < 1:
        raise ValueError("need at least one tag per side")
    return tags_per_side * tag_size + (tags_per_side - 1) * pitch
