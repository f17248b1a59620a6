"""Backscatter channel model: the physics under Eqs. 1-8 of the paper.

The model is a coherent complex-baseband ray sum.  The one-way channel from
the reader antenna to a tag is

    g = sum_k a_k * exp(-j * 2*pi * d_k / lambda)

over the direct path, static environment reflections (image method, see
:mod:`repro.physics.multipath`) and dynamic scatterers (the hand, see
:mod:`repro.physics.hand`).  By reciprocity the return channel equals the
forward channel, so the round-trip baseband voltage seen by the reader is

    s = sqrt(Pt) * g^2 * m_tag * exp(-j * theta_tag)

with ``m_tag`` the tag's modulation efficiency.  This reproduces exactly the
phase structure the paper assumes: theta = (2*pi * 2d/lambda + theta_T +
theta_R + theta_tag) mod 2*pi for the single-path case, plus the hand's
"virtual transmitter" term of section III-A.1.

Powers: ``Pt * |g|^2`` is the power incident on the tag (forward-link /
readability budget), ``Pt * |g|^4 * M`` the backscatter power at the reader.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from ..units import TWO_PI, db_to_linear
from .antenna import ReaderAntenna
from .geometry import Vec3


@dataclass(frozen=True)
class Scatterer:
    """A point scatterer that creates an extra reader->scatterer->tag path.

    ``rcs_m2`` is the bistatic radar cross-section in square metres.  A
    human hand is a few hundred cm^2; the forearm more.  ``shadow`` entries
    describe the *near-field blockage* the scatterer causes on a tag it
    hovers over: the attenuation (dB, positive) applied to the tag's channel
    when the scatterer is directly on top of it, and the lateral/vertical
    length scales (metres) over which that blockage decays.
    """

    position: Vec3
    rcs_m2: float
    shadow_depth_db: float = 0.0
    shadow_lateral_scale: float = 0.03
    shadow_vertical_scale: float = 0.05
    #: Near-field detuning: a lossy dielectric (a hand) centimetres from a
    #: passive tag shifts the tag antenna's resonance, rotating its
    #: reflection phase by up to ``detune_rad`` with the same Gaussian
    #: locality as the shadow.  This — much more than the far-field
    #: reflection — is what makes the disturbance *local* to the tags under
    #: the trail (the sharp grey maps of the paper's Fig. 7).
    detune_rad: float = 0.0
    detune_lateral_scale: float = 0.030
    detune_vertical_scale: float = 0.045


def shadow_attenuation_db(tag_position: Vec3, scatterers: Iterable[Scatterer]) -> float:
    """Total near-field blockage (dB) the scatterers impose on one tag.

    A hand hovering directly over a tag detunes and shields the tag
    antenna; this is the mechanism behind the paper's distinct RSS
    trough (section III-B).  Gaussian decay laterally and vertically.
    """
    total = 0.0
    for sc in scatterers:
        if sc.shadow_depth_db <= 0.0:
            continue
        lateral = math.hypot(sc.position.x - tag_position.x, sc.position.y - tag_position.y)
        vertical = abs(sc.position.z - tag_position.z)
        total += sc.shadow_depth_db * math.exp(
            -0.5 * (lateral / sc.shadow_lateral_scale) ** 2
            - 0.5 * (vertical / sc.shadow_vertical_scale) ** 2
        )
    return total


def detuning_phase_rad(tag_position: Vec3, scatterers: Iterable[Scatterer]) -> float:
    """Total near-field resonance phase shift the scatterers impose."""
    total = 0.0
    for sc in scatterers:
        if sc.detune_rad == 0.0:
            continue
        lateral = math.hypot(sc.position.x - tag_position.x, sc.position.y - tag_position.y)
        vertical = abs(sc.position.z - tag_position.z)
        total += sc.detune_rad * math.exp(
            -0.5 * (lateral / sc.detune_lateral_scale) ** 2
            - 0.5 * (vertical / sc.detune_vertical_scale) ** 2
        )
    return total


@dataclass(frozen=True)
class RayPath:
    """One resolved propagation path (for introspection and tests)."""

    amplitude: float
    length: float
    kind: str  # "direct" | "reflector" | "scatterer"

    def phasor(self, wavelength: float) -> complex:
        return self.amplitude * cmath.exp(-1j * TWO_PI * self.length / wavelength)


class ChannelModel:
    """Computes per-tag complex channels for a fixed antenna and environment.

    Parameters
    ----------
    antenna:
        The reader antenna (pose + pattern).
    wavelength:
        Carrier wavelength, metres.
    reflector_images:
        Static environment multipath, pre-resolved into *image antennas*:
        tuples ``(image_position, reflection_coefficient)``.  The image
        method turns each wall/table into a virtual antenna at the mirror
        position whose rays reach the tag with the reflected path length.
        :mod:`repro.physics.multipath` builds these.
    occlusion_db:
        Extra attenuation (dB, positive) applied to the *direct* path only.
        Used by the LOS scenario where the user's arm cuts the line of
        sight; 0 for NLOS.
    """

    def __init__(
        self,
        antenna: ReaderAntenna,
        wavelength: float,
        reflector_images: Sequence[Tuple[Vec3, complex]] = (),
        occlusion_db: float = 0.0,
    ) -> None:
        if wavelength <= 0.0:
            raise ValueError(f"wavelength must be positive, got {wavelength}")
        self.antenna = antenna
        self.wavelength = wavelength
        self.reflector_images = list(reflector_images)
        self.occlusion_db = occlusion_db

    # ------------------------------------------------------------------
    # Path resolution
    # ------------------------------------------------------------------

    def _free_space_amplitude(self, gain_reader: float, gain_tag: float, distance: float) -> float:
        """One-way Friis voltage amplitude: sqrt(Gr*Gt) * lambda / (4*pi*d)."""
        if distance <= 0.0:
            raise ValueError("propagation distance must be positive")
        return math.sqrt(gain_reader * gain_tag) * self.wavelength / (4.0 * math.pi * distance)

    def _scatter_amplitude(
        self, gain_reader: float, gain_tag: float, rcs_m2: float, d1: float, d2: float
    ) -> float:
        """One-way bistatic scattering amplitude reader->scatterer->tag.

        sqrt of the bistatic radar power budget:
        Gr * Gt * lambda^2 * sigma / ((4*pi)^3 * d1^2 * d2^2).
        """
        if d1 <= 0.0 or d2 <= 0.0:
            raise ValueError("scatter hop distances must be positive")
        power_gain = (
            gain_reader
            * gain_tag
            * self.wavelength**2
            * rcs_m2
            / ((4.0 * math.pi) ** 3 * d1**2 * d2**2)
        )
        return math.sqrt(power_gain)

    def resolve_paths(
        self,
        tag_position: Vec3,
        tag_gain_linear: float,
        scatterers: Iterable[Scatterer] = (),
        direct_extra_loss_db: float = 0.0,
    ) -> List[RayPath]:
        """Enumerate all one-way paths from the reader antenna to a tag."""
        paths: List[RayPath] = []

        # Direct path.
        d_direct = self.antenna.position.distance_to(tag_position)
        gr = self.antenna.gain_towards(tag_position)
        a_direct = self._free_space_amplitude(gr, tag_gain_linear, d_direct)
        loss_db = self.occlusion_db + direct_extra_loss_db
        if loss_db > 0.0:
            a_direct *= math.sqrt(db_to_linear(-loss_db))
        paths.append(RayPath(a_direct, d_direct, "direct"))

        # Static environment reflections via image antennas.
        for image_pos, gamma in self.reflector_images:
            d_img = image_pos.distance_to(tag_position)
            # The image antenna inherits the pattern gain of the real antenna
            # towards the mirror of the tag; using gain towards the tag from
            # the image position is the standard first-order approximation.
            gr_img = self.antenna.gain_linear  # sidelobe-agnostic, scaled by gamma
            a_img = abs(gamma) * self._free_space_amplitude(gr_img, tag_gain_linear, d_img)
            # Fold the reflection coefficient's phase into an equivalent
            # extra path length so RayPath stays a (real amp, length) pair.
            extra = (cmath.phase(gamma) / TWO_PI) * self.wavelength if gamma != 0 else 0.0
            paths.append(RayPath(a_img, d_img - extra, "reflector"))

        # Dynamic scatterers (hand / arm).
        for sc in scatterers:
            d1 = self.antenna.position.distance_to(sc.position)
            d2 = sc.position.distance_to(tag_position)
            if d1 <= 0.0 or d2 <= 0.0:
                continue
            gr_sc = self.antenna.gain_towards(sc.position)
            a_sc = self._scatter_amplitude(gr_sc, tag_gain_linear, sc.rcs_m2, d1, d2)
            paths.append(RayPath(a_sc, d1 + d2, "scatterer"))

        return paths

    # ------------------------------------------------------------------
    # Channel evaluation
    # ------------------------------------------------------------------

    def shadow_attenuation_db(self, tag_position: Vec3, scatterers: Iterable[Scatterer]) -> float:
        """Total near-field blockage (dB) the scatterers impose on this tag."""
        return shadow_attenuation_db(tag_position, scatterers)

    def detuning_phase_rad(self, tag_position: Vec3, scatterers: Iterable[Scatterer]) -> float:
        """Total near-field resonance phase shift the scatterers impose."""
        return detuning_phase_rad(tag_position, scatterers)

    def one_way(
        self,
        tag_position: Vec3,
        tag_gain_linear: float,
        scatterers: Iterable[Scatterer] = (),
        direct_extra_loss_db: float = 0.0,
    ) -> complex:
        """Complex one-way channel g(reader -> tag), including shadowing."""
        scs = list(scatterers)
        g = sum(
            (p.phasor(self.wavelength) for p in self.resolve_paths(
                tag_position, tag_gain_linear, scs, direct_extra_loss_db)),
            0j,
        )
        shadow_db = self.shadow_attenuation_db(tag_position, scs)
        if shadow_db > 0.0:
            g *= math.sqrt(db_to_linear(-shadow_db))
        return g

    def incident_power(
        self,
        tx_power_w: float,
        tag_position: Vec3,
        tag_gain_linear: float,
        scatterers: Iterable[Scatterer] = (),
        direct_extra_loss_db: float = 0.0,
    ) -> float:
        """Forward-link power (watts) available at the tag's antenna port."""
        if tx_power_w <= 0.0:
            raise ValueError(f"tx power must be positive, got {tx_power_w}")
        g = self.one_way(tag_position, tag_gain_linear, scatterers, direct_extra_loss_db)
        return tx_power_w * abs(g) ** 2

    def roundtrip(
        self,
        tx_power_w: float,
        tag_position: Vec3,
        tag_gain_linear: float,
        tag_modulation_efficiency: float = 0.25,
        scatterers: Iterable[Scatterer] = (),
        direct_extra_loss_db: float = 0.0,
    ) -> complex:
        """Complex baseband voltage of the tag response at the reader.

        ``|s|^2`` is the received backscatter power in watts; ``arg(s)`` the
        channel phase before the reader/tag circuit offsets are applied.
        """
        g = self.one_way(tag_position, tag_gain_linear, scatterers, direct_extra_loss_db)
        return math.sqrt(tx_power_w * tag_modulation_efficiency) * g * g
