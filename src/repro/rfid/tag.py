"""Passive tag model: EPC identity, IC power budget, and circuit diversity.

A tag is readable only when the incident RF power clears its IC's power-up
sensitivity (passive systems are forward-link limited, paper section
IV-B.3).  Each tag also carries a *circuit phase offset* ``theta_tag`` —
the manufacture-induced tag diversity of section III-A.2 that RFIPad's
calibration must cancel — and a per-tag modulation efficiency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..physics.coupling import TAG_DESIGN_B, TagAntennaProfile
from ..physics.geometry import Vec3
from ..units import TWO_PI, db_to_linear, dbm_to_watts


#: Power-up sensitivity of a modern Gen2 IC (Monza-class), dBm.
DEFAULT_IC_SENSITIVITY_DBM = -17.0


@dataclass
class Tag:
    """One deployed passive tag.

    Attributes
    ----------
    epc:
        Electronic Product Code string; unique within a scene.
    index:
        Flat index in the deployed array (row-major), or -1 for loose tags.
    position:
        Tag antenna centre, metres, in the tag-plane frame.
    design:
        Electromagnetic profile (RCS/gain) of the commercial design.
    theta_tag:
        Circuit reflection phase offset, radians — the tag diversity term.
    modulation_efficiency:
        Fraction of incident power re-radiated in the modulated sideband.
    ic_sensitivity_dbm:
        Minimum incident power for the IC to power up and respond.
    facing_default:
        Antenna facing (True = default direction).  Checkerboard patterns
        reduce mutual coupling, section IV-B.1.
    static_shadow_db:
        Pre-computed coupling loss from neighbouring tags in the deployed
        array (does not change while the array is fixed).
    """

    epc: str
    index: int
    position: Vec3
    design: TagAntennaProfile = TAG_DESIGN_B
    theta_tag: float = 0.0
    modulation_efficiency: float = 0.25
    ic_sensitivity_dbm: float = DEFAULT_IC_SENSITIVITY_DBM
    facing_default: bool = True
    static_shadow_db: float = 0.0

    def __post_init__(self) -> None:
        if not self.epc:
            raise ValueError("EPC must be non-empty")
        if not (0.0 < self.modulation_efficiency <= 1.0):
            raise ValueError("modulation efficiency must be in (0, 1]")
        if self.static_shadow_db < 0.0:
            raise ValueError("static shadow loss must be non-negative")

    @property
    def gain_linear(self) -> float:
        return db_to_linear(self.design.gain_dbi)

    @property
    def ic_sensitivity_w(self) -> float:
        return dbm_to_watts(self.ic_sensitivity_dbm)

    def is_powered(self, incident_power_w: float) -> bool:
        """Whether the forward link delivers enough power to respond."""
        return incident_power_w >= self.ic_sensitivity_w


def make_epc(index: int, prefix: str = "E200") -> str:
    """Deterministic, realistic-looking 96-bit EPC for array tag ``index``."""
    if index < 0:
        raise ValueError("index must be non-negative")
    return f"{prefix}-{index:04X}-{(index * 2654435761) % 0xFFFFFFFF:08X}"


def sample_theta_tag(rng: np.random.Generator) -> float:
    """Draw a manufacture phase offset: uniform over [0, 2*pi).

    Fig. 4 of the paper shows per-tag static phases spread irregularly over
    the full circle — a uniform draw is the faithful model.
    """
    return float(rng.uniform(0.0, TWO_PI))


def sample_modulation_efficiency(rng: np.random.Generator, mean: float = 0.25) -> float:
    """Per-tag modulation efficiency with mild manufacture spread."""
    value = rng.normal(mean, 0.03)
    return float(min(1.0, max(0.05, value)))


def sample_ic_sensitivity_dbm(
    rng: np.random.Generator, mean_dbm: float = DEFAULT_IC_SENSITIVITY_DBM
) -> float:
    """Per-tag IC sensitivity with ~0.5 dB manufacture spread."""
    return float(rng.normal(mean_dbm, 0.5))
