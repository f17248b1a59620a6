"""Static calibration: per-tag central phase and Deviation bias.

Before recognition, RFIPad captures the array with no hand present and
estimates, per tag:

* the *central phase* ``theta_tilde_i`` (Eq. 6) — the circular mean of the
  static reports, which carries the tag-diversity offset ``theta_tag`` plus
  the static channel; subtracting it wipes both (Eq. 8);
* the *Deviation bias* ``b_i`` (Fig. 5) — the dispersion of the static
  phase, which measures how exposed the tag's location is to multipath
  clutter; it feeds the location-diversity weighting (Eq. 9);
* the static mean RSS — the baseline the direction estimator's trough
  detection compares against (section III-B).

Circular statistics are used throughout: wrapped phases near the 0/2*pi
boundary would otherwise produce garbage means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict

import numpy as np

from ..rfid.reports import ReportLog
from ..units import wrap_phase
from .unwrap import unwrap_residual


def circular_mean(phases: np.ndarray) -> float:
    """Circular mean of wrapped phases, in [0, 2*pi)."""
    if phases.size == 0:
        raise ValueError("circular mean of empty array")
    z = np.exp(1j * phases).mean()
    if abs(z) < 1e-12:
        # Perfectly spread phases have no meaningful mean; pick 0.
        return 0.0
    return wrap_phase(float(np.angle(z)))


def circular_std(phases: np.ndarray) -> float:
    """Circular standard deviation, radians.

    Uses the standard sqrt(-2 ln R) estimator, which agrees with the linear
    std for concentrated distributions (our static tags) and saturates for
    diffuse ones.
    """
    if phases.size == 0:
        raise ValueError("circular std of empty array")
    r = float(np.abs(np.exp(1j * phases).mean()))
    r = min(1.0, max(1e-12, r))
    return math.sqrt(max(0.0, -2.0 * math.log(r)))


@dataclass(frozen=True)
class TagCalibration:
    """Static statistics of one tag."""

    tag_index: int
    central_phase: float      # theta_tilde_i, radians in [0, 2*pi)
    deviation_bias: float     # b_i, radians
    mean_rss_dbm: float
    rss_std_db: float
    sample_count: int


@dataclass
class StaticCalibration:
    """Per-tag static profile for a deployed array.

    ``bias_floor`` guards the inverse-bias weighting of Eq. 10: a tag whose
    static capture happened to be unnaturally quiet would otherwise get an
    unbounded weight.
    """

    tags: Dict[int, TagCalibration]
    bias_floor: float = 1e-3

    def __post_init__(self) -> None:
        if not self.tags:
            raise ValueError("calibration needs at least one tag")

    def central_phase(self, tag_index: int) -> float:
        return self.tags[tag_index].central_phase

    def deviation_bias(self, tag_index: int) -> float:
        return max(self.bias_floor, self.tags[tag_index].deviation_bias)

    def mean_rss(self, tag_index: int) -> float:
        return self.tags[tag_index].mean_rss_dbm

    def tag_indices(self) -> "list[int]":
        return sorted(self.tags)

    #: Clamp band applied to biases before weighting: each b_i is limited
    #: to [median/band, median*band].  Eq. 9 as written is unbounded; with
    #: finite calibration captures a tag whose bias estimate lands 3x off
    #: would have its genuine stroke evidence crushed (or its noise
    #: amplified) by the same factor.  The clamp preserves the paper's
    #: noise-floor equalisation while bounding the damage of estimation
    #: error — see the `abl_weighting` ablation.
    weight_clamp_band: float = 2.0

    def weights(self) -> Dict[int, float]:
        """The location-diversity weights of Eq. 9: w_i = b_i / sum(b).

        Recognition divides by these (Eq. 10), so noisy locations are
        down-weighted and quiet locations amplified.  Biases are clamped
        to ``weight_clamp_band`` around their median first.
        """
        table = self.table
        return {i: float(table.weight[i - table.lo]) for i in self.tags}

    @cached_property
    def table(self) -> "CalibrationTable":
        """The calibration's lookup table, built on first use.

        A calibration is not mutated after :func:`calibrate` builds it, so
        the table (and the Eq. 9 weights in it) is computed once.
        """
        return CalibrationTable.build(self)

    def residual_series(self, tag_index: int, phases: np.ndarray) -> np.ndarray:
        """Calibrated, unwrapped phase residual of a tag (Eq. 8 + unwrap)."""
        return unwrap_residual(phases, self.central_phase(tag_index))


@dataclass(frozen=True)
class CalibrationTable:
    """Tag id → row slot lookup, with each tag's constants by slot.

    Tag id ``t`` looks up slot ``clip(t - lo, 0, top)`` with ``lo`` one
    below the smallest calibrated id: slots ``1..top-1`` span the
    calibrated ids, while slots ``0`` and ``top`` catch every id below and
    above them and are never known.  A raw id must not index the arrays,
    because numpy wraps negative indices.  The streaming segmenter's open
    reads and the analysis window block both look ids up here, so the
    id → slot decision lives in one place.
    """

    lo: int
    top: int
    ids: np.ndarray       # calibrated ids, ascending
    known: np.ndarray     # (top + 1,) bool, per slot
    centre: np.ndarray    # (top + 1,) central phase (Eq. 6), 0 where unknown
    mean_rss: np.ndarray  # (top + 1,) static mean RSS, 0 where unknown
    weight: np.ndarray    # (top + 1,) Eq. 9 weight, 0 where unknown

    @classmethod
    def build(cls, calibration: "StaticCalibration") -> "CalibrationTable":
        ids = np.array(sorted(calibration.tags), dtype=np.int64)
        lo = int(ids[0]) - 1
        top = int(ids[-1]) - lo + 1
        slots = ids - lo
        known = np.zeros(top + 1, dtype=bool)
        known[slots] = True
        centre = np.zeros(top + 1)
        centre[slots] = [calibration.central_phase(int(i)) for i in ids]
        mean_rss = np.zeros(top + 1)
        mean_rss[slots] = [calibration.mean_rss(int(i)) for i in ids]
        # Eq. 9 with the clamp band, in the calibration's tag order: the
        # sum below adds the clamped biases in that order.
        raw = {i: calibration.deviation_bias(i) for i in calibration.tags}
        values = sorted(raw.values())
        median = values[len(values) // 2]
        band = calibration.weight_clamp_band
        lo_b, hi_b = median / band, median * band
        biases = {i: min(hi_b, max(lo_b, b)) for i, b in raw.items()}
        total = sum(biases.values())
        weight = np.zeros(top + 1)
        weight[[i - lo for i in biases]] = [b / total for b in biases.values()]
        for arr in (ids, known, centre, mean_rss, weight):
            arr.flags.writeable = False
        return cls(lo=lo, top=top, ids=ids, known=known, centre=centre,
                   mean_rss=mean_rss, weight=weight)

    def slots(self, tag_ids: np.ndarray) -> np.ndarray:
        """Slot of every id; ids outside the calibrated range land in a
        sentinel slot."""
        # minimum/maximum rather than np.clip, whose wrapper costs more than
        # the clamp itself on a chunk-sized array.
        return np.minimum(np.maximum(np.asarray(tag_ids, dtype=np.int64) - self.lo, 0), self.top)


def calibrate(log: ReportLog, min_samples: int = 5) -> StaticCalibration:
    """Build a static calibration from a no-hand capture.

    Tags with fewer than ``min_samples`` reads are rejected: a calibration
    that silently includes a barely-read tag would assign it a meaningless
    bias and corrupt the weighting.
    """
    if len(log) == 0:
        raise ValueError("cannot calibrate from an empty report log")
    tags: Dict[int, TagCalibration] = {}
    for idx, series in log.per_tag().items():
        if len(series) < min_samples:
            raise ValueError(
                f"tag {idx} has only {len(series)} static reads "
                f"(need >= {min_samples}); capture longer"
            )
        tags[idx] = TagCalibration(
            tag_index=idx,
            central_phase=circular_mean(series.phases),
            deviation_bias=circular_std(series.phases),
            mean_rss_dbm=float(series.rss.mean()),
            rss_std_db=float(series.rss.std()),
            sample_count=len(series),
        )
    return StaticCalibration(tags=tags)
