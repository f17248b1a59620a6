"""Geometric features of the binarised grey map.

The classifier needs to tell a dot from a line from an arc using ~25
pixels.  Rather than template matching, we extract a small set of weighted
moment features from the foreground cells (weighted by their grey values,
which preserves sub-cell information the binary mask throws away):

* weighted centroid and covariance -> principal axis, elongation;
* principal-axis projection -> extent and endpoints;
* a Kasa least-squares circle fit -> arc curvature, angular coverage, and
  the direction the arc opens towards (the largest angular gap).  A circle
  fit, unlike a quadratic bow, handles the paper's 240-degree "⊂"/"⊃"
  sweeps where the perpendicular offset is not a function of the
  principal-axis coordinate.

Coordinates are in *cell units* with y up (row 0 is the top of the pad), so
angles read like handwriting: "/" has positive slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .imaging import BinaryMap, GreyMap


@dataclass(frozen=True)
class ShapeFeatures:
    """Moment features of one foreground blob."""

    count: int
    centroid: Tuple[float, float]         # (x, y) cell units, y up
    angle_deg: float                      # principal axis angle in (-90, 90]
    elongation: float                     # sqrt(major/minor variance), >= 1
    major_extent: float                   # spread along the principal axis
    minor_std: float                      # residual spread off-axis
    bow_ratio: float                      # arc bulge relative to half-extent
    opening: Tuple[float, float]          # unit-ish vector the arc opens towards
    bbox: Tuple[int, int, int, int]       # (row_min, row_max, col_min, col_max)
    span_cells: Tuple[int, int]           # (rows spanned, cols spanned)
    circle_radius: float = float("inf")   # Kasa fit radius (inf: no/degenerate fit)
    circle_rms: float = float("inf")      # RMS radial residual of the circle fit
    coverage_deg: float = 0.0             # angular span of points around the centre
    #: Distance from the blob centroid to the fitted circle centre, as a
    #: fraction of the radius.  An arc's centre lies well outside the ink
    #: (~0.4 R for a 240-degree sweep); a filled bar's centre sits on its
    #: centroid.  This is the cleanest arc-vs-thick-line discriminator.
    centre_offset_ratio: float = 0.0


def _weighted_points(grey: GreyMap, binary: BinaryMap) -> Tuple[np.ndarray, np.ndarray]:
    """Foreground points (x, y up) and their grey weights."""
    rows, cols = np.nonzero(binary.mask)
    weights = grey.values[rows, cols].astype(float)
    # Guard: OTSU guarantees foreground > threshold >= 0, but a uniform map
    # can yield zero weights; fall back to unit weights.
    if weights.sum() <= 0.0:
        weights = np.ones_like(weights)
    xs = cols.astype(float)
    ys = (grey.layout.rows - 1 - rows).astype(float)  # flip: y up
    return np.stack([xs, ys], axis=1), weights


def _kasa_circle_fit(
    pts: np.ndarray, w: np.ndarray
) -> Optional[Tuple[Tuple[float, float], float, float]]:
    """Weighted Kasa circle fit: ((cx, cy), radius, rms_residual).

    Solves ``x^2 + y^2 + D x + E y + F = 0`` in least squares.  Returns
    ``None`` for degenerate point sets (collinear points explode the
    radius, which the caller rejects separately, but a singular system —
    e.g. repeated points — returns None outright).
    """
    if pts.shape[0] < 3:
        return None
    x, y = pts[:, 0], pts[:, 1]
    design = np.stack([x, y, np.ones_like(x)], axis=1)
    target = -(x**2 + y**2)
    sw = np.sqrt(w)
    try:
        coeffs, *_ = np.linalg.lstsq(design * sw[:, None], target * sw, rcond=None)
    except np.linalg.LinAlgError:
        return None
    d, e, f = (float(c) for c in coeffs)
    cx, cy = -d / 2.0, -e / 2.0
    r2 = cx * cx + cy * cy - f
    if not math.isfinite(r2) or r2 <= 0.0:
        return None
    radius = math.sqrt(r2)
    dists = np.hypot(x - cx, y - cy)
    rms = math.sqrt(float(((dists - radius) ** 2 * w).sum() / w.sum()))
    return (cx, cy), radius, rms


def _angular_coverage(
    pts: np.ndarray, centre: Tuple[float, float]
) -> Tuple[float, Tuple[float, float]]:
    """(coverage in degrees, unit vector towards the largest angular gap).

    The gap direction is where the arc is *open*: for a "⊂" the points
    cover the left 240 degrees so the largest gap faces right.
    """
    angles = np.sort(np.arctan2(pts[:, 1] - centre[1], pts[:, 0] - centre[0]))
    if angles.size < 2:
        return 0.0, (0.0, 0.0)
    gaps = np.diff(angles)
    wrap_gap = 2.0 * math.pi - (angles[-1] - angles[0])
    all_gaps = np.append(gaps, wrap_gap)
    k = int(np.argmax(all_gaps))
    largest = float(all_gaps[k])
    if k < gaps.size:
        gap_mid = float((angles[k] + angles[k + 1]) / 2.0)
    else:
        gap_mid = float(angles[-1] + wrap_gap / 2.0)
    coverage = math.degrees(2.0 * math.pi - largest)
    return coverage, (math.cos(gap_mid), math.sin(gap_mid))


def extract_features(grey: GreyMap, binary: BinaryMap) -> Optional[ShapeFeatures]:
    """Compute shape features; ``None`` when there is no foreground."""
    pts, w = _weighted_points(grey, binary)
    n = pts.shape[0]
    if n == 0:
        return None

    rows, cols = np.nonzero(binary.mask)
    bbox = (int(rows.min()), int(rows.max()), int(cols.min()), int(cols.max()))
    span = (bbox[1] - bbox[0] + 1, bbox[3] - bbox[2] + 1)

    wsum = w.sum()
    centroid = (pts * w[:, None]).sum(axis=0) / wsum
    if n == 1:
        return ShapeFeatures(
            count=1, centroid=(float(centroid[0]), float(centroid[1])),
            angle_deg=0.0, elongation=1.0, major_extent=0.0, minor_std=0.0,
            bow_ratio=0.0, opening=(0.0, 0.0), bbox=bbox, span_cells=span,
        )

    centred = pts - centroid
    cov = (centred * w[:, None]).T @ centred / wsum
    evals, evecs = np.linalg.eigh(cov)  # ascending
    minor_var, major_var = float(evals[0]), float(evals[1])
    major_axis = evecs[:, 1]
    # Canonical orientation: angle in (-90, 90].
    angle = math.degrees(math.atan2(major_axis[1], major_axis[0]))
    if angle <= -90.0:
        angle += 180.0
    elif angle > 90.0:
        angle -= 180.0
    if angle <= -90.0 or angle > 90.0:  # paranoia after the folds
        angle = math.fmod(angle + 180.0, 180.0)

    elongation = math.sqrt(major_var / minor_var) if minor_var > 1e-12 else float("inf")
    minor_axis = evecs[:, 0]

    # Projections along (s) and across (p) the principal axis.
    s = centred @ major_axis
    p = centred @ minor_axis
    s_range = float(s.max() - s.min())
    major_extent = s_range

    bow_ratio = 0.0
    opening_vec = (0.0, 0.0)
    if n >= 4 and s_range > 1e-9:
        # Weighted quadratic fit p ~ a*s^2 + b*s + c: a cheap bow signature
        # (kept as a diagnostic; the classifier uses the circle fit).
        design = np.stack([s**2, s, np.ones_like(s)], axis=1)
        sw = np.sqrt(w)
        coeffs, *_ = np.linalg.lstsq(design * sw[:, None], p * sw, rcond=None)
        a = float(coeffs[0])
        half = s_range / 2.0
        bulge = a * half**2  # offset of the arc middle relative to the chord
        bow_ratio = abs(bulge) / half if half > 0 else 0.0
        # The arc opens *away* from the bulge: if the middle bows towards
        # +minor_axis, the gap faces -minor_axis.
        direction = -math.copysign(1.0, bulge) if bulge != 0.0 else 0.0
        opening_vec = (float(direction * minor_axis[0]), float(direction * minor_axis[1]))

    circle_radius = float("inf")
    circle_rms = float("inf")
    coverage_deg = 0.0
    centre_offset_ratio = 0.0
    fit = _kasa_circle_fit(pts, w)
    if fit is not None:
        centre, circle_radius, circle_rms = fit
        coverage_deg, gap_vec = _angular_coverage(pts, centre)
        centre_offset_ratio = (
            math.hypot(centre[0] - centroid[0], centre[1] - centroid[1]) / circle_radius
            if circle_radius > 0.0
            else 0.0
        )
        # Prefer the circle fit's opening when the fit is meaningful: the
        # largest angular gap faces the arc's open side.
        if math.isfinite(circle_radius) and circle_radius <= 4.0 * max(s_range, 1.0):
            opening_vec = gap_vec

    return ShapeFeatures(
        count=n,
        centroid=(float(centroid[0]), float(centroid[1])),
        angle_deg=float(angle),
        elongation=float(elongation),
        major_extent=major_extent,
        minor_std=math.sqrt(max(0.0, minor_var)),
        bow_ratio=bow_ratio,
        opening=opening_vec,
        bbox=bbox,
        span_cells=span,
        circle_radius=circle_radius,
        circle_rms=circle_rms,
        coverage_deg=coverage_deg,
        centre_offset_ratio=centre_offset_ratio,
    )


def opening_quadrant(opening: Tuple[float, float]) -> Optional[str]:
    """Snap an opening vector to 'left'/'right'/'up'/'down' (None if ~zero)."""
    x, y = opening
    if abs(x) < 1e-9 and abs(y) < 1e-9:
        return None
    if abs(x) >= abs(y):
        return "right" if x > 0 else "left"
    return "up" if y > 0 else "down"
