"""Image-assisted stroke classification (section III-A.3).

Decision procedure over the OTSU binary map's features:

1. no foreground                          -> nothing to classify
2. compact blob (small span, low stretch) -> CLICK
3. line-vs-arc: decided primarily by the *trough path straightness* (the
   time-ordered RSS troughs replay the hand's path; an arc's chord is much
   shorter than its arc length), falling back to image moments (circle
   fit: small radius, real angular coverage, off-axis thickness, centre
   offset) when too few troughs are available;
4. arcs take their opening from the circle fit's angular gap (or the
   trough path's bulge); lines bin the principal-axis angle into
   "−", "|", "/", "\\".

Thresholds are in cell units of the 5x5 pad and were chosen on the
generator's geometry; they are exposed as a config so the ablation benches
can stress them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..motion.strokes import ArcOpening, StrokeKind
from .direction import TroughPath
from .features import ShapeFeatures, extract_features, opening_quadrant
from .imaging import BinaryMap, GreyMap


@dataclass(frozen=True)
class ClassifierConfig:
    """Tunable decision thresholds (cell units)."""

    #: A blob spanning at most this many cells per axis can be a click...
    click_max_span: int = 3
    #: ...provided its principal-axis stretch stays below this...
    click_max_extent: float = 2.4
    #: ...and the replayed hand path went (almost) nowhere: maximum trough
    #: chord, in cells.  A push typically yields *no* troughs at all — the
    #: shadow + detuning drive its target tag unreadable, leaving a gap
    #: instead of a dip — while even the shortest travelling bar leaves a
    #: chord of two cells or more.
    click_max_chord: float = 1.5
    #: Arcs need at least this many foreground cells to trust the fit.
    arc_min_cells: int = 5
    #: Circle-fit radius must stay below this multiple of the major extent
    #: (a straight line fits a near-infinite circle).
    arc_max_radius_ratio: float = 1.3
    #: Minimum off-axis spread relative to the extent: lines are thin.
    arc_min_thickness: float = 0.16
    #: Minimum angular coverage of the points around the fitted centre.
    arc_min_coverage_deg: float = 110.0
    #: Circle-fit RMS residual must stay below this fraction of the radius.
    arc_max_rms_ratio: float = 0.40
    #: The fitted centre must sit at least this fraction of the radius away
    #: from the blob centroid (arcs are one-sided; filled bars are not).
    arc_min_centre_offset: float = 0.22
    #: Angle bin half-width for the horizontal/vertical decision, degrees.
    axis_half_width_deg: float = 27.5
    #: Trough-path straightness below which the stroke is an arc...
    arc_max_straightness: float = 0.75
    #: ...and above which it is definitely a line (between the two the
    #: image-moment gates decide).
    line_min_straightness: float = 0.85
    #: Minimum troughs for the path-straightness signal to be trusted.
    path_min_troughs: int = 3


@dataclass(frozen=True)
class ShapeDecision:
    """Classifier output: the stroke kind plus arc opening and confidence.

    ``line_angle_deg`` preserves the *continuous* orientation a line was
    classified from (principal axis or trough chord, in (-90, 90], y up).
    The letter grammar scores it against each candidate stroke's true
    angle, which matters for narrow letters whose diagonals are far from
    45 degrees (a "V" leg is ~72 degrees steep).
    """

    kind: StrokeKind
    opening: Optional[ArcOpening]
    confidence: float
    features: ShapeFeatures
    line_angle_deg: Optional[float] = None

    @property
    def token(self) -> str:
        if self.opening is not None:
            return f"arc:{self.opening.value}"
        return self.kind.name.lower()


_OPENING_FROM_NAME = {
    "left": ArcOpening.LEFT,
    "right": ArcOpening.RIGHT,
    "up": ArcOpening.UP,
    "down": ArcOpening.DOWN,
}


def _arc_decision(
    feats: ShapeFeatures,
    config: ClassifierConfig,
    path: Optional[TroughPath],
) -> Optional[ShapeDecision]:
    """Build the ARC decision if the evidence supports one, else None."""
    path_votes_arc = (
        path is not None
        and path.n >= config.path_min_troughs
        and path.straightness <= config.arc_max_straightness
    )
    # A line veto needs a *decisively* straight path: partially-observed
    # arcs (strong troughs only on one limb) can look fairly straight.
    path_votes_line = (
        path is not None
        and path.n >= config.path_min_troughs
        and path.straightness >= config.line_min_straightness
    )
    path_decisively_straight = (
        path is not None
        and path.n >= config.path_min_troughs
        and path.straightness >= 0.93
    )
    image_votes_arc = (
        feats.count >= config.arc_min_cells
        and math.isfinite(feats.circle_radius)
        and feats.major_extent > 1e-9
        and feats.circle_radius <= config.arc_max_radius_ratio * feats.major_extent
        and feats.minor_std >= config.arc_min_thickness * feats.major_extent
        and feats.coverage_deg >= config.arc_min_coverage_deg
        and feats.circle_rms <= config.arc_max_rms_ratio * feats.circle_radius
        and feats.centre_offset_ratio >= config.arc_min_centre_offset
    )
    if path_decisively_straight:
        return None
    if path_votes_line and not image_votes_arc:
        return None
    if not (path_votes_arc or image_votes_arc):
        return None

    # Opening: the circle fit's angular gap when the image supplied one,
    # otherwise the trough path's bulge direction.
    quadrant = opening_quadrant(feats.opening)
    if quadrant is None and path is not None:
        quadrant = opening_quadrant(path.opening)
    if quadrant is None:
        return None
    opening = _OPENING_FROM_NAME[quadrant]
    kind = StrokeKind.ARC_C if opening is ArcOpening.RIGHT else StrokeKind.ARC_D
    # Bowls/caps have no dedicated StrokeKind in the paper's 7; keep the
    # nearest arc kind but the token carries the true opening.
    if path_votes_arc and path is not None:
        confidence = 0.5 + 0.5 * min(1.0, (config.arc_max_straightness - path.straightness) / 0.3 + 0.3)
    else:
        fit_quality = 1.0 - feats.circle_rms / max(feats.circle_radius, 1e-9)
        confidence = 0.5 + 0.5 * max(0.0, fit_quality)
    return ShapeDecision(kind, opening, min(1.0, confidence), feats)


def classify_shape(
    grey: GreyMap,
    binary: BinaryMap,
    config: ClassifierConfig = ClassifierConfig(),
    path: Optional[TroughPath] = None,
    window_s: float = 0.0,
) -> Optional[ShapeDecision]:
    """Classify the foreground blob; ``None`` when the map is empty.

    ``path`` is the optional time-ordered trough geometry; when present it
    dominates the line-vs-arc decision (see module docstring).  ``window_s``
    is the analysis window duration, used to normalise trough time spread.
    """
    feats = extract_features(grey, binary)
    if feats is None:
        return None

    # --- click: compact blob, stationary (or absent) trough path --------
    compact = (
        max(feats.span_cells) <= config.click_max_span
        and feats.major_extent <= config.click_max_extent
    )
    if compact:
        extent = path.spatial_extent if path is not None else 0.0
        if extent <= config.click_max_chord:
            confidence = 0.6 + 0.4 * (1.0 - extent / max(config.click_max_chord, 1e-9))
            return ShapeDecision(StrokeKind.CLICK, None, min(1.0, confidence), feats)
        # the trough footprint says the hand travelled: fall through.

    arc = _arc_decision(feats, config, path)
    if arc is not None:
        return arc

    # --- line: bin the principal-axis angle ---------------------------
    angle = feats.angle_deg  # (-90, 90], y up
    # A degenerate blob (1-3 cells) carries almost no orientation; the
    # trough chord, when the hand demonstrably travelled, is more telling.
    if feats.count <= 3 and path is not None:
        chord_len = math.hypot(*path.chord)
        if chord_len >= 1.4:
            chord_angle = math.degrees(math.atan2(path.chord[1], path.chord[0]))
            if chord_angle <= -90.0:
                chord_angle += 180.0
            elif chord_angle > 90.0:
                chord_angle -= 180.0
            angle = chord_angle
    half = config.axis_half_width_deg
    if abs(angle) <= half:
        kind = StrokeKind.HBAR
        distance = abs(angle)
    elif abs(angle) >= 90.0 - half:
        kind = StrokeKind.VBAR
        distance = 90.0 - abs(angle)
    elif angle > 0.0:
        kind = StrokeKind.SLASH
        distance = abs(angle - 45.0)
    else:
        kind = StrokeKind.BACKSLASH
        distance = abs(angle + 45.0)
    confidence = max(0.0, 1.0 - distance / 45.0)
    return ShapeDecision(kind, None, 0.5 + 0.5 * confidence, feats, line_angle_deg=angle)
