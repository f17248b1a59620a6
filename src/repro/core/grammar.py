"""Tree-structure grammar for composing strokes into letters (section III-C.2).

The grammar is a prefix tree over stroke tokens: each node holds the
letters still compatible with the tokens consumed so far.  After the last
stroke, surviving candidates are ranked by *position consistency* — the
paper's disambiguator for letters with identical stroke sequences (D vs P,
O vs S, V vs X): e.g. a "⊃" spanning the "|"'s full height says D, one
hugging the top half says P.

Token matching is soft: a slightly mis-binned stroke (a "/" read as "|",
an arc whose opening snapped to the wrong quadrant) pays a substitution
cost instead of killing the letter, which mirrors how humans — and the
paper's ~91% letter accuracy — tolerate imperfect stroke recognition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from ..motion.letters import LETTER_STROKES, StrokeSpec
from ..motion.strokes import ArcOpening, StrokeKind
from .events import LetterResult, SegmentedWindow, StrokeObservation


# ----------------------------------------------------------------------
# Token distance
# ----------------------------------------------------------------------

_LINE_ANGLES = {
    "hbar": 0.0,
    "slash": 45.0,
    "vbar": 90.0,
    "backslash": 135.0,  # mod 180
}

_OPENING_ANGLES = {
    "right": 0.0,
    "up": 90.0,
    "left": 180.0,
    "down": 270.0,
}


def token_distance(observed: str, expected: str) -> float:
    """Substitution cost between two stroke tokens, in [0, 1]."""
    if observed == expected:
        return 0.0
    obs_arc = observed.startswith("arc:")
    exp_arc = expected.startswith("arc:")
    if obs_arc and exp_arc:
        a = _OPENING_ANGLES[observed.split(":", 1)[1]]
        b = _OPENING_ANGLES[expected.split(":", 1)[1]]
        diff = abs(a - b) % 360.0
        diff = min(diff, 360.0 - diff)
        return 0.25 + 0.75 * (diff / 180.0)  # adjacent quadrant 0.625, opposite 1.0
    if "click" in (observed, expected):
        # Sub-cell strokes (a "G"'s inner bar, a "Q"'s tail) regularly read
        # as clicks; keep the cost moderate so positions can still decide.
        return 0.75 if obs_arc or exp_arc else 0.60
    if obs_arc != exp_arc:
        return 0.60  # shallow arcs and lines blur into each other at 5x5
    a = _LINE_ANGLES.get(observed)
    b = _LINE_ANGLES.get(expected)
    if a is None or b is None:
        return 1.0
    diff = abs(a - b) % 180.0
    diff = min(diff, 180.0 - diff)
    return 0.3 + 0.7 * (diff / 90.0)  # adjacent bins 0.65, perpendicular 1.0


def _spec_line_angle(spec: StrokeSpec) -> float:
    """True orientation of a spec's line stroke in (-90, 90], y up."""
    dx = spec.end[0] - spec.start[0]
    dy = spec.end[1] - spec.start[1]
    angle = math.degrees(math.atan2(dy, dx))
    if angle <= -90.0:
        angle += 180.0
    elif angle > 90.0:
        angle -= 180.0
    return angle


def stroke_pair_cost(obs: StrokeObservation, spec: StrokeSpec) -> float:
    """Mismatch cost in [0, 1] between an observed stroke and a spec stroke.

    Unlike :func:`token_distance` (which compares binned tokens), this
    scores *continuous* line orientation when the observation carries one:
    a stroke read as "|" at 78 degrees is a near-perfect match for a
    narrow "V"'s 72-degree leg even though its token bin says ``vbar``.
    """
    spec_token = spec.shape_token
    obs_token = obs.token
    spec_is_arc = spec_token.startswith("arc:")
    obs_is_arc = obs_token.startswith("arc:")
    if obs_is_arc or spec_is_arc or obs_token == "click" or spec_token == "click":
        return token_distance(obs_token, spec_token)
    if obs.line_angle_deg is None:
        return token_distance(obs_token, spec_token)
    diff = abs(obs.line_angle_deg - _spec_line_angle(spec)) % 180.0
    diff = min(diff, 180.0 - diff)
    return 0.9 * (diff / 90.0)


# ----------------------------------------------------------------------
# Position geometry of the letter specs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StrokeGeometry:
    """Normalised placement of one stroke inside its letter's union box."""

    cx: float
    cy: float
    width: float
    height: float

    def distance(self, other: "StrokeGeometry") -> float:
        return math.sqrt(
            (self.cx - other.cx) ** 2
            + (self.cy - other.cy) ** 2
            + 0.5 * (self.width - other.width) ** 2
            + 0.5 * (self.height - other.height) ** 2
        )


def _spec_polyline(spec: StrokeSpec) -> List[Tuple[float, float]]:
    """Letter-box polyline of a spec (reusing the generator's arc geometry)."""
    from ..motion.strokes import _arc_between, _line_skeleton  # shared geometry

    if spec.opening is not None or spec.kind in (StrokeKind.ARC_C, StrokeKind.ARC_D):
        opening = spec.opening
        if opening is None:
            opening = ArcOpening.RIGHT if spec.kind is StrokeKind.ARC_C else ArcOpening.LEFT
        return _arc_between(spec.start, spec.end, opening)
    return _line_skeleton(spec.start, spec.end)


def _normalise_boxes(
    boxes: Sequence[Tuple[float, float, float, float]]
) -> List[StrokeGeometry]:
    """Normalise (xmin, xmax, ymin, ymax) boxes by their union box.

    Both axes are scaled by the union box's *larger* side and centred on
    its middle (aspect-preserving).  Per-axis scaling would blow up
    degenerate dimensions — a single "|" has zero width, and normalising
    by it would turn its centre into garbage — and would erase the
    width/height proportions that tell a "P" bump from a "D" bowl.
    """
    if not boxes:
        return []
    xmin = min(b[0] for b in boxes)
    xmax = max(b[1] for b in boxes)
    ymin = min(b[2] for b in boxes)
    ymax = max(b[3] for b in boxes)
    scale = max(1e-6, xmax - xmin, ymax - ymin)
    cx0 = (xmin + xmax) / 2.0
    cy0 = (ymin + ymax) / 2.0
    out = []
    for bx0, bx1, by0, by1 in boxes:
        out.append(
            StrokeGeometry(
                cx=0.5 + ((bx0 + bx1) / 2.0 - cx0) / scale,
                cy=0.5 + ((by0 + by1) / 2.0 - cy0) / scale,
                width=(bx1 - bx0) / scale,
                height=(by1 - by0) / scale,
            )
        )
    return out


@lru_cache(maxsize=None)
def _spec_geometry(letter: str) -> Tuple[StrokeGeometry, ...]:
    """Normalised per-stroke placement of a letter's specification, built
    once per process (``letter`` is upper case)."""
    boxes = []
    for spec in LETTER_STROKES[letter]:
        pts = _spec_polyline(spec)
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        boxes.append((min(xs), max(xs), min(ys), max(ys)))
    return tuple(_normalise_boxes(boxes))


def letter_geometry(letter: str) -> List[StrokeGeometry]:
    """Normalised per-stroke placement of a letter's specification.

    The geometry is static, so it is built once per process; each call
    returns a fresh list of the (frozen) stroke geometries, so no caller
    can change what the next one gets.
    """
    return list(_spec_geometry(letter.upper()))


def observed_geometry(strokes: Sequence[StrokeObservation]) -> List[StrokeGeometry]:
    """Normalised per-stroke placement measured from the grey maps.

    Uses each stroke's binary-map bounding box in cell units (y up).
    Strokes lacking features (empty maps) get a degenerate centred box.
    """
    boxes = []
    for obs in strokes:
        if obs.features is None or obs.grey is None:
            boxes.append((0.4, 0.6, 0.4, 0.6))
            continue
        rows = obs.grey.layout.rows
        rmin, rmax, cmin, cmax = obs.features.bbox
        # Cell-centre coordinates with y up: a single-column stroke gets
        # zero width, matching how the spec geometry measures a thin "|".
        xmin, xmax = float(cmin), float(cmax)
        ymin, ymax = float(rows - 1 - rmax), float(rows - 1 - rmin)
        boxes.append((xmin, xmax, ymin, ymax))
    return _normalise_boxes(boxes)


# ----------------------------------------------------------------------
# The grammar tree
# ----------------------------------------------------------------------


@dataclass
class GrammarNode:
    """One prefix-tree node: children by token, letters compatible so far."""

    letters: List[str] = field(default_factory=list)
    terminals: List[str] = field(default_factory=list)
    children: Dict[str, "GrammarNode"] = field(default_factory=dict)


class TreeGrammar:
    """The stroke-sequence prefix tree plus soft scoring (Fig. 10)."""

    def __init__(
        self,
        token_weight: float = 1.0,
        position_weight: float = 0.8,
        accept_threshold: float = 0.62,
    ) -> None:
        self.token_weight = token_weight
        self.position_weight = position_weight
        self.accept_threshold = accept_threshold
        self.root = GrammarNode()
        for letter, specs in LETTER_STROKES.items():
            node = self.root
            node.letters.append(letter)
            for spec in specs:
                node = node.children.setdefault(spec.shape_token, GrammarNode())
                node.letters.append(letter)
            node.terminals.append(letter)

    # -- exact navigation (used by tests and streaming autocomplete) -----

    def candidates_for_prefix(self, tokens: Sequence[str]) -> List[str]:
        """Letters whose decomposition starts with exactly these tokens."""
        node = self.root
        for token in tokens:
            if token not in node.children:
                return []
            node = node.children[token]
        return sorted(node.letters)

    def exact_match(self, tokens: Sequence[str]) -> List[str]:
        node = self.root
        for token in tokens:
            if token not in node.children:
                return []
            node = node.children[token]
        return sorted(node.terminals)

    # -- soft scoring ----------------------------------------------------

    def score_letter(self, letter: str, strokes: Sequence[StrokeObservation]) -> float:
        """Mismatch score (lower is better) of a letter for observed strokes.

        Letters with a different stroke count are given an infinite score:
        the segmenter owns stroke-count errors, and padding alignments here
        would double-charge them.
        """
        return self._score(letter.upper(), strokes, observed_geometry(strokes))

    def _score(
        self,
        letter: str,
        strokes: Sequence[StrokeObservation],
        observed: Sequence[StrokeGeometry],
    ) -> float:
        """:meth:`score_letter` given the strokes' :func:`observed_geometry`
        (``letter`` upper case)."""
        specs = LETTER_STROKES[letter]
        if len(specs) != len(strokes):
            return float("inf")
        token_cost = sum(
            stroke_pair_cost(obs, spec) for obs, spec in zip(strokes, specs)
        ) / len(specs)
        expected = _spec_geometry(letter)
        position_cost = sum(o.distance(e) for o, e in zip(observed, expected)) / len(specs)
        return self.token_weight * token_cost + self.position_weight * position_cost

    def recognize(
        self,
        strokes: Sequence[StrokeObservation],
        windows: Sequence[SegmentedWindow] = (),
    ) -> LetterResult:
        """Rank all letters against the observed strokes.

        Each letter scores as :meth:`score_letter` would, but the strokes'
        observed geometry is measured once for all candidates.
        """
        if not strokes:
            return LetterResult(letter=None, strokes=(), windows=tuple(windows))
        observed = observed_geometry(strokes)
        scored = []
        for letter in LETTER_STROKES:
            score = self._score(letter, strokes, observed)
            if math.isfinite(score):
                scored.append((letter, score))
        scored.sort(key=lambda pair: pair[1])
        best = scored[0][0] if scored and scored[0][1] <= self.accept_threshold else None
        return LetterResult(
            letter=best,
            strokes=tuple(strokes),
            candidates=tuple(scored[:5]),
            windows=tuple(windows),
        )
