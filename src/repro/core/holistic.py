"""Holistic (whole-letter) recognition — the paper's proposed fix for
compounding errors.

Section VI: "One possible direction to mitigate this interference is to
treat a letter as a whole, and resort to image processing techniques for
identifying the whole letter after RFIPad's OTSU operation."  This module
implements that direction:

* the per-stroke grey maps of a session are fused into one *letter image*
  over the tag grid;
* each candidate letter gets a *template* rendered from its stroke
  specification at the same resolution;
* classification is normalised cross-correlation between the letter image
  and the templates, with the stroke-count estimate (number of segmented
  windows) used as a soft prior.

Because the holistic path never commits to per-stroke decisions, a
mis-classified stroke cannot poison the letter — the trade-off is that it
ignores temporal information (stroke order, direction) entirely.  The
``ext_holistic`` experiment compares both, and ``HybridRecognizer`` fuses
them (grammar first, holistic as fallback/tiebreaker).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..motion.letters import LETTER_STROKES, stroke_count
from ..physics.geometry import GridLayout
from .events import LetterResult, SegmentedWindow, StrokeObservation
from .grammar import TreeGrammar, _spec_polyline
from .imaging import GreyMap


def fuse_letter_image(strokes: Sequence[StrokeObservation], layout: GridLayout) -> GreyMap:
    """Fuse per-stroke grey maps into one normalised letter image.

    Each stroke map is max-normalised before summing so a vigorous stroke
    cannot drown a gentle one — the letter's *shape* is what matters.
    """
    acc = np.zeros((layout.rows, layout.cols))
    for obs in strokes:
        if obs.grey is None:
            continue
        acc += obs.grey.normalized()
    return GreyMap(acc, layout)


def render_template(letter: str, layout: GridLayout, thickness: float = 0.55) -> np.ndarray:
    """Rasterise a letter's stroke specification onto the tag grid.

    Each spec polyline is drawn into the (rows x cols) image with a
    Gaussian brush of ``thickness`` cells, matching the blur a real hand
    produces on neighbouring tags.  Output is max-normalised.
    """
    img = np.zeros((layout.rows, layout.cols))
    rr, cc = np.meshgrid(np.arange(layout.rows), np.arange(layout.cols), indexing="ij")
    for spec in LETTER_STROKES[letter.upper()]:
        for u, v in _spec_polyline(spec):
            # Letter-box (y up) -> grid coordinates.
            col = u * (layout.cols - 1)
            row = (1.0 - v) * (layout.rows - 1)
            img += np.exp(-0.5 * (((rr - row) ** 2 + (cc - col) ** 2) / thickness**2))
    peak = img.max()
    return img / peak if peak > 0 else img


def _normalised_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Zero-mean normalised cross-correlation in [-1, 1]."""
    a = a - a.mean()
    b = b - b.mean()
    denom = math.sqrt(float((a * a).sum()) * float((b * b).sum()))
    if denom <= 0.0:
        return 0.0
    return float((a * b).sum() / denom)


@dataclass
class HolisticRecognizer:
    """Template-correlation letter recogniser over fused grey maps."""

    layout: GridLayout
    #: Penalty per unit difference between segmented and spec stroke count.
    stroke_count_weight: float = 0.08
    #: Correlation below this is "no letter".
    accept_correlation: float = 0.35

    def __post_init__(self) -> None:
        self._templates: Dict[str, np.ndarray] = {
            letter: render_template(letter, self.layout) for letter in LETTER_STROKES
        }

    def score_letters(
        self, image: GreyMap, observed_strokes: Optional[int] = None
    ) -> List[Tuple[str, float]]:
        """All letters scored by correlation (higher better), best first."""
        norm = image.normalized()
        scored = []
        for letter, template in self._templates.items():
            corr = _normalised_correlation(norm, template)
            if observed_strokes is not None:
                corr -= self.stroke_count_weight * abs(
                    stroke_count(letter) - observed_strokes
                )
            scored.append((letter, corr))
        scored.sort(key=lambda pair: -pair[1])
        return scored

    def recognize(
        self,
        strokes: Sequence[StrokeObservation],
        windows: Sequence[SegmentedWindow] = (),
    ) -> LetterResult:
        image = fuse_letter_image(strokes, self.layout)
        scored = self.score_letters(image, observed_strokes=len(strokes) or None)
        best_letter, best_corr = scored[0] if scored else (None, 0.0)
        letter = best_letter if best_corr >= self.accept_correlation else None
        return LetterResult(
            letter=letter,
            strokes=tuple(strokes),
            candidates=tuple(scored[:5]),
            windows=tuple(windows),
        )


@dataclass
class HybridRecognizer:
    """Grammar-first recognition with a holistic fallback.

    * If the tree grammar accepts a letter, keep it — temporal stroke
      information is the higher-precision signal.
    * If the grammar rejects (compounded stroke errors), fall back to the
      holistic template match, which only needs the fused image.
    """

    grammar: TreeGrammar
    holistic: HolisticRecognizer

    def recognize(
        self,
        strokes: Sequence[StrokeObservation],
        windows: Sequence[SegmentedWindow] = (),
    ) -> LetterResult:
        primary = self.grammar.recognize(strokes, windows)
        if primary.letter is not None:
            return primary
        fallback = self.holistic.recognize(strokes, windows)
        if fallback.letter is None:
            return primary  # keep the grammar's richer candidate list
        return LetterResult(
            letter=fallback.letter,
            strokes=primary.strokes,
            candidates=fallback.candidates,
            windows=primary.windows,
        )
