"""Event types flowing out of the recognition pipeline."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..motion.strokes import ArcOpening, Direction, StrokeKind
from .features import ShapeFeatures
from .imaging import BinaryMap, GreyMap


@dataclass(frozen=True)
class StrokeObservation:
    """One recognised stroke: shape, direction, position, and provenance.

    ``token`` is the grammar vocabulary item: the stroke kind name for
    lines/clicks, ``"arc:<opening>"`` for arcs — matching
    :meth:`repro.motion.letters.StrokeSpec.shape_token`.
    """

    kind: StrokeKind
    direction: Direction
    token: str
    t0: float
    t1: float
    confidence: float
    opening: Optional[ArcOpening] = None
    features: Optional[ShapeFeatures] = None
    grey: Optional[GreyMap] = None
    binary: Optional[BinaryMap] = None
    trough_order: Tuple[int, ...] = ()   # tag indices in passage order
    line_angle_deg: Optional[float] = None  # continuous orientation for lines

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def label(self) -> str:
        arrow = "" if self.kind is StrokeKind.CLICK else (
            "+" if self.direction is Direction.FORWARD else "-"
        )
        return f"{self.kind.glyph}{arrow}"


@dataclass(frozen=True)
class SegmentedWindow:
    """A candidate stroke window produced by the segmenter."""

    t0: float
    t1: float
    peak_std_rms: float

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass(frozen=True)
class LetterResult:
    """The output of letter recognition over one writing session."""

    letter: Optional[str]                  # None when nothing matched
    strokes: Tuple[StrokeObservation, ...]
    candidates: Tuple[Tuple[str, float], ...] = ()  # (letter, score), best first
    windows: Tuple[SegmentedWindow, ...] = ()

    @property
    def stroke_tokens(self) -> Tuple[str, ...]:
        return tuple(s.token for s in self.strokes)
