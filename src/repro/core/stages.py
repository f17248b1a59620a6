"""Composable pipeline stages: the paper's blocks as small objects.

:class:`~repro.core.pipeline.RFIPad` historically inlined every processing
step; this module breaks the pipeline into explicit stage objects so the
same code paths can be driven batch-style (whole log in, result out) and
incrementally (:mod:`repro.stream`).  Each stage is a frozen dataclass:
**configuration lives on the stage, state lives in the arguments** — a
stage owns no mutable state, so one stage set can serve any number of
concurrent sessions.

The stage split mirrors the paper's architecture (DESIGN.md §6):

============  ======================================================
stage         paper anchor
============  ======================================================
suppression   Eq. 8-10 accumulative differences + inverse-bias weights
imaging       grey-map rendering over the tag grid
otsu          OTSU binarisation of the grey map
direction     RSS-trough ordering (section III-B)
classify      image-assisted shape decision
segmentation  Eq. 11-12 RMS-window segmentation (batch + streaming)
grammar       tree-structure letter composition (section III-C.2)
============  ======================================================

Span names emitted by the stages are part of the observability contract
(``scripts/check.sh`` greps ``repro stats`` output for every one of them),
so they are pinned here rather than at the call sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Protocol, Sequence, runtime_checkable

from ..obs.trace import get_tracer
from ..physics.geometry import GridLayout
from ..rfid.reports import ReportLog
from .calibration import StaticCalibration
from .classifier import ClassifierConfig, classify_shape
from .direction import (
    DirectionConfig,
    estimate_direction,
    passage_order,
    trough_path,
    trough_rows,
)
from .events import LetterResult, SegmentedWindow, StrokeObservation
from .grammar import TreeGrammar
from .imaging import grey_map_rows
from .otsu import binarize
from .segmentation import SegmentationConfig, StreamSegmenter, segment_strokes
from .suppression import raw_rows, suppression_rows
from .window import WindowBlock

__all__ = [
    "ClassifyStage",
    "DirectionStage",
    "GrammarStage",
    "ImagingStage",
    "OtsuStage",
    "SegmentationStage",
    "Stage",
    "StageContext",
    "StageSet",
    "SuppressionStage",
    "WindowAnalyzer",
    "widest_window",
]


@dataclass(frozen=True)
class StageContext:
    """Per-deployment state every stage reads and none may mutate."""

    layout: GridLayout
    calibration: StaticCalibration


@runtime_checkable
class Stage(Protocol):
    """A named pipeline block.

    Stages are frozen config holders whose ``run``-style methods take a
    :class:`StageContext` plus the data they transform; signatures differ
    per stage (a suppression stage maps a window block to per-tag scores,
    a grammar stage maps strokes to letters), so the protocol pins only the common
    contract: a stable ``name`` — which doubles as the tracer span name —
    and statelessness (all state arrives via arguments).
    """

    @property
    def name(self) -> str: ...


@dataclass(frozen=True)
class SuppressionStage:
    """Eq. 8-10: accumulative phase differences with inverse-bias weights."""

    bias_weighting: bool = True
    diversity_suppression: bool = True

    @property
    def name(self) -> str:
        return "suppression"

    def run(self, ctx: StageContext, block: WindowBlock):
        """Disturbance value of each block row (the window's read tags)."""
        with get_tracer().span(self.name) as sp:
            if self.diversity_suppression:
                values = suppression_rows(block, bias_weighting=self.bias_weighting)
            else:
                values = raw_rows(block)
            sp.set(tags=int(block.table.ids.size), reads=block.reads)
        return values


@dataclass(frozen=True)
class ImagingStage:
    """Render per-tag disturbance values onto the pad grid."""

    @property
    def name(self) -> str:
        return "imaging"

    def run(self, ctx: StageContext, block: WindowBlock, values):
        """The grey map of per-row values; unread tags render as zero."""
        with get_tracer().span(self.name):
            return grey_map_rows(block.ids, values, ctx.layout)


@dataclass(frozen=True)
class OtsuStage:
    """OTSU binarisation of the grey map."""

    @property
    def name(self) -> str:
        return "otsu"

    def run(self, ctx: StageContext, grey):
        with get_tracer().span(self.name) as sp:
            binary = binarize(grey)
            sp.set(foreground=binary.foreground_count())
        return binary


@dataclass(frozen=True)
class DirectionStage:
    """Section III-B: RSS troughs and the path geometry they trace."""

    config: DirectionConfig = field(default_factory=DirectionConfig)

    @property
    def name(self) -> str:
        return "direction"

    def run(self, ctx: StageContext, block: WindowBlock):
        """Returns ``(troughs, path)`` for the window.

        Troughs are detected over *all* calibrated tags, not just OTSU
        foreground: with very short strokes OTSU can keep only the single
        deepest cell, and restricting would then drop the real troughs
        that trace the rest of the pass.  The span covers trough detection
        + path ordering — the stage's dominant cost; the final
        FORWARD/REVERSE vote (:meth:`vote`) is a handful of flops on
        <= rows*cols troughs and rides inside the enclosing span.
        """
        with get_tracer().span(self.name) as sp:
            troughs = trough_rows(block, self.config)
            path = trough_path(troughs, ctx.layout, self.config)
            sp.set(troughs=len(troughs))
        return troughs, path

    def vote(self, ctx: StageContext, kind, troughs, opening):
        """The FORWARD/REVERSE decision over already-detected troughs."""
        return estimate_direction(kind, troughs, ctx.layout, opening, self.config)


@dataclass(frozen=True)
class ClassifyStage:
    """Image-assisted shape decision over the binarised map."""

    config: ClassifierConfig = field(default_factory=ClassifierConfig)

    @property
    def name(self) -> str:
        return "classify"

    def run(self, ctx: StageContext, grey, binary, path, window_s: float):
        with get_tracer().span(self.name) as sp:
            decision = classify_shape(
                grey, binary, self.config, path, window_s=window_s
            )
            sp.set(kind=decision.kind.name if decision is not None else None)
        return decision


@dataclass(frozen=True)
class SegmentationStage:
    """Eq. 11-12 stroke segmentation; batch run or incremental stream."""

    config: SegmentationConfig = field(default_factory=SegmentationConfig)

    @property
    def name(self) -> str:
        return "segmentation"

    def run(self, ctx: StageContext, log: ReportLog) -> List[SegmentedWindow]:
        with get_tracer().span(self.name) as sp:
            windows = segment_strokes(log, ctx.calibration, self.config)
            sp.set(windows=len(windows))
        return windows

    def stream(self, ctx: StageContext) -> StreamSegmenter:
        """A fresh incremental segmenter bound to this stage's config.

        The returned object owns the per-session state; the stage itself
        stays stateless, so one stage set can drive many live sessions.
        """
        return StreamSegmenter(ctx.calibration, self.config)


@dataclass(frozen=True)
class GrammarStage:
    """Compose recognised strokes into the best-matching letter."""

    grammar: TreeGrammar = field(default_factory=TreeGrammar)

    @property
    def name(self) -> str:
        return "grammar"

    def run(
        self,
        strokes: Sequence[StrokeObservation],
        windows: Sequence[SegmentedWindow] = (),
    ) -> LetterResult:
        with get_tracer().span(self.name) as sp:
            result = self.grammar.recognize(strokes, windows)
            sp.set(strokes=len(strokes), letter=result.letter)
        return result


@dataclass(frozen=True)
class WindowAnalyzer:
    """suppression → imaging → otsu → direction → classify over one window.

    The per-window composition both entry points share: batch
    (:meth:`RFIPad.analyze_window <repro.core.pipeline.RFIPad>`) and
    streaming (:class:`repro.stream.StreamingSession` runs it as each
    window closes, over its retention buffer — exact, because every stage
    only reads ``[t0, t1)``).

    :meth:`analyze` groups the window's reads once, into a
    :class:`~repro.core.window.WindowBlock` (one row per calibrated tag
    read in the window), and the suppression, imaging and direction
    stages all read that block; no stage splits the log again.
    """

    suppression: SuppressionStage = field(default_factory=SuppressionStage)
    imaging: ImagingStage = field(default_factory=ImagingStage)
    otsu: OtsuStage = field(default_factory=OtsuStage)
    direction: DirectionStage = field(default_factory=DirectionStage)
    classify: ClassifyStage = field(default_factory=ClassifyStage)

    def analyze(
        self,
        ctx: StageContext,
        log: ReportLog,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
    ) -> Optional[StrokeObservation]:
        """Recognise the stroke drawn within ``[t0, t1)`` of the log.

        Returns ``None`` when the window contains no classifiable
        disturbance (empty OTSU foreground).
        """
        tracer = get_tracer()
        with tracer.span("analyze_window"):
            block = WindowBlock.from_log(log, ctx.calibration.table, t0, t1)
            values = self.suppression.run(ctx, block)
            grey = self.imaging.run(ctx, block, values)
            binary = self.otsu.run(ctx, grey)
            troughs, path = self.direction.run(ctx, block)
            win_lo = t0 if t0 is not None else (log.start_time if len(log) else 0.0)
            win_hi = t1 if t1 is not None else (log.end_time if len(log) else 0.0)
            decision = self.classify.run(
                ctx, grey, binary, path, window_s=max(0.0, win_hi - win_lo)
            )
            if decision is None:
                return None

            direction, dir_confidence = self.direction.vote(
                ctx, decision.kind, troughs, decision.opening
            )
            return StrokeObservation(
                kind=decision.kind,
                direction=direction,
                token=decision.token,
                t0=win_lo,
                t1=win_hi,
                confidence=min(decision.confidence, 0.5 + 0.5 * dir_confidence),
                opening=decision.opening,
                features=decision.features,
                grey=grey,
                binary=binary,
                trough_order=passage_order(troughs),
                line_angle_deg=decision.line_angle_deg,
            )


@dataclass(frozen=True)
class StageSet:
    """The full pipeline as one immutable bundle of stages."""

    suppression: SuppressionStage = field(default_factory=SuppressionStage)
    imaging: ImagingStage = field(default_factory=ImagingStage)
    otsu: OtsuStage = field(default_factory=OtsuStage)
    direction: DirectionStage = field(default_factory=DirectionStage)
    classify: ClassifyStage = field(default_factory=ClassifyStage)
    segmentation: SegmentationStage = field(default_factory=SegmentationStage)
    grammar: GrammarStage = field(default_factory=GrammarStage)

    @property
    def analyzer(self) -> WindowAnalyzer:
        return WindowAnalyzer(
            suppression=self.suppression,
            imaging=self.imaging,
            otsu=self.otsu,
            direction=self.direction,
            classify=self.classify,
        )

    @classmethod
    def from_config(cls, config, grammar: Optional[TreeGrammar] = None) -> "StageSet":
        """Build the stage set an :class:`RFIPadConfig` describes."""
        return cls(
            suppression=SuppressionStage(
                bias_weighting=config.bias_weighting,
                diversity_suppression=config.diversity_suppression,
            ),
            direction=DirectionStage(config.direction),
            classify=ClassifyStage(config.classifier),
            segmentation=SegmentationStage(config.segmentation),
            grammar=GrammarStage(grammar if grammar is not None else TreeGrammar()),
        )


def widest_window(windows: Sequence[SegmentedWindow]) -> SegmentedWindow:
    """The longest window; ties break deterministically to the earliest t0.

    The explicit tie-break keeps single-motion results identical between
    the batch and streaming paths even when two windows share a duration
    (``max`` alone would pick whichever came first in list order, which is
    stable here, but the intent deserves to be pinned).
    """
    return max(windows, key=lambda w: (w.duration, -w.t0))
