"""Bounded-memory streaming recognition sessions.

The paper's system is inherently online: the reader inventories tags
continuously and strokes must be segmented and recognised *as the user
writes* (Eq. 11-12 framing, the Fig. 24 latency budget).  A
:class:`StreamingSession` is the online driver over the same stage objects
the batch :class:`~repro.core.pipeline.RFIPad` uses:

* report chunks go in via :meth:`StreamingSession.ingest` (any chunking,
  down to one read at a time);
* :class:`StrokeEvent`\\ s come back as stroke windows close, each carrying
  the :class:`~repro.core.events.SegmentedWindow` and the analysed
  :class:`~repro.core.events.StrokeObservation`;
* :meth:`StreamingSession.finalize` flushes the tail and appends the
  :class:`LetterEvent` with the tree-grammar composition.

**Equivalence contract** (enforced by ``tests/stream/``): for any log and
any chunking, the streamed window/stroke/letter sequence is exactly — to
the float — what ``RFIPad.recognize_letter`` produces on the whole log.
This works because the segmenter is causal (see
:class:`~repro.core.segmentation.StreamSegmenter`) and every analysis
stage reads only ``[t0, t1)`` of the log, so running it over the
session's retention buffer is indistinguishable from running it over the
full log.

**Memory bound**: after each chunk the session discards buffered reads
older than the segmenter's retention horizon — everything before the
oldest frame that could still join a stroke window.  Retained state is
O(longest stroke + lookahead), independent of session length.

Observability: each chunk runs under a ``stream.chunk`` span;
``stream.buffered_reads`` / ``stream.lag_s`` gauges track the retention
buffer, and ``stream.event_latency_s`` is the end-to-end histogram of
(emission time − window close time) in stream time, surfaced by
``repro stats``.  Sessions constructed with a ``session_id`` additionally
publish their gauges under a ``{"session": id}`` label
(``stream.buffered_reads{session="pad-3"}``), so a multi-session serving
layer can tell its tenants apart on a Prometheus scrape while the
unlabeled aggregate gauges keep reflecting the most recent activity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from ..core.events import LetterResult, SegmentedWindow, StrokeObservation
from ..core.pipeline import RFIPad
from ..core.segmentation import StreamSegmenter
from ..core.stages import GrammarStage, StageContext, WindowAnalyzer, widest_window
from ..obs.metrics import get_metrics
from ..obs.trace import get_tracer
from ..rfid.reports import ReportLog, merge_logs

__all__ = [
    "LetterEvent",
    "StreamEvent",
    "StreamingSession",
    "StrokeEvent",
    "WorkspaceSession",
]


@dataclass(frozen=True)
class StrokeEvent:
    """One stroke window and its analysis.

    ``stroke`` is ``None`` when the window held no classifiable
    disturbance (the batch pipeline drops such windows from the stroke
    list the same way).  ``emitted_at`` is stream time — the timestamp of
    the newest read seen when the event fired — so ``emitted_at -
    window.t1`` is the end-to-end event latency.  ``final`` is false for
    provisional previews of a still-forming window (see
    ``StreamingSession(provisional=True)``); every provisional event is
    eventually superseded by a final one, and only final events feed the
    session's window/stroke state.
    """

    window: SegmentedWindow
    stroke: Optional[StrokeObservation]
    emitted_at: float
    final: bool = True


@dataclass(frozen=True)
class LetterEvent:
    """The tree-grammar composition (provisional mid-session or final)."""

    result: LetterResult
    emitted_at: float
    final: bool = True


StreamEvent = Union[StrokeEvent, LetterEvent]


class StreamingSession:
    """Incremental recognition over a live report stream.

    Parameters
    ----------
    pad:
        A calibrated :class:`~repro.core.pipeline.RFIPad`; the session
        snapshots its stage set at construction, so mid-session config
        changes on the pad do not affect an open session.
    bounded:
        When true (the default) the read buffer is pruned to the
        segmenter's retention horizon after every chunk.  Set false to
        retain the whole stream — only useful for the quiet-log fallback
        of :meth:`motion_result`, which then matches batch
        ``detect_motion`` exactly even for window-less sessions.
    session_id:
        Optional tenant identity.  When set, the session's gauges are
        *also* published under a ``{"session": session_id}`` label so
        concurrent sessions stay distinguishable on a scrape.
    provisional:
        When true, each ingested chunk may additionally emit
        ``final=False`` preview events: a :class:`StrokeEvent` for the
        segmenter's best guess of the still-forming window, followed by a
        :class:`LetterEvent` re-running the grammar with that guess
        appended — so a UI can show the letter forming instead of waiting
        for window closure.  Provisional events are recorded in
        :attr:`events` only; the final window/stroke/letter stream is
        **bit-identical** to ``provisional=False`` (and to batch).
    """

    def __init__(
        self,
        pad: RFIPad,
        bounded: bool = True,
        session_id: Optional[str] = None,
        provisional: bool = False,
    ) -> None:
        self._ctx: StageContext = pad.stage_context()
        stages = pad.stages
        self._analyzer: WindowAnalyzer = stages.analyzer
        self._grammar: GrammarStage = stages.grammar
        self._segmenter: StreamSegmenter = stages.segmentation.stream(self._ctx)
        self.bounded = bounded
        self.session_id = session_id
        self.provisional = provisional
        self._labels = {"session": session_id} if session_id else None
        self._buffer = ReportLog()
        self._events: List[StreamEvent] = []
        self._windows: List[SegmentedWindow] = []
        self._strokes: List[StrokeObservation] = []
        self._now: Optional[float] = None
        self._letter: Optional[LetterResult] = None
        self._finalized = False
        # -- provisional-preview state (inert unless provisional=True) --
        self._prov_key: Optional[Tuple[float, float]] = None
        self._letter_shown: Optional[str] = None    # letter currently displayed
        self._letter_settled_at: Optional[float] = None

    # -- ingestion -----------------------------------------------------

    def ingest(self, chunk: ReportLog) -> List[StreamEvent]:
        """Feed one time-ordered chunk; returns the events it triggered."""
        if self._finalized:
            raise RuntimeError("session already finalized")
        metrics = get_metrics()
        with get_tracer().span("stream.chunk", reads=len(chunk)) as sp:
            ts, tag, phase, rss, dopp, port, epc = chunk.columns()
            if ts.size:
                self._buffer.extend_columns(
                    ts, tag, phase, rss, dopp, epc,
                    antenna_port=int(port[0]),
                )
                self._now = float(ts[-1])
            windows = self._segmenter.ingest(ts, tag, phase)
            events = [self._emit(w) for w in windows]
            dropped = self._prune()
            if self.provisional:
                self._provisional_pass(events)
            sp.set(windows=len(windows), buffered=len(self._buffer))
        if metrics.enabled:
            metrics.inc("stream.chunks")
            metrics.inc("stream.reads", float(ts.size))
            if dropped:
                metrics.inc("stream.dropped_reads", float(dropped))
            metrics.set_gauge("stream.buffered_reads", float(len(self._buffer)))
            if self._labels:
                metrics.set_gauge(
                    "stream.buffered_reads", float(len(self._buffer)),
                    labels=self._labels,
                )
            if self._now is not None:
                horizon = self.retention_time
                if horizon is not None:
                    metrics.set_gauge("stream.lag_s", self._now - horizon)
                    if self._labels:
                        metrics.set_gauge(
                            "stream.lag_s", self._now - horizon,
                            labels=self._labels,
                        )
        return events

    def finalize(self) -> List[StreamEvent]:
        """End the stream: flush tail windows and compose the letter."""
        if self._finalized:
            raise RuntimeError("session already finalized")
        self._finalized = True
        with get_tracer().span("stream.finalize") as sp:
            events: List[StreamEvent] = [
                self._emit(w) for w in self._segmenter.finalize()
            ]
            self._letter = self._grammar.run(self._strokes, self._windows)
            letter_event = LetterEvent(
                result=self._letter,
                emitted_at=self._now if self._now is not None else 0.0,
            )
            self._events.append(letter_event)
            events.append(letter_event)
            if self.provisional:
                self._note_letter_settle(letter_event)
            sp.set(windows=len(events) - 1, letter=self._letter.letter)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("stream.sessions")
        return events

    # -- results -------------------------------------------------------

    @property
    def events(self) -> List[StreamEvent]:
        """Every event emitted so far, in order."""
        return list(self._events)

    @property
    def windows(self) -> List[SegmentedWindow]:
        return list(self._windows)

    @property
    def strokes(self) -> List[StrokeObservation]:
        return list(self._strokes)

    @property
    def letter_result(self) -> Optional[LetterResult]:
        """The grammar composition; ``None`` until :meth:`finalize`."""
        return self._letter

    def motion_result(self) -> Optional[StrokeObservation]:
        """Single-motion view of the finished session.

        Mirrors batch ``detect_motion``: the stroke of the widest window
        (earliest ``t0`` on ties).  For window-less sessions the batch
        path analyses the whole log; a bounded session has already shed
        most of it, so the fallback runs over the retention tail (exact
        only with ``bounded=False``).
        """
        if not self._finalized:
            raise RuntimeError("finalize() the session before reading results")
        if self._windows:
            target = widest_window(self._windows)
            for ev in self._events:
                if isinstance(ev, StrokeEvent) and ev.final and ev.window == target:
                    return ev.stroke
        if len(self._buffer) == 0:
            return None
        return self._analyzer.analyze(self._ctx, self._buffer)

    # -- retention -----------------------------------------------------

    @property
    def buffered_reads(self) -> int:
        """Reads currently retained (the memory-bound witness)."""
        return len(self._buffer)

    @property
    def retention_time(self) -> Optional[float]:
        """Oldest timestamp the session still needs; earlier reads are gone."""
        return self._segmenter.retention_time()

    def _prune(self) -> int:
        if not self.bounded:
            return 0
        horizon = self._segmenter.retention_time()
        if horizon is None:
            return 0
        return self._buffer.drop_before(horizon)

    # -- internals -----------------------------------------------------

    def _provisional_pass(self, events: List[StreamEvent]) -> None:
        """Emit ``final=False`` preview events when the open segment moved.

        Previews touch ``_events`` (history) and the caller's return list
        only — never ``_windows``/``_strokes`` — so every *final* event,
        and the end-of-session grammar run, stays bit-identical to a
        ``provisional=False`` session on the same chunks.
        """
        seg = self._segmenter.provisional_segment()
        if seg is None:
            return
        t0, t1, peak = seg
        if t1 - t0 < self._segmenter.config.min_stroke_s:
            return
        key = (t0, t1)
        if key == self._prov_key:
            return
        self._prov_key = key
        now = self._now if self._now is not None else t1
        window = SegmentedWindow(t0, t1, peak)
        obs = self._analyzer.analyze(self._ctx, self._buffer, t0, t1)
        stroke_event = StrokeEvent(
            window=window, stroke=obs, emitted_at=now, final=False
        )
        strokes = self._strokes + ([obs] if obs is not None else [])
        result = self._grammar.run(strokes, self._windows + [window])
        letter_event = LetterEvent(result=result, emitted_at=now, final=False)
        self._events.extend((stroke_event, letter_event))
        events.extend((stroke_event, letter_event))
        if self._letter_shown != result.letter:
            self._letter_shown = result.letter
            self._letter_settled_at = now
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("stream.provisional_events")
            metrics.observe("stream.provisional_latency_s", max(0.0, now - t1))

    def _note_letter_settle(self, event: LetterEvent) -> None:
        """Record how long the *displayed* letter took to stop changing.

        When the final composition agrees with the last preview, the user
        already saw the right letter at ``_letter_settled_at``; otherwise
        the correction only lands with the final event.  Latency is
        measured from the last final window's close — the earliest moment
        the full letter could possibly be known.
        """
        settled = self._letter_settled_at
        if self._letter_shown != event.result.letter or settled is None:
            settled = event.emitted_at
        base = self._windows[-1].t1 if self._windows else settled
        metrics = get_metrics()
        if metrics.enabled:
            metrics.observe("stream.letter_latency_s", max(0.0, settled - base))

    def _emit(self, window: SegmentedWindow) -> StrokeEvent:
        obs = self._analyzer.analyze(self._ctx, self._buffer, window.t0, window.t1)
        self._windows.append(window)
        if obs is not None:
            self._strokes.append(obs)
        now = self._now if self._now is not None else window.t1
        event = StrokeEvent(window=window, stroke=obs, emitted_at=now)
        self._events.append(event)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("stream.windows")
            metrics.observe(
                "stream.event_latency_s", max(0.0, now - window.t1)
            )
        return event


class WorkspaceSession:
    """Streaming recognition over a tiled workspace (DESIGN.md §15).

    N per-tile report streams come in via :meth:`ingest_tile`; one
    workspace-level event stream comes out.  Internally a watermark merge
    re-serializes the tile streams into global time order — a tile's
    reads are held until *every* tile's watermark has passed them — and
    feeds one inner :class:`StreamingSession` running against the
    combined-layout pad, so stroke windows that span a tile boundary
    close exactly as they would on the batch-merged log.

    The per-tile watermark is the newest timestamp the tile has vouched
    for: the last read of each chunk, or an explicit ``t_hi`` (which also
    lets an idle tile heartbeat the merge forward with empty chunks).
    Nothing is released until every tile has spoken at least once — a
    silent tile's first chunk may still carry arbitrarily old reads — so
    a tenant with a genuinely idle tile should heartbeat it; in the
    worst case :meth:`finalize` flushes everything held.

    For ``tile_count == 1`` the session is a pure pass-through to the
    inner :class:`StreamingSession` — no buffering, no extra state — so
    the 1x1 workspace's streamed events are bit-identical to today's
    single-pad stream.  What each tile would have said alone is computed
    from the tile logs, not here: ``stitch_windows([pad.segment(log) for
    log in tile_logs])`` shows the seams the workspace pipeline healed.

    When ``session_id`` is set, per-tile gauges are published as
    ``stream.tile_buffered_reads{session=..., tile=...}``; they carry the
    session label, so the serving hub's existing
    ``remove_labeled({"session": sid})`` sweep reclaims them when the
    tenant disconnects.
    """

    def __init__(
        self,
        pad: RFIPad,
        tile_count: int,
        bounded: bool = True,
        session_id: Optional[str] = None,
        provisional: bool = False,
    ) -> None:
        if tile_count < 1:
            raise ValueError("workspace needs at least one tile")
        self.tile_count = tile_count
        self.session_id = session_id
        self._inner = StreamingSession(
            pad, bounded=bounded, session_id=session_id,
            provisional=provisional,
        )
        self._pending: List[ReportLog] = [ReportLog() for _ in range(tile_count)]
        self._marks: List[float] = [-math.inf] * tile_count
        self._released = -math.inf

    # -- ingestion -----------------------------------------------------

    def ingest_tile(
        self, tile: int, chunk: ReportLog, t_hi: Optional[float] = None
    ) -> List[StreamEvent]:
        """Feed one tile's next time-ordered chunk; returns the workspace
        events it unlocked (possibly none, if other tiles lag)."""
        if not 0 <= tile < self.tile_count:
            raise ValueError(f"tile {tile} outside 0..{self.tile_count - 1}")
        if self.tile_count == 1:
            return self._inner.ingest(chunk)
        ts, tag, phase, rss, dopp, port, epc = chunk.columns()
        if ts.size:
            self._pending[tile].extend_columns(
                ts, tag, phase, rss, dopp, epc, antenna_port=int(port[0])
            )
            self._marks[tile] = max(self._marks[tile], float(ts[-1]))
        if t_hi is not None:
            self._marks[tile] = max(self._marks[tile], float(t_hi))
        self._note_tile(tile)
        return self._release()

    def ingest(self, chunk: ReportLog) -> List[StreamEvent]:
        """Single-stream compatibility: route a merged chunk by port.

        Ports are 1-based tile numbers on a workspace's multiplexed
        reader; a chunk whose reads all share one port is an ordinary
        tile chunk, and a mixed chunk (a replayed merged log) is split
        per port.  The chunk's last timestamp vouches for *all* tiles —
        a merged stream is globally ordered, so every tile is implicitly
        up to date."""
        if self.tile_count == 1:
            return self._inner.ingest(chunk)
        ts, tag, phase, rss, dopp, port, epc = chunk.columns()
        events: List[StreamEvent] = []
        if ts.size:
            t_hi = float(ts[-1])
            for p in np.unique(port):
                tile = int(p) - 1
                mask = port == p
                sub = ReportLog()
                sub.extend_columns(
                    ts[mask], tag[mask], phase[mask], rss[mask],
                    dopp[mask], epc[mask], antenna_port=int(p),
                )
                events.extend(self.ingest_tile(tile, sub))
            for tile in range(self.tile_count):
                events.extend(self.ingest_tile(tile, ReportLog(), t_hi=t_hi))
        return events

    def finalize(self) -> List[StreamEvent]:
        """Flush every tile's held reads and close the inner session."""
        if self.tile_count == 1:
            return self._inner.finalize()
        tail = merge_logs(self._pending)
        self._pending = [ReportLog() for _ in range(self.tile_count)]
        events: List[StreamEvent] = []
        if len(tail):
            events.extend(self._inner.ingest(tail))
        events.extend(self._inner.finalize())
        return events

    # -- results -------------------------------------------------------

    @property
    def events(self) -> List[StreamEvent]:
        return self._inner.events

    @property
    def windows(self) -> List[SegmentedWindow]:
        return self._inner.windows

    @property
    def strokes(self) -> List[StrokeObservation]:
        return self._inner.strokes

    @property
    def letter_result(self) -> Optional[LetterResult]:
        return self._inner.letter_result

    def motion_result(self) -> Optional[StrokeObservation]:
        return self._inner.motion_result()

    @property
    def buffered_reads(self) -> int:
        """Inner retention buffer plus reads still held at the merge."""
        held = sum(len(p) for p in self._pending)
        return self._inner.buffered_reads + held

    @property
    def retention_time(self) -> Optional[float]:
        return self._inner.retention_time

    # -- internals -----------------------------------------------------

    def _release(self) -> List[StreamEvent]:
        """Forward all reads every tile's watermark has passed."""
        safe = min(self._marks)
        if not safe > self._released or math.isinf(safe):
            return []
        self._released = safe
        # Inclusive cut: a tile's watermark vouches for reads *at* it.
        cut = float(np.nextafter(safe, math.inf))
        ready = merge_logs(
            [p.slice_time(-math.inf, cut) for p in self._pending]
        )
        for p in self._pending:
            p.drop_before(cut)
        if not len(ready):
            return []
        return self._inner.ingest(ready)

    def _note_tile(self, tile: int) -> None:
        metrics = get_metrics()
        if metrics.enabled and self.session_id is not None:
            metrics.set_gauge(
                "stream.tile_buffered_reads",
                float(len(self._pending[tile])),
                labels={"session": self.session_id, "tile": str(tile)},
            )
