"""Stroke segmentation from continuous phase streams (section III-C.1).

People pause briefly between strokes (the *adjustment interval*), raising
the hand to the next start position.  During a stroke every tag's phase is
in motion; during the interval all tags are comparatively quiet.  The
paper's detector:

* slice the stream into non-overlapping 100 ms *frames*;
* per frame, compute the RMS of the calibrated phase residuals summed over
  tags (Eq. 11) — robust to the MAC's uneven per-tag sampling;
* group ``window_frames`` (default 5 = 0.5 s) consecutive frames into a
  window and mark the window active when ``std(rms) > thre`` (Eq. 12);
* merge overlapping active windows into stroke segments.

``thre`` is "empirically determined" in the paper; we provide
:func:`auto_threshold`, which calibrates it from a static capture so the
detector adapts to the deployment's noise level.

The detector is **causal**: the gate at window ``i`` depends only on
windows ``0..i`` (a running peak of the window stds, clamped between
``noise_floor`` and ``threshold``).  Causality is what lets
:class:`StreamSegmenter`, the one implementation (incremental, with
bounded memory), emit exactly the same windows from any chunking of the
same stream; :func:`segment_strokes` is its one-chunk case, and the tests
compare every chunking with a whole-log batch reference
(``tests/core/segmentation_oracles.py``) bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..rfid.reports import ReportLog
from ..units import TWO_PI
from .calibration import StaticCalibration
from .events import SegmentedWindow


@dataclass(frozen=True)
class SegmentationConfig:
    frame_s: float = 0.1           # paper: 100 ms frames
    window_frames: int = 5         # paper: 0.5 s windows
    threshold: float = 0.5         # std(rms) gate; see auto_threshold
    #: Hard lower bound on the effective gate, calibrated from the static
    #: noise level.  The gate adapts *down* towards 0.25x the session's
    #: running peak std(rms) — strong strokes plateau and their windows'
    #: std dips, so a fixed high gate would punch holes mid-stroke — but
    #: never below this floor, so a hand-free log still yields zero
    #: windows.  The peak is a *prefix* (causal) maximum, so a window's
    #: activity never depends on later signal.
    noise_floor: float = 0.05
    min_stroke_s: float = 0.22     # discard blips shorter than this
    merge_gap_s: float = 0.12      # bridge dips inside one stroke
    #: Valley split: a run of >= 2 frames inside a detected segment whose
    #: RMS drops below this fraction of the segment's median RMS is an
    #: adjustment interval the std gate failed to open — split there.
    valley_fraction: float = 0.35

    def __post_init__(self) -> None:
        if self.frame_s <= 0.0:
            raise ValueError("frame length must be positive")
        if self.window_frames < 2:
            raise ValueError("a window needs at least 2 frames")
        if self.threshold < 0.0:
            raise ValueError("threshold must be non-negative")


def _frame_index(ts: np.ndarray, t_start: float, frame_s: float) -> np.ndarray:
    """Raw frame index of each timestamp: the one grid both paths use."""
    return ((ts - t_start) / frame_s).astype(np.int64)


def _frame_rms_kernel(
    frames: np.ndarray,
    ranks: np.ndarray,
    squares: np.ndarray,
    n_frames: int,
    n_ranks: int,
) -> np.ndarray:
    """Eq. 11 over read columns: per frame, the sum over tags of RMS residual.

    ``frames`` holds each read's frame in ``[0, n_frames)``, ``ranks`` its
    tag's first-appearance rank in ``[0, n_ranks)`` and ``squares`` its
    squared residual.  Both additions are strictly sequential:
    ``np.bincount`` adds each (frame, tag) bin's squares in column (stream)
    order, and ``np.add.accumulate`` adds a frame's tag terms in rank
    order.  ``.sum(axis=1)`` must not replace the accumulate: numpy sums
    that pairwise, which rounds differently.  A tag with no read in a frame
    adds an exact 0.0, so every chunking of a stream gives the same bits.
    """
    if n_ranks == 0:
        return np.zeros(n_frames)
    key = frames * n_ranks + ranks
    size = n_frames * n_ranks
    counts = np.bincount(key, minlength=size)
    sums = np.bincount(key, weights=squares, minlength=size)
    terms = np.sqrt(sums / np.maximum(counts, 1)).reshape(n_frames, n_ranks)
    return np.add.accumulate(terms, axis=1)[:, -1]


class _OpenReads:
    """Columnar buffer of the calibrated reads whose frames are still open.

    Three preallocated columns hold each read's frame index, its tag's
    first-appearance rank and its squared calibrated residual, in stream
    order; rows ``[_start, _end)`` are live.  Chunks arrive in time order
    (:meth:`StreamSegmenter.ingest` rejects any other), so the frame
    column never decreases: :meth:`add` writes a whole chunk past the live
    end, and :meth:`close` cuts the prefix of rows whose frames close with
    one ``searchsorted`` and turns it into RMS values with one
    :func:`_frame_rms_kernel` call on views.  When the columns run out of
    room the live rows move to the front, into doubled columns only if
    they and the new chunk would fill more than half, so the memory held
    follows the open reads, not the session's length.
    """

    #: Rows a buffer starts with: a few 0.1 s chunks of a 25-tag pad.
    _CAPACITY = 256

    def __init__(self, calibration: StaticCalibration) -> None:
        table = calibration.table
        self._lo = table.lo
        self._centre = table.centre
        # Per slot: the tag's first-appearance rank, -1 for a calibrated
        # tag not seen yet, -2 for an uncalibrated slot (the two sentinel
        # slots included).
        self._rank = np.where(table.known, -1, -2)
        self.n_ranks = 0
        self.closed = 0  # frames before this index are closed
        self._start = self._end = 0
        self._frames = np.empty(self._CAPACITY, dtype=np.int64)
        self._ranks = np.empty(self._CAPACITY, dtype=np.int64)
        self._squares = np.empty(self._CAPACITY)

    def add(self, frames: np.ndarray, tags: np.ndarray, phases: np.ndarray) -> None:
        """Append one non-empty, time-ordered chunk.

        A tag's slot is ``clip(tag - lo, 0, top)``, as
        :meth:`~repro.core.calibration.CalibrationTable.slots` computes it;
        reads of uncalibrated tags are skipped.
        """
        slot = np.asarray(tags) - self._lo
        ranks = self._rank.take(slot, mode="clip")
        if ranks.min() < 0:
            frames, slot, phases, ranks = self._rank_new(frames, slot, phases, ranks)
        start = self._end
        end = start + ranks.size
        if end > self._frames.size:
            self._make_room(ranks.size)
            start, end = self._end, self._end + ranks.size
        self._frames[start:end] = frames
        self._ranks[start:end] = ranks
        # fold_to_pi_many's operations in place, then the square.
        d = self._squares[start:end]
        np.subtract(phases, self._centre[slot], out=d)
        d += math.pi
        np.fmod(d, TWO_PI, out=d)
        d[d <= 0.0] += TWO_PI
        d -= math.pi
        d *= d
        self._end = end

    def _rank_new(
        self, frames: np.ndarray, slot: np.ndarray, phases: np.ndarray, ranks: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Rank the chunk's first-seen tags in order of appearance and
        drop its reads of uncalibrated tags."""
        fresh = ranks == -1
        if fresh.any():
            uniq, first = np.unique(slot[fresh], return_index=True)
            order = uniq[np.argsort(first, kind="stable")]
            self._rank[order] = np.arange(self.n_ranks, self.n_ranks + order.size)
            self.n_ranks += order.size
            ranks = self._rank.take(slot, mode="clip")
        keep = ranks >= 0
        if not keep.all():
            frames, slot, phases, ranks = frames[keep], slot[keep], phases[keep], ranks[keep]
        return frames, slot, phases, ranks

    def _make_room(self, n: int) -> None:
        """Move the live rows to the front of columns with room for ``n``
        more, doubling them while the rows would fill more than half."""
        start, live = self._start, self._end - self._start
        size = self._frames.size
        while 2 * (live + n) > size:
            size *= 2

        def moved(column: np.ndarray) -> np.ndarray:
            out = column if size == column.size else np.empty(size, dtype=column.dtype)
            out[:live] = column[start : start + live]
            return out

        self._frames, self._ranks, self._squares = (
            moved(self._frames), moved(self._ranks), moved(self._squares)
        )
        self._start, self._end = 0, live

    def close(self, upto: int, fold_last: bool = False) -> np.ndarray:
        """RMS of frames ``[closed, upto)``; their reads leave the buffer.

        ``fold_last`` is the end-of-log clamp: every read at or past
        ``upto`` folds into frame ``upto - 1``, so every row closes.
        """
        start, end = self._start, self._end
        frames = self._frames[start:end]
        if fold_last:
            frames = np.minimum(frames, upto - 1)
        else:
            end = start + int(frames.searchsorted(upto))
            frames = frames[: end - start]
        rms = _frame_rms_kernel(
            frames - self.closed, self._ranks[start:end], self._squares[start:end],
            upto - self.closed, self.n_ranks,
        )
        self._start = end
        self.closed = upto
        return rms

    def peek(self, index: int) -> Optional[float]:
        """RMS of open frame ``index`` so far (``None`` if it has no reads)."""
        start = self._start
        lo, hi = self._frames[start:self._end].searchsorted((index, index + 1))
        if lo == hi:
            return None
        return float(_frame_rms_kernel(
            self._frames[start + lo : start + hi] - index,
            self._ranks[start + lo : start + hi],
            self._squares[start + lo : start + hi],
            1, self.n_ranks,
        )[0])


def frame_rms(
    log: ReportLog,
    calibration: StaticCalibration,
    frame_s: float = 0.1,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-frame RMS of calibrated phase residuals (Eq. 11).

    Returns ``(frame_start_times, rms_values)``.  Frames with no reads at
    all carry RMS 0 (an idle pad is a quiet pad).  A read exactly on the
    end boundary belongs to the last frame.
    """
    if len(log) == 0:
        return np.array([]), np.array([])
    ts, tags, phases = log.columns()[:3]
    t_start, t_end = log.start_time, log.end_time
    n_frames = max(1, int(math.ceil((t_end - t_start) / frame_s)))
    reads = _OpenReads(calibration)
    reads.add(_frame_index(ts, t_start, frame_s), tags, phases)
    times = t_start + frame_s * np.arange(n_frames)
    return times, reads.close(n_frames, fold_last=True)


def _window_std(values: "list[float]") -> float:
    """``np.std`` of one window of frame RMS values (0.0 below 2 values).

    numpy computes the mean as a sum over ``n``, then sums the squared
    deviations and divides by ``n`` again; below 8 values each of its sums
    is a plain left fold from 0.0, so the same steps on Python floats give
    the same bits at a fraction of numpy's per-call cost.  Longer windows
    (``window_frames >= 8``) go through numpy, whose pairwise summation
    splits from 8 values on.
    """
    n = len(values)
    if n < 2:
        return 0.0
    if n >= 8:
        return float(np.std(values))
    mean = 0.0
    for v in values:
        mean += v
    mean /= n
    q = 0.0
    for v in values:
        d = v - mean
        q += d * d
    return math.sqrt(q / n)


def window_std(rms: np.ndarray, window_frames: int) -> np.ndarray:
    """Sliding std of the frame RMS (stride 1 frame), length = len(rms).

    Window ``i`` covers frames ``[i, i + window_frames)``; trailing windows
    shrink at the stream end rather than disappearing, so late strokes are
    still detectable.  Each window goes through :func:`_window_std`, the
    helper :class:`StreamSegmenter` calls as its windows close.
    """
    values = np.asarray(rms, dtype=float).tolist()
    return np.array(
        [_window_std(values[i : i + window_frames]) for i in range(len(values))],
        dtype=float,
    )


def segment_strokes(
    log: ReportLog,
    calibration: StaticCalibration,
    config: SegmentationConfig = SegmentationConfig(),
) -> List[SegmentedWindow]:
    """Detect stroke windows in a session log (Eq. 11-12 + merging): the
    whole time-sorted log as one :class:`StreamSegmenter` chunk."""
    segmenter = StreamSegmenter(calibration, config)
    ts, tags, phases = log.columns()[:3]
    return segmenter.ingest(ts, tags, phases) + segmenter.finalize()


def _valley_gate(chunk: np.ndarray, config: SegmentationConfig) -> float:
    """RMS level below which a segment's frame counts as a valley.

    Two-term gate: the median alone underestimates the stroke level when
    a long adjustment period is fused into the segment (it drags the
    median down), so the 75th percentile — dominated by genuine stroke
    frames — provides the backstop.
    """
    return max(
        config.valley_fraction * float(np.median(chunk)),
        0.3 * float(np.percentile(chunk, 75.0)),
    )


def valley_pieces(chunk: np.ndarray, config: SegmentationConfig) -> List[Tuple[int, int]]:
    """Sub-ranges of a segment's RMS chunk after valley splitting.

    Returns ``[(a, b), ...]`` index ranges into ``chunk``; a single piece
    spanning the whole chunk means "no split".
    """
    if chunk.size < 6:
        return [(0, int(chunk.size))]
    quiet = chunk < _valley_gate(chunk, config)
    # Find sustained quiet runs strictly inside the segment.
    pieces: List[Tuple[int, int]] = []
    start = 0
    i = 1
    while i < chunk.size:
        if quiet[i] and i + 1 < chunk.size and quiet[i + 1]:
            j = i
            while j < chunk.size and quiet[j]:
                j += 1
            if i > start:
                pieces.append((start, i))
            start = j
            i = j + 1
        else:
            i += 1
    pieces.append((start, int(chunk.size)))
    return pieces


def stitch_windows(
    tile_windows: "List[List[SegmentedWindow]]",
    gap: float = SegmentationConfig().merge_gap_s,
) -> List[SegmentedWindow]:
    """Merge per-tile stroke windows into workspace-level windows.

    When a trajectory crosses a tile boundary each tile sees only its
    half of the stroke, so the per-tile segmenters emit overlapping (or
    nearly adjacent) windows.  Stitching is the same closure rule
    :meth:`StreamSegmenter._close_run` applies within one pad — windows
    whose gap is ``<= gap`` coalesce, keeping the max peak — generalized
    to inputs from several tiles, whose windows may overlap or nest
    arbitrarily rather than arriving disjoint and sorted.  One tile's
    windows pass through unchanged, so the 1x1 workspace stitches to
    exactly its own segmentation.
    """
    windows = sorted(
        (w for tile in tile_windows for w in tile),
        key=lambda w: (w.t0, w.t1),
    )
    out: List[SegmentedWindow] = []
    for w in windows:
        if out and w.t0 - out[-1].t1 <= gap:
            last = out[-1]
            out[-1] = SegmentedWindow(
                last.t0,
                max(last.t1, w.t1),
                max(last.peak_std_rms, w.peak_std_rms),
            )
        else:
            out.append(w)
    return out


def auto_threshold(
    static_log: ReportLog,
    calibration: StaticCalibration,
    config: SegmentationConfig = SegmentationConfig(),
    factor: float = 14.0,
    floor: float = 0.08,
    cap: float = 1.4,
) -> float:
    """Calibrate ``thre`` from a no-hand capture.

    The static std(rms) distribution sets the noise scale; scaling its high
    percentile by ``factor`` puts the gate above both idle flutter *and*
    the residual activity of the raised hand during adjustment intervals
    (the hand at ~20 cm still stirs the pad slightly), while staying well
    below stroke activity — stroke windows raise std(rms) by another order
    of magnitude (cf. Fig. 9).
    """
    times, rms = frame_rms(static_log, calibration, config.frame_s)
    if rms.size < config.window_frames:
        raise ValueError("static capture too short to calibrate the threshold")
    stds = window_std(rms, config.window_frames)
    reference = float(np.percentile(stds, 90.0))
    # The cap matters in multipath-rich deployments: scaling a high static
    # noise floor by `factor` would push the gate into genuine stroke
    # territory and truncate windows; stroke std(rms) starts well above 1.
    return min(cap, max(floor, factor * reference))


# ----------------------------------------------------------------------
# Incremental segmentation
# ----------------------------------------------------------------------


@dataclass
class _Pending:
    """A closed segment still eligible to merge with a successor."""

    lo: int                         # first frame index (inclusive)
    hi: int                         # one past the last frame index
    runs: List[Tuple[int, int]]     # constituent raw runs (for the peak)


class StreamSegmenter:
    """The stroke segmenter: incremental, with bounded memory.

    Feed read columns with :meth:`ingest`, every read in time order (a
    chunk with a decreasing timestamp raises ``ValueError``); closed
    stroke windows come back as soon as they are decided.  Call :meth:`finalize`
    once the stream ends to flush the tail.  :func:`segment_strokes` is
    the one-chunk case.  For any chunking of a log — including one read at
    a time — the concatenation of all returned windows is
    **bit-identical** to that one chunk (same ``t0``/``t1``/
    ``peak_std_rms`` floats, same order), and to the whole-log batch
    reference in ``tests/core/segmentation_oracles.py``; the property
    tests under ``tests/stream/`` and ``tests/core/`` enforce this.

    How the equivalence is kept exact:

    * reads wait in :class:`_OpenReads` (frame index, tag first-appearance
      rank, squared residual, in stream order) until their frame closes.
      Every read arrives in time order, so a closing frame range is a
      prefix of those columns, cut without copying; frames close through
      :func:`_frame_rms_kernel`, the kernel :func:`frame_rms` calls on
      the whole log.  The addition order is the same for any chunking:
      ``np.bincount`` adds each (frame, tag) bin's reads in stream order,
      and a frame's tag terms are added left to right in global
      first-appearance order, matching ``ReportLog.per_tag``;
    * a frame closes only when no future read can land in it; the
      end-of-log clamp (a read exactly on the final frame boundary folds
      into the last frame) is applied at :meth:`finalize`;
    * the activity gate, ``clamp(0.25 * peak, noise_floor, threshold)``,
      takes the running peak of the window stds seen so far, so a
      window's verdict never depends on later signal;
    * merge/valley-split/min-duration post-processing is deferred until no
      future frame can change it (the merge gap and the window lookahead
      bound the wait to a few frames).  A pending segment is released as
      soon as the decided frames show nothing can merge into it, also
      when the same call decides the next stroke's start, so a window
      comes back from the call whose reads decide it.

    Memory is bounded by the *retention horizon*: everything before
    ``retention_frame()`` — frames, stds, and (for the owning session) raw
    reads — can be discarded.  The horizon trails the newest read by the
    window lookahead plus the currently-open segment, so it is O(longest
    stroke), not O(session).
    """

    def __init__(
        self,
        calibration: StaticCalibration,
        config: SegmentationConfig = SegmentationConfig(),
    ) -> None:
        self.calibration = calibration
        self.config = config
        # -- frame accumulation state --
        self._t_start: Optional[float] = None
        self._t_max: Optional[float] = None
        self._reads = _OpenReads(calibration)   # frames before .closed have RMS
        # -- rms / std rings (absolute frame index = ring index + _base) --
        self._base = 0
        self._rms: List[float] = []
        self._stds: List[float] = []
        self._next_window = 0                   # next window index to compute
        self._peak = 0.0                        # running max of window stds
        self._active: List[bool] = []           # per-window verdicts (ring-aligned)
        # -- decided-frame run state --
        self._decided = 0                       # frames 0.._decided-1 have verdicts
        self._run: Optional[Tuple[int, int]] = None   # open active run [lo, hi)
        self._pending: Optional[_Pending] = None
        self._flush_queue: List[_Pending] = []  # promoted segments awaiting emission
        self._retention = 0                     # retention_frame(), kept by _drain
        self._finalized = False

    # -- geometry ------------------------------------------------------

    def frame_time(self, index: int) -> float:
        """Start time of frame ``index`` (bit-identical to :func:`frame_rms`'s grid)."""
        if self._t_start is None:
            raise ValueError("no reads ingested yet")
        return self._t_start + self.config.frame_s * float(index)

    def retention_frame(self) -> int:
        """First frame index still needed by any future decision.

        Reads, RMS values, and stds for frames before this index can never
        influence a future window, so callers may drop them.  Only
        :meth:`ingest` and :meth:`finalize` move it; each computes it once.
        """
        return self._retention

    def retention_time(self) -> Optional[float]:
        """Timestamp horizon corresponding to :meth:`retention_frame`."""
        if self._t_start is None:
            return None
        return self.frame_time(self.retention_frame())

    # -- provisional view ----------------------------------------------

    def provisional_segment(self) -> Optional[Tuple[float, float, float]]:
        """Best current guess of the segment still forming: ``(t0, t1, peak)``.

        Purely advisory — reading it never mutates segmenter state, so the
        finalized window stream stays bit-identical to one never previewed.
        The guess covers:

        * the pending closed segment (still eligible to merge forward),
          folded with the open active run when the gap between them is
          within ``merge_gap_s`` (mirroring :meth:`_close_run`);
        * closed-but-undecided frames past the run head, included while
          their RMS stays above a valley-style gate (the hand is plainly
          still moving even though the window verdicts lag by the
          ``window_frames`` lookahead);
        * the newest still-open frame, via a non-destructive partial RMS.

        Returns ``None`` when nothing is active.
        """
        if self._t_start is None or self._finalized:
            return None
        lo = hi = None
        if self._pending is not None:
            lo, hi = self._pending.lo, self._pending.hi
        if self._run is not None:
            r_lo, r_hi = self._run
            if lo is None:
                lo, hi = r_lo, r_hi
            elif self.frame_time(r_lo) - self._pending_t1() <= self.config.merge_gap_s:
                hi = r_hi
            else:
                lo, hi = r_lo, r_hi
        if lo is None:
            return None
        if self._run is not None:
            closed = self._reads.closed
            chunk = self._rms[lo - self._base : closed - self._base]
            arr = np.array(chunk) if chunk else np.array([])
            gate = _valley_gate(arr, self.config) if arr.size >= 4 else 1e-12
            j = hi
            while j < closed and self._rms[j - self._base] >= gate:
                j += 1
            hi = j
            if j == closed:
                partial = self._reads.peek(closed)
                if partial is not None and partial >= gate:
                    hi = closed + 1
        peak = 0.0
        s_lo = lo - self._base
        s_hi = min(hi, self._next_window) - self._base
        if s_hi > s_lo:
            peak = float(np.array(self._stds[s_lo:s_hi]).max())
        return (
            float(self.frame_time(lo)),
            float(self.frame_time(hi - 1) + self.config.frame_s),
            peak,
        )

    # -- ingestion -----------------------------------------------------

    def ingest(
        self,
        timestamps: np.ndarray,
        tag_indices: np.ndarray,
        phases: np.ndarray,
    ) -> List[SegmentedWindow]:
        """Feed one chunk of reads; returns the windows it decided.

        Every read must come in time order: within the chunk and after the
        previous chunk's last read (the reader's report stream is ordered,
        and ``ReportLog.columns()`` come sorted), or ``ValueError`` is
        raised before any state changes.  A window comes back from the
        call whose reads decide it, so any chunking returns each window
        no later than one read at a time would.
        """
        if self._finalized:
            raise RuntimeError("segmenter already finalized")
        ts = np.asarray(timestamps, dtype=float)
        if ts.size == 0:
            return []
        t_first, t_last = float(ts[0]), float(ts[-1])
        behind = self._t_max is not None and t_first < self._t_max
        if behind or np.count_nonzero(ts[1:] < ts[:-1]):
            raise ValueError("stream chunks must be time-ordered")
        if self._t_start is None:
            self._t_start = t_first
        self._t_max = t_last
        frame_s = self.config.frame_s
        reads = self._reads
        reads.add(
            _frame_index(ts, self._t_start, frame_s),
            tag_indices,
            np.asarray(phases, dtype=float),
        )
        # Frame j can still change while a future read may land in it
        # (j >= the newest read's frame) or while the end-of-log clamp may
        # fold boundary reads down into it (only when the newest read sits
        # exactly on a frame boundary).  No closed frame, no new verdict.
        q = (t_last - self._t_start) / frame_s
        upto = int(q)
        if q == upto:
            upto -= 1
        if upto <= reads.closed:
            return []
        self._rms.extend(reads.close(upto).tolist())
        self._advance_windows(upto - self.config.window_frames)
        return self._drain(final=False)

    def finalize(self) -> List[SegmentedWindow]:
        """Flush the stream tail; returns the remaining windows."""
        if self._finalized:
            return []
        self._finalized = True
        if self._t_start is None:
            return []
        frame_s = self.config.frame_s
        n_frames = max(1, int(math.ceil((self._t_max - self._t_start) / frame_s)))
        # End-of-log clamp: reads exactly on the final frame boundary fold
        # into the last frame (they are the latest reads, so they stay last
        # in their bins' addition order).
        if n_frames > self._reads.closed:
            self._rms.extend(self._reads.close(n_frames, fold_last=True).tolist())
        self._advance_windows(upto=n_frames - 1, total_frames=n_frames)
        return self._drain(final=True)

    # -- internals: windows and verdicts -------------------------------

    def _advance_windows(self, upto: int, total_frames: Optional[int] = None) -> None:
        """Compute window stds/verdicts for indices ``_next_window..upto``,
        then turn the verdicts into per-frame activity, oldest first.

        During streaming ``upto = closed - W`` (full windows only); at
        finalize ``upto = n - 1`` with ``total_frames = n`` so the
        shrinking tail windows are included.

        A window marks its centre frame; only the final frame additionally
        collects the clamped marks of the trailing windows, and no frame
        decided mid-stream can be the final frame (the newest frame is
        always still open), so mid-stream verdicts are never retracted.
        """
        config = self.config
        w, floor, ceiling = config.window_frames, config.noise_floor, config.threshold
        rms, base, peak, active = self._rms, self._base, self._peak, self._active
        i = self._next_window
        while i <= upto:
            std = _window_std(rms[i - base : i - base + w])
            self._stds.append(std)
            if std > peak:
                peak = std
            active.append(std > max(floor, min(ceiling, 0.25 * peak)))
            i += 1
        self._next_window, self._peak = i, peak
        half = w // 2
        if total_frames is None:
            frontier = min(i - 1 + half if i > 0 else -1, self._reads.closed - 1)
        else:
            frontier = total_frames - 1
        d = self._decided
        while d <= frontier:
            if total_frames is not None and d == total_frames - 1:
                marked = any(active[j - base] for j in range(max(0, d - half), total_frames))
            else:
                marked = d >= half and active[d - half - base]
            self._step_run(d, marked)
            d += 1
        self._decided = d
        if total_frames is not None and self._run is not None:
            self._close_run()

    def _step_run(self, frame: int, marked: bool) -> None:
        if marked:
            if self._run is None:
                # A run starting past the merge gap can never join the
                # pending segment, so that segment is final: queue it now,
                # not when this run closes a whole stroke later.
                if (
                    self._pending is not None
                    and self.frame_time(frame) - self._pending_t1() > self.config.merge_gap_s
                ):
                    self._flush_queue.append(self._pending)
                    self._pending = None
                self._run = (frame, frame + 1)
            else:
                self._run = (self._run[0], frame + 1)
        elif self._run is not None:
            self._close_run()

    def _close_run(self) -> None:
        lo, hi = self._run
        self._run = None
        if self._pending is not None:
            gap = self.frame_time(lo) - self._pending_t1()
            if gap <= self.config.merge_gap_s:
                self._pending.hi = hi
                self._pending.runs.append((lo, hi))
                return
            self._flush_queue.append(self._pending)
        self._pending = _Pending(lo=lo, hi=hi, runs=[(lo, hi)])

    def _pending_t1(self) -> float:
        return self.frame_time(self._pending.hi - 1) + self.config.frame_s

    # -- internals: emission -------------------------------------------

    def _drain(self, final: bool) -> List[SegmentedWindow]:
        # Promote the pending segment once nothing can merge into it: the
        # earliest future segment starts at the first undecided frame.
        if self._pending is not None and self._run is None:
            if final:
                self._flush_queue.append(self._pending)
                self._pending = None
            else:
                next_t0 = self.frame_time(self._decided)
                if next_t0 - self._pending_t1() > self.config.merge_gap_s:
                    self._flush_queue.append(self._pending)
                    self._pending = None
        out: List[SegmentedWindow] = []
        queue = self._flush_queue
        while queue:
            seg = queue[0]
            # The segment peak needs stds up to hi-1; with default configs
            # they exist by flush time, but guard and wait a frame if not.
            if not final and seg.hi - 1 >= self._next_window:
                break
            queue.pop(0)
            out.extend(self._emit(seg))
        # Release ring prefixes that no future decision can touch.
        keep = min(self._decided, self._next_window)
        if self._run is not None:
            keep = min(keep, self._run[0])
        if self._pending is not None:
            keep = min(keep, self._pending.lo)
        self._retention = keep
        dead = keep - self._base
        if dead > 64:
            del self._rms[:dead]
            del self._stds[:dead]
            del self._active[:dead]
            self._base = keep
        return out

    def _emit(self, seg: _Pending) -> List[SegmentedWindow]:
        frame_s = self.config.frame_s
        lo, hi = seg.lo, seg.hi
        chunk = np.array(self._rms[lo - self._base : hi - self._base])
        pieces = valley_pieces(chunk, self.config)
        windows: List[SegmentedWindow] = []
        if len(pieces) == 1:
            peak = max(
                float(np.array(self._stds[a - self._base : b - self._base]).max())
                for a, b in seg.runs
            )
            windows.append(
                SegmentedWindow(float(self.frame_time(lo)),
                                float(self.frame_time(hi - 1) + frame_s), peak)
            )
        else:
            for a, b in pieces:
                if b <= a:
                    continue
                t0 = float(self.frame_time(lo + a))
                t1 = float(self.frame_time(lo + b - 1) + frame_s)
                peak = float(
                    np.array(self._stds[lo + a - self._base : lo + b - self._base]).max()
                )
                windows.append(SegmentedWindow(t0, t1, peak))
        return [w for w in windows if w.duration >= self.config.min_stroke_s]
