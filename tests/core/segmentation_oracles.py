"""Batch reference implementation of stroke segmentation (Eq. 11-12).

This is the body ``segment_strokes`` ran before it became one ``ingest``
plus ``finalize`` of a :class:`~repro.core.segmentation.StreamSegmenter`:
a whole-log frame loop over the per-window verdicts of a vectorized
prefix-peak gate, followed by close-gap merging, valley splitting and the
minimum-duration filter.  The segmentation tests compare the production
segmenter against it with ``==`` on every ``SegmentedWindow`` float, for
one chunk and for any chunking.  Nothing in ``src/`` may import this
module.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.calibration import StaticCalibration
from repro.core.events import SegmentedWindow
from repro.core.segmentation import (
    SegmentationConfig,
    frame_rms,
    valley_pieces,
    window_std,
)
from repro.rfid.reports import ReportLog


def causal_gates(stds: np.ndarray, config: SegmentationConfig) -> np.ndarray:
    """Per-window activity gate from the *prefix* peak of the window stds.

    ``gate[i] = clamp(0.25 * max(stds[:i+1]), noise_floor, threshold)`` —
    the same adaptive-down behaviour as a global-peak gate once the stroke's
    peak has been seen, but computable online (the running max is exact in
    floating point, so the batch and streaming paths agree bitwise).
    """
    if stds.size == 0:
        return stds.astype(float)
    peaks = np.maximum.accumulate(stds)
    return np.maximum(config.noise_floor, np.minimum(config.threshold, 0.25 * peaks))


def batch_segment_strokes(
    log: ReportLog,
    calibration: StaticCalibration,
    config: SegmentationConfig = SegmentationConfig(),
) -> List[SegmentedWindow]:
    """Detect stroke windows in a session log (Eq. 11-12 + merging)."""
    times, rms = frame_rms(log, calibration, config.frame_s)
    if rms.size == 0:
        return []
    stds = window_std(rms, config.window_frames)
    active = stds > causal_gates(stds, config)

    # An active window marks its *centre* frame.  Marking the whole span
    # would let windows that straddle a stroke edge paint the neighbouring
    # adjustment interval as active and bridge consecutive strokes — the
    # centre frame keeps the temporal resolution of the stride-1 sweep.
    frame_active = np.zeros(rms.size, dtype=bool)
    half = config.window_frames // 2
    for i in range(rms.size):
        if active[i]:
            frame_active[min(rms.size - 1, i + half)] = True

    segments: List[SegmentedWindow] = []
    i = 0
    while i < rms.size:
        if not frame_active[i]:
            i += 1
            continue
        j = i
        while j < rms.size and frame_active[j]:
            j += 1
        t0 = float(times[i])
        t1 = float(times[j - 1] + config.frame_s)
        peak = float(stds[i:j].max()) if j > i else 0.0
        segments.append(SegmentedWindow(t0, t1, peak))
        i = j

    segments = _merge_close(segments, config.merge_gap_s)
    segments = _split_valleys(segments, times, rms, stds, config)
    return [s for s in segments if s.duration >= config.min_stroke_s]


def _split_valleys(
    segments: List[SegmentedWindow],
    times: np.ndarray,
    rms: np.ndarray,
    stds: np.ndarray,
    config: SegmentationConfig,
) -> List[SegmentedWindow]:
    """Split merged segments at sustained RMS valleys.

    std(rms) stays elevated while the hand climbs into / descends out of an
    adjustment interval, so two strokes separated by a short pause can fuse
    into one segment.  The RMS *level*, however, dips while the hand is up;
    a sustained dip well below the segment's median is such a pause.
    """
    out: List[SegmentedWindow] = []
    for seg in segments:
        lo = int(np.searchsorted(times, seg.t0 - 1e-9))
        hi = int(np.searchsorted(times, seg.t1 - 1e-9))
        pieces = valley_pieces(rms[lo:hi], config)
        if len(pieces) == 1:
            out.append(seg)
            continue
        for a, b in pieces:
            if b <= a:
                continue
            t0 = float(times[lo + a])
            t1 = float(times[lo + b - 1] + config.frame_s)
            peak = float(stds[lo + a : lo + b].max()) if b > a else seg.peak_std_rms
            out.append(SegmentedWindow(t0, t1, peak))
    return out


def _merge_close(segments: List[SegmentedWindow], gap: float) -> List[SegmentedWindow]:
    if not segments:
        return []
    merged = [segments[0]]
    for seg in segments[1:]:
        last = merged[-1]
        if seg.t0 - last.t1 <= gap:
            merged[-1] = SegmentedWindow(last.t0, seg.t1, max(last.peak_std_rms, seg.peak_std_rms))
        else:
            merged.append(seg)
    return merged
