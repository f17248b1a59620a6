"""Trace inspection utilities: terminal-friendly views of session data.

The paper's figures are time-series and grey maps; these helpers render
the same views as text so the CLI and examples can show what the pipeline
sees without a plotting stack (the repo is matplotlib-free by design).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core.calibration import StaticCalibration
from .core.segmentation import SegmentationConfig, frame_rms, window_std
from .rfid.reports import ReportLog

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: Optional[int] = None) -> str:
    """Render a numeric series as a unicode sparkline.

    >>> sparkline([0, 1, 2, 3])
    '▁▃▆█'
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return ""
    if width is not None and width > 0 and arr.size > width:
        # Downsample by averaging fixed-size chunks.
        edges = np.linspace(0, arr.size, width + 1).astype(int)
        arr = np.array([arr[a:b].mean() for a, b in zip(edges, edges[1:]) if b > a])
    lo, hi = float(arr.min()), float(arr.max())
    if hi <= lo:
        return _SPARK_LEVELS[0] * arr.size
    scaled = (arr - lo) / (hi - lo) * (len(_SPARK_LEVELS) - 1)
    return "".join(_SPARK_LEVELS[int(round(v))] for v in scaled)


def phase_sparklines(
    log: ReportLog,
    calibration: StaticCalibration,
    tag_indices: Optional[Sequence[int]] = None,
    width: int = 48,
) -> List[str]:
    """One line per tag: its calibrated phase residual over the session."""
    per_tag = log.per_tag()
    indices = tag_indices if tag_indices is not None else sorted(per_tag)
    lines = []
    for idx in indices:
        if idx not in per_tag or idx not in calibration.tags:
            continue
        series = per_tag[idx]
        residual = calibration.residual_series(idx, series.phases)
        lines.append(f"tag {idx:2d} |{sparkline(np.abs(residual), width)}|")
    return lines


def rss_sparklines(
    log: ReportLog,
    calibration: StaticCalibration,
    tag_indices: Optional[Sequence[int]] = None,
    width: int = 48,
) -> List[str]:
    """One line per tag: RSS *dip* below its static baseline (troughs pop)."""
    per_tag = log.per_tag()
    indices = tag_indices if tag_indices is not None else sorted(per_tag)
    lines = []
    for idx in indices:
        if idx not in per_tag or idx not in calibration.tags:
            continue
        series = per_tag[idx]
        dip = calibration.mean_rss(idx) - series.rss
        lines.append(f"tag {idx:2d} |{sparkline(np.clip(dip, 0, None), width)}|")
    return lines


def activity_trace(
    log: ReportLog,
    calibration: StaticCalibration,
    config: SegmentationConfig = SegmentationConfig(),
    width: int = 64,
) -> str:
    """Two sparklines: frame RMS (Eq. 11) and sliding std(RMS) (Eq. 12)."""
    times, rms = frame_rms(log, calibration, config.frame_s)
    if rms.size == 0:
        return "(empty log)"
    stds = window_std(rms, config.window_frames)
    return (
        f"rms      |{sparkline(rms, width)}|\n"
        f"std(rms) |{sparkline(stds, width)}|"
    )


def read_rate_table(log: ReportLog) -> List[Tuple[int, int, float]]:
    """(tag, reads, reads/s) rows — the MAC's sampling budget per tag."""
    duration = max(log.duration, 1e-9)
    return [
        (idx, log.read_count(idx), log.read_count(idx) / duration)
        for idx in log.tag_indices()
    ]


def session_summary(log: ReportLog, calibration: Optional[StaticCalibration] = None) -> str:
    """A compact multi-line summary of one session log."""
    if len(log) == 0:
        return "empty session"
    lines = [
        f"reads: {len(log)} over {log.duration:.2f} s "
        f"({log.aggregate_read_rate():.0f} reads/s across {len(log.tag_indices())} tags)"
    ]
    rates = [r for _, _, r in read_rate_table(log)]
    lines.append(
        f"per-tag rate: min {min(rates):.1f} / median {np.median(rates):.1f} "
        f"/ max {max(rates):.1f} reads/s"
    )
    if calibration is not None:
        lines.append(activity_trace(log, calibration))
    return "\n".join(lines)
