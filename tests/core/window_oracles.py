"""Per-tag reference implementations of the window-analysis kernels.

These are the bodies the pipeline ran before the window analysis moved to
one (tags × reads) block with row-wise kernels: a per-sample unwrap loop,
suppression, troughs, imaging and Otsu that walk ``ReportLog.per_tag``
one tag at a time, and the direction vote and trough path with their
per-trough ``row_col`` loops.  The kernel tests compare the production code against
them bit for bit (``==``, never approx).  Nothing in ``src/`` may import
this module.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.direction import (
    DirectionConfig,
    Trough,
    TroughPath,
    _skeleton_forward,
)
from repro.core.events import StrokeObservation
from repro.core.imaging import GreyMap
from repro.core.otsu import TIE_RTOL
from repro.core.unwrap import fold_to_pi, fold_to_pi_many
from repro.motion.strokes import ArcOpening, Direction, StrokeKind
from repro.physics.geometry import GridLayout


def unwrap_loop(phases: Sequence[float]) -> np.ndarray:
    """The per-sample unwrap: keep the first sample, then add each folded
    step to the running value."""
    arr = np.asarray(phases, dtype=float)
    if arr.size == 0:
        return arr.copy()
    out = np.empty_like(arr)
    out[0] = arr[0]
    prev_wrapped = arr[0]
    prev_out = arr[0]
    for i in range(1, arr.size):
        delta = fold_to_pi(arr[i] - prev_wrapped)
        prev_out = prev_out + delta
        out[i] = prev_out
        prev_wrapped = arr[i]
    return out


def total_variation_sum(values: Sequence[float]) -> float:
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        return 0.0
    return float(np.abs(np.diff(arr)).sum())


def weights_dict(calibration) -> Dict[int, float]:
    """Eq. 9 weights, rebuilt from the biases on every call."""
    raw = {i: calibration.deviation_bias(i) for i in calibration.tags}
    values = sorted(raw.values())
    median = values[len(values) // 2]
    band = calibration.weight_clamp_band
    lo, hi = median / band, median * band
    biases = {i: min(hi, max(lo, b)) for i, b in raw.items()}
    total = sum(biases.values())
    return {i: b / total for i, b in biases.items()}


def _window(log, t0, t1):
    if t0 is None and t1 is None:
        return log
    lo = t0 if t0 is not None else float("-inf")
    hi = t1 if t1 is not None else float("inf")
    return log.slice_time(lo, hi)


def accumulative_differences_per_tag(
    log, calibration, t0=None, t1=None, per_sample=True, bias_weighting=True
):
    """``(raw, suppressed, read_counts)`` dicts, one tag at a time."""
    raw: Dict[int, float] = {}
    suppressed: Dict[int, float] = {}
    counts: Dict[int, int] = {}
    weights = weights_dict(calibration)
    for idx, series in _window(log, t0, t1).per_tag().items():
        if idx not in calibration.tags:
            continue
        counts[idx] = len(series)
        if len(series) < 2:
            raw[idx] = 0.0
            suppressed[idx] = 0.0
            continue
        raw[idx] = total_variation_sum(series.phases)
        residual = unwrap_loop(
            fold_to_pi_many(series.phases - calibration.central_phase(idx))
        )
        tv = total_variation_sum(residual)
        if per_sample:
            tv /= max(1, len(series) - 1)
        suppressed[idx] = tv / weights[idx] if bias_weighting else tv
    for idx in calibration.tag_indices():
        raw.setdefault(idx, 0.0)
        suppressed.setdefault(idx, 0.0)
        counts.setdefault(idx, 0)
    return raw, suppressed, counts


def _smooth(values: np.ndarray, window: int) -> np.ndarray:
    if window <= 1 or values.size <= 2:
        return values.astype(float)
    k = min(window, values.size)
    kernel = np.ones(k) / k
    return np.convolve(values.astype(float), kernel, mode="same")


def detect_troughs_per_tag(
    log,
    calibration,
    t0=None,
    t1=None,
    config: DirectionConfig = DirectionConfig(),
    restrict_to: Optional[Sequence[int]] = None,
) -> List[Trough]:
    allowed = set(restrict_to) if restrict_to is not None else None
    troughs: List[Trough] = []
    for idx, series in _window(log, t0, t1).per_tag().items():
        if idx not in calibration.tags:
            continue
        if allowed is not None and idx not in allowed:
            continue
        if len(series) < 3:
            continue
        baseline = calibration.mean_rss(idx)
        smoothed = _smooth(series.rss, config.smooth_window)
        dip = baseline - smoothed
        depth = float(dip.max())
        if depth < config.min_depth_db:
            continue
        cutoff = depth * config.bottom_fraction
        bottom = dip >= cutoff
        weights = dip[bottom]
        times = series.timestamps[bottom]
        t_trough = float((times * weights).sum() / weights.sum())
        troughs.append(Trough(tag_index=idx, time=t_trough, depth_db=depth))
    troughs.sort(key=lambda tr: tr.time)
    return troughs


def render_grey_map_loop(per_tag_values: Dict[int, float], layout) -> GreyMap:
    img = np.zeros((layout.rows, layout.cols), dtype=float)
    for idx, value in per_tag_values.items():
        if idx < 0:
            continue
        r, c = layout.row_col(idx)
        img[r, c] = max(0.0, float(value))
    return GreyMap(values=img, layout=layout)


def otsu_threshold_loop(values: Sequence[float], bins: int = 64) -> float:
    arr = np.asarray(values, dtype=float).ravel()
    lo, hi = float(arr.min()), float(arr.max())
    if hi <= lo:
        return hi
    if (hi - lo) / bins == 0.0:
        return hi
    hist, edges = np.histogram(arr, bins=bins, range=(lo, hi))
    probs = hist / arr.size
    centres = (edges[:-1] + edges[1:]) / 2.0
    best_between = -1.0
    best_threshold = (lo + hi) / 2.0
    w0 = 0.0
    sum0 = 0.0
    total_mean = float((probs * centres).sum())
    for k in range(bins - 1):
        w0 += probs[k]
        sum0 += probs[k] * centres[k]
        w1 = 1.0 - w0
        if w0 <= 0.0 or w1 <= 0.0:
            continue
        mu0 = sum0 / w0
        mu1 = (total_mean - sum0) / w1
        between = w0 * w1 * (mu0 - mu1) ** 2
        if between > best_between * (1.0 + TIE_RTOL):
            best_between = between
            best_threshold = edges[k + 1]
    return float(best_threshold)


def estimate_direction_loop(
    kind: StrokeKind,
    troughs: Sequence[Trough],
    layout: GridLayout,
    opening: Optional[ArcOpening] = None,
    config: DirectionConfig = DirectionConfig(),
) -> Tuple[Direction, float]:
    """The direction vote with a per-trough ``row_col`` loop."""
    if kind is StrokeKind.CLICK or len(troughs) < config.min_troughs:
        return Direction.FORWARD, 0.0

    fx, fy = _skeleton_forward(kind, opening)
    norm = math.hypot(fx, fy)
    if norm == 0.0:
        return Direction.FORWARD, 0.0
    fx, fy = fx / norm, fy / norm

    times = np.array([tr.time for tr in troughs])
    projections = []
    weights = []
    for tr in troughs:
        r, c = layout.row_col(tr.tag_index)
        x = float(c)
        y = float(layout.rows - 1 - r)  # y up
        projections.append(x * fx + y * fy)
        weights.append(tr.depth_db)
    proj = np.array(projections)
    w = np.array(weights)

    # Weighted least-squares slope of projection vs time.
    t_mean = float((times * w).sum() / w.sum())
    p_mean = float((proj * w).sum() / w.sum())
    var_t = float((w * (times - t_mean) ** 2).sum())
    if var_t <= 1e-12:
        return Direction.FORWARD, 0.0
    cov = float((w * (times - t_mean) * (proj - p_mean)).sum())
    slope = cov / var_t

    var_p = float((w * (proj - p_mean) ** 2).sum())
    if var_p <= 1e-12:
        return Direction.FORWARD, 0.0
    correlation = cov / math.sqrt(var_t * var_p)

    direction = Direction.FORWARD if slope >= 0.0 else Direction.REVERSE
    return direction, abs(float(correlation))




def trough_path_loop(
    troughs: Sequence[Trough],
    layout: GridLayout,
    config: DirectionConfig = DirectionConfig(),
) -> Optional[TroughPath]:
    """Trough path geometry with per-trough ``row_col`` loops."""
    if not troughs:
        return None
    all_pts = []
    for tr in troughs:
        r, c = layout.row_col(tr.tag_index)
        all_pts.append((float(c), float(layout.rows - 1 - r)))
    # Pairwise max distance as one broadcast instead of the O(n^2) Python
    # loop; hypot(dx, dy) == sqrt(dx*dx + dy*dy) to the ulp for grid-coord
    # magnitudes (no overflow/underflow in range), and the max of the full
    # (n, n) matrix equals the max over unordered pairs.
    pts = np.asarray(all_pts)
    dx = pts[:, 0][:, None] - pts[:, 0][None, :]
    dy = pts[:, 1][:, None] - pts[:, 1][None, :]
    spatial_extent = float(np.sqrt(dx * dx + dy * dy).max())

    max_depth = max(tr.depth_db for tr in troughs)
    # Relative gate with an absolute cap: one very deep trough (a tag the
    # hand parked on) must not disqualify the ordinary ~5 dB troughs that
    # trace the rest of the path.
    gate = min(4.0, config.path_depth_fraction * max_depth)
    strong = [tr for tr in troughs if tr.depth_db >= gate]
    if len(strong) < 2:
        return None
    # Two points give a chord and a time spread (enough for the click
    # test) but no meaningful straightness/opening; handle them directly.
    if len(strong) == 2:
        pts2 = []
        for tr in strong:
            r, c = layout.row_col(tr.tag_index)
            pts2.append((float(c), float(layout.rows - 1 - r)))
        chord2 = (pts2[1][0] - pts2[0][0], pts2[1][1] - pts2[0][1])
        return TroughPath(
            n=2,
            chord=chord2,
            path_length=math.hypot(*chord2),
            straightness=1.0,
            opening=(0.0, 0.0),
            points=tuple(pts2),
            t_first=min(tr.time for tr in strong),
            t_last=max(tr.time for tr in strong),
            spatial_extent=spatial_extent,
        )
    raw = []
    for tr in strong:
        r, c = layout.row_col(tr.tag_index)
        raw.append((float(c), float(layout.rows - 1 - r)))  # y up
    # 3-point moving average (endpoints kept).
    pts = [raw[0]]
    for i in range(1, len(raw) - 1):
        pts.append(
            (
                (raw[i - 1][0] + raw[i][0] + raw[i + 1][0]) / 3.0,
                (raw[i - 1][1] + raw[i][1] + raw[i + 1][1]) / 3.0,
            )
        )
    pts.append(raw[-1])
    chord = (pts[-1][0] - pts[0][0], pts[-1][1] - pts[0][1])
    length = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        length += math.hypot(x1 - x0, y1 - y0)
    chord_len = math.hypot(*chord)
    straightness = chord_len / length if length > 1e-9 else 0.0

    # Opening: an arc's midpoint bulges away from its chord; the gap faces
    # from the path midpoint towards the chord midpoint.
    mid_idx = len(pts) // 2
    path_mid = pts[mid_idx]
    chord_mid = ((pts[0][0] + pts[-1][0]) / 2.0, (pts[0][1] + pts[-1][1]) / 2.0)
    ox, oy = chord_mid[0] - path_mid[0], chord_mid[1] - path_mid[1]
    onorm = math.hypot(ox, oy)
    opening = (ox / onorm, oy / onorm) if onorm > 1e-9 else (0.0, 0.0)

    return TroughPath(
        n=len(pts),
        chord=chord,
        path_length=length,
        straightness=straightness,
        opening=opening,
        points=tuple(pts),
        t_first=min(tr.time for tr in strong),
        t_last=max(tr.time for tr in strong),
        spatial_extent=spatial_extent,
    )


def analyze_per_tag(stages, ctx, log, t0=None, t1=None) -> Optional[StrokeObservation]:
    """``WindowAnalyzer.analyze`` composed from the per-tag references;
    classification is the production stage."""
    from repro.core.classifier import classify_shape
    from repro.core.direction import passage_order
    from repro.core.imaging import BinaryMap

    supp = stages.suppression
    raw, suppressed, _ = accumulative_differences_per_tag(
        log, ctx.calibration, t0, t1, bias_weighting=supp.bias_weighting
    )
    grey = render_grey_map_loop(
        suppressed if supp.diversity_suppression else raw, ctx.layout
    )
    threshold = otsu_threshold_loop(grey.values.ravel())
    binary = BinaryMap(mask=grey.values > threshold, threshold=threshold, layout=grey.layout)
    config = stages.direction.config
    troughs = detect_troughs_per_tag(log, ctx.calibration, t0, t1, config)
    path = trough_path_loop(troughs, ctx.layout, config)
    win_lo = t0 if t0 is not None else (log.start_time if len(log) else 0.0)
    win_hi = t1 if t1 is not None else (log.end_time if len(log) else 0.0)
    decision = classify_shape(
        grey, binary, stages.classify.config, path, window_s=max(0.0, win_hi - win_lo)
    )
    if decision is None:
        return None
    direction, dir_confidence = estimate_direction_loop(
        decision.kind, troughs, ctx.layout, decision.opening, config
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


def window_std_numpy(rms: np.ndarray, window_frames: int) -> np.ndarray:
    """Sliding std of the frame RMS through numpy's vectorized ``std``: the
    reference for ``window_std``."""
    n = rms.size
    out = np.zeros(n)
    full = n - window_frames + 1
    if full > 0:
        windows = np.lib.stride_tricks.sliding_window_view(rms, window_frames)
        out[:full] = windows.std(axis=1)
    for i in range(max(0, full), n):
        chunk = rms[i : i + window_frames]
        out[i] = float(chunk.std()) if chunk.size >= 2 else 0.0
    return out

