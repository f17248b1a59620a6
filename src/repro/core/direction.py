"""RSS-based direction estimation (section III-B).

Phase profiles under a moving hand can be monotonous, axially symmetric, or
circularly symmetric depending on where the tag sits relative to the trail
(Fig. 8), so they make poor ordering signals.  RSS is distinctive: the hand
passing perpendicularly over a tag blocks it, leaving one clean trough per
crossing.  Ordering the troughs in time recovers the sequence of tags the
hand visited; projecting that sequence onto the stroke's canonical travel
direction yields FORWARD vs REVERSE.

The two-stage trough estimation the paper sketches:

* stage 1 — candidate troughs: tags whose smoothed RSS dips at least
  ``min_depth_db`` below their static baseline;
* stage 2 — refinement: per candidate, the trough time is re-estimated as
  the weighted centre of the dip's bottom region (samples within
  ``bottom_fraction`` of the dip depth), which is far more stable than the
  raw argmin under quantised, jittery RSS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..motion.strokes import ArcOpening, Direction, StrokeKind
from ..physics.geometry import GridLayout
from ..rfid.reports import ReportLog
from .calibration import StaticCalibration
from .window import WindowBlock, row_sums


@dataclass(frozen=True)
class Trough:
    """One detected RSS trough."""

    tag_index: int
    time: float
    depth_db: float


@dataclass(frozen=True)
class DirectionConfig:
    min_depth_db: float = 2.5       # stage-1 candidate gate
    smooth_window: int = 5          # moving-average width, samples
    bottom_fraction: float = 0.5    # stage-2: bottom 50% of the dip
    min_troughs: int = 2            # need at least two ordered points
    #: Troughs shallower than this fraction of the deepest trough are left
    #: out of the *path geometry* (they still vote in direction
    #: regression, weighted by depth): grazing passes produce shallow,
    #: time-jittered troughs that zigzag the reconstructed path.
    path_depth_fraction: float = 0.45


def _smooth(values: np.ndarray, window: int) -> np.ndarray:
    """Moving average of one tag's RSS (``mode="same"``, width clipped to
    the series length)."""
    if window <= 1 or values.size <= 2:
        return values.astype(float)
    k = min(window, values.size)
    return np.convolve(values, _box_kernel(k), mode="same")


@lru_cache(maxsize=None)
def _box_kernel(k: int) -> np.ndarray:
    kernel = np.ones(k) / k
    kernel.flags.writeable = False
    return kernel


def trough_rows(
    block: WindowBlock,
    config: DirectionConfig = DirectionConfig(),
    restrict_to: Optional[Sequence[int]] = None,
) -> List[Trough]:
    """The two-stage trough estimate over a window block, ordered by time.

    Rows with at least 3 reads are candidates.  Each is smoothed with its
    own ``np.convolve`` (no row-wise form reproduces numpy's convolution
    bits); the dip below the static baseline, its depth, the stage-1 gate
    and the weighted centre of the stage-2 bottom region are row
    operations.  The centre's sums run over each row's bottom samples,
    packed to the front of the row in time order, through
    :func:`~repro.core.window.row_sums`.  The final sort is stable, so
    equal trough times keep the rows' first-appearance order.
    """
    counts = block.counts
    cand = counts >= 3
    if restrict_to is not None:
        cand &= np.isin(block.ids, np.asarray(list(restrict_to), dtype=np.int64))
    rows = np.flatnonzero(cand)
    if rows.size == 0:
        return []
    n = counts[rows]
    width = block.rss.shape[1]
    smoothed = np.zeros((rows.size, width))
    rss = block.rss
    for i, (r, c) in enumerate(zip(rows.tolist(), n.tolist())):
        smoothed[i, :c] = _smooth(rss[r, :c], config.smooth_window)
    # The dip below the static baseline; -inf past each row's reads, so
    # padding neither sets the depth nor joins the bottom region.
    dip = np.where(
        np.arange(width) < n[:, None],
        block.table.mean_rss[block.slots[rows]][:, None] - smoothed,
        -np.inf,
    )
    depth = dip.max(axis=1)
    # Stage 1: the candidate gate.
    keep = np.flatnonzero(~(depth < config.min_depth_db))
    if keep.size == 0:
        return []
    rows, dip, depth = rows[keep], dip[keep], depth[keep]
    # Stage 2: centre of the bottom region.  Its samples are packed to the
    # front of two stacked matrices, dip-weighted times over the weights.
    r_idx, c_idx = np.nonzero(dip >= (depth * config.bottom_fraction)[:, None])
    sizes = np.bincount(r_idx, minlength=rows.size)
    packed = np.arange(r_idx.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    weights = dip[r_idx, c_idx]
    stacked = np.zeros((2 * rows.size, width))
    stacked[r_idx, packed] = block.ts[rows[r_idx], c_idx] * weights
    stacked[rows.size + r_idx, packed] = weights
    sums = row_sums(stacked, np.concatenate((sizes, sizes)))
    times = sums[: rows.size] / sums[rows.size :]
    troughs = [
        Trough(tag_index=idx, time=t, depth_db=d)
        for idx, t, d in zip(
            block.ids[rows].tolist(), times.tolist(), depth.tolist()
        )
    ]
    troughs.sort(key=lambda tr: tr.time)
    return troughs


def detect_troughs(
    log: ReportLog,
    calibration: StaticCalibration,
    t0: Optional[float] = None,
    t1: Optional[float] = None,
    config: DirectionConfig = DirectionConfig(),
    restrict_to: Optional[Sequence[int]] = None,
) -> List[Trough]:
    """Find per-tag RSS troughs inside a window, ordered by time.

    Builds the window's :class:`~repro.core.window.WindowBlock` and runs
    :func:`trough_rows`, the kernel the pipeline's direction stage runs.
    """
    block = WindowBlock.from_log(log, calibration.table, t0, t1)
    return trough_rows(block, config, restrict_to)


@lru_cache(maxsize=None)
def _skeleton_forward(kind: StrokeKind, opening: Optional[ArcOpening]) -> Tuple[float, float]:
    """Canonical FORWARD travel vector, derived from the stroke skeleton.

    Deriving it from :func:`repro.motion.strokes.stroke_skeleton` (instead
    of a hand-written table) keeps the direction convention pinned to the
    generator: whatever path FORWARD draws, this is its net displacement.
    """
    from ..motion.strokes import stroke_skeleton  # local: avoids cycle at import

    skeleton = stroke_skeleton(kind, opening)
    dx = skeleton[-1][0] - skeleton[0][0]
    dy = skeleton[-1][1] - skeleton[0][1]
    return dx, dy


def estimate_direction(
    kind: StrokeKind,
    troughs: Sequence[Trough],
    layout: GridLayout,
    opening: Optional[ArcOpening] = None,
    config: DirectionConfig = DirectionConfig(),
) -> Tuple[Direction, float]:
    """Infer travel direction from the time-ordered troughs.

    Regresses each visited tag's projection onto the canonical FORWARD
    vector against its trough time: a positive slope means the hand swept
    the canonical way.  Returns (direction, confidence in [0, 1]); clicks
    and under-determined cases return FORWARD with zero confidence.
    """
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


def passage_order(troughs: Sequence[Trough]) -> Tuple[int, ...]:
    """Tag indices in the order the hand visited them."""
    return tuple(tr.tag_index for tr in troughs)


@dataclass(frozen=True)
class TroughPath:
    """Geometry of the time-ordered trough positions — a coarse replay of
    the hand's path.

    ``straightness`` is chord length over path length: ~1 for lines, ~0.4
    for the paper's 240-degree arcs.  At 5x5 resolution this temporal
    signal separates thick lines from arcs far more reliably than image
    moments alone, so the classifier consults it when enough troughs exist.
    """

    n: int
    chord: Tuple[float, float]            # net displacement (x, y), y up
    path_length: float
    straightness: float
    opening: Tuple[float, float]          # unit vector from path mid to chord mid
    points: Tuple[Tuple[float, float], ...]
    t_first: float = 0.0                  # earliest strong trough
    t_last: float = 0.0                   # latest strong trough
    #: Largest pairwise distance among *all* detected trough cells (weak
    #: ones included).  A push keeps every trough within a one-cell ring;
    #: any travelling stroke spans at least two cells.
    spatial_extent: float = 0.0

    @property
    def time_spread(self) -> float:
        """How long the hand spent *arriving at* successive tags.

        A travelling stroke spreads its troughs across most of its window;
        a click's troughs all fire around the single push instant."""
        return self.t_last - self.t_first


def trough_path(
    troughs: Sequence[Trough],
    layout: GridLayout,
    config: DirectionConfig = DirectionConfig(),
) -> Optional[TroughPath]:
    """Build path geometry from time-ordered troughs (None if < 3 points).

    Only dominant troughs (>= ``path_depth_fraction`` of the deepest)
    contribute, and positions are smoothed with a 3-point moving average
    before the path length is measured — both guards against trough-time
    jitter turning a straight trail into a zigzag.
    """
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
