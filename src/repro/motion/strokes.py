"""Stroke primitives and their hand trajectories.

The paper defines 7 basic hand motions (section II-C): a "click" push
towards a tag plus six stroke shapes — "−", "|", "/", "\\", "⊂", "⊃".
Strokes 2-7 each have two travel directions, giving the 13 motions of the
evaluation (section V-B.1).

For letter composition the arcs additionally appear rotated (the bowl of a
"U", the cap of an "∩"-like stroke), so the shape vocabulary carries an
explicit :class:`ArcOpening`.  The motion-detection experiments use only
the paper's 7 primitives.

Trajectories are generated in the tag-plane frame (see
:mod:`repro.physics.geometry`): strokes are drawn at a small hover height
above the ``z = 0`` plane, scaled to the pad extent, with per-user speed
and jitter applied by the caller.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..physics.geometry import Vec3, path_length, resample_polyline


class StrokeKind(enum.Enum):
    """The paper's 7 basic motions (numbered #1..#7 as in section V-D)."""

    CLICK = 1       # "push" towards a tag
    HBAR = 2        # "−"
    VBAR = 3        # "|"
    SLASH = 4       # "/"
    BACKSLASH = 5   # "\"
    ARC_C = 6       # "⊂" (opens right, like "(")
    ARC_D = 7       # "⊃" (opens left, like ")")

    @property
    def glyph(self) -> str:
        return {
            StrokeKind.CLICK: "⊙",
            StrokeKind.HBAR: "−",
            StrokeKind.VBAR: "|",
            StrokeKind.SLASH: "/",
            StrokeKind.BACKSLASH: "\\",
            StrokeKind.ARC_C: "⊂",
            StrokeKind.ARC_D: "⊃",
        }[self]


class Direction(enum.Enum):
    """Travel direction along a stroke (click has only FORWARD)."""

    FORWARD = "forward"   # left→right, top→bottom, or clockwise-start
    REVERSE = "reverse"


class ArcOpening(enum.Enum):
    """Which way an arc's gap faces."""

    RIGHT = "right"  # "⊂" / "("
    LEFT = "left"    # "⊃" / ")"
    UP = "up"        # bowl "∪"
    DOWN = "down"    # cap "∩"


@dataclass(frozen=True)
class Motion:
    """One of the 13 evaluated motions: a stroke kind plus travel direction."""

    kind: StrokeKind
    direction: Direction = Direction.FORWARD

    @property
    def label(self) -> str:
        arrow = "" if self.kind is StrokeKind.CLICK else (
            "+" if self.direction is Direction.FORWARD else "-"
        )
        return f"{self.kind.glyph}{arrow}"


def all_motions() -> List[Motion]:
    """The paper's 13-motion battery: click + strokes 2-7 in two directions."""
    motions = [Motion(StrokeKind.CLICK)]
    for kind in (
        StrokeKind.HBAR,
        StrokeKind.VBAR,
        StrokeKind.SLASH,
        StrokeKind.BACKSLASH,
        StrokeKind.ARC_C,
        StrokeKind.ARC_D,
    ):
        motions.append(Motion(kind, Direction.FORWARD))
        motions.append(Motion(kind, Direction.REVERSE))
    return motions


@dataclass(frozen=True)
class TimedPoint:
    """One sample of a hand trajectory."""

    t: float
    position: Vec3


@dataclass(frozen=True)
class StrokeTrace:
    """A generated stroke: its samples plus generation ground truth."""

    kind: StrokeKind
    direction: Direction
    samples: Tuple[TimedPoint, ...]
    opening: Optional[ArcOpening] = None  # arcs only

    @property
    def t_start(self) -> float:
        return self.samples[0].t

    @property
    def t_end(self) -> float:
        return self.samples[-1].t

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def points(self) -> List[Vec3]:
        return [s.position for s in self.samples]


# ----------------------------------------------------------------------
# Shape skeletons (unit box [0,1]^2, y up)
# ----------------------------------------------------------------------

_ARC_POINTS = 24
_LINE_POINTS = 12


def _line_skeleton(p0: Tuple[float, float], p1: Tuple[float, float]) -> List[Tuple[float, float]]:
    return [
        (p0[0] + (p1[0] - p0[0]) * i / (_LINE_POINTS - 1),
         p0[1] + (p1[1] - p0[1]) * i / (_LINE_POINTS - 1))
        for i in range(_LINE_POINTS)
    ]


def _arc_skeleton(opening: ArcOpening) -> List[Tuple[float, float]]:
    """A 240-degree arc in the unit box whose gap faces ``opening``.

    The gap is centred on the opening direction; e.g. an ``ARC_C`` ("⊂")
    covers angles 60..300 degrees, leaving the right side open.
    """
    gap_centre = {
        ArcOpening.RIGHT: 0.0,
        ArcOpening.UP: 90.0,
        ArcOpening.LEFT: 180.0,
        ArcOpening.DOWN: 270.0,
    }[opening]
    start = gap_centre + 60.0
    end = gap_centre + 300.0
    pts = []
    for i in range(_ARC_POINTS):
        a = math.radians(start + (end - start) * i / (_ARC_POINTS - 1))
        pts.append((0.5 + 0.45 * math.cos(a), 0.5 + 0.45 * math.sin(a)))
    return pts


def stroke_skeleton(
    kind: StrokeKind, opening: Optional[ArcOpening] = None
) -> List[Tuple[float, float]]:
    """Canonical unit-box polyline for a stroke shape, in FORWARD order.

    FORWARD conventions: "−" left→right, "|" top→bottom, "/" bottom-left→
    top-right, "\\" top-left→bottom-right, arcs start at their upper tip.
    """
    if kind is StrokeKind.CLICK:
        raise ValueError("click is a push, not a planar polyline; use generate_click")
    if kind is StrokeKind.HBAR:
        return _line_skeleton((0.05, 0.5), (0.95, 0.5))
    if kind is StrokeKind.VBAR:
        return _line_skeleton((0.5, 0.95), (0.5, 0.05))
    if kind is StrokeKind.SLASH:
        return _line_skeleton((0.05, 0.05), (0.95, 0.95))
    if kind is StrokeKind.BACKSLASH:
        return _line_skeleton((0.05, 0.95), (0.95, 0.05))
    if kind is StrokeKind.ARC_C:
        return _arc_skeleton(opening if opening is not None else ArcOpening.RIGHT)
    if kind is StrokeKind.ARC_D:
        return _arc_skeleton(opening if opening is not None else ArcOpening.LEFT)
    raise ValueError(f"unhandled stroke kind {kind}")


def default_opening(kind: StrokeKind) -> Optional[ArcOpening]:
    """The canonical opening of an arc kind (None for lines/clicks)."""
    if kind is StrokeKind.ARC_C:
        return ArcOpening.RIGHT
    if kind is StrokeKind.ARC_D:
        return ArcOpening.LEFT
    return None


# ----------------------------------------------------------------------
# Trajectory generation
# ----------------------------------------------------------------------


def _smooth_noise(rng: np.random.Generator, n: int, sigma: float, kernel: int = 7) -> np.ndarray:
    """Low-frequency jitter: white noise convolved with a box kernel."""
    if sigma <= 0.0 or n == 0:
        return np.zeros(n)
    raw = rng.normal(0.0, sigma, size=n + kernel - 1)
    window = np.ones(kernel) / kernel
    return np.convolve(raw, window, mode="valid")


def generate_stroke(
    motion: Motion,
    rng: np.random.Generator,
    box_center: Tuple[float, float] = (0.0, 0.0),
    box_size: Tuple[float, float] = (0.24, 0.24),
    speed: float = 0.20,
    hover_height: float = 0.03,
    jitter: float = 0.004,
    t_start: float = 0.0,
    sample_dt: float = 0.01,
    opening: Optional[ArcOpening] = None,
) -> StrokeTrace:
    """Generate a hand trajectory for one stroke.

    Parameters
    ----------
    box_center, box_size:
        Where on the pad (metres, plane frame) the stroke is drawn.
    speed:
        Nominal hand speed along the path, m/s.
    hover_height:
        Height above the plane, metres; the paper's accuracy zone is <5 cm.
    jitter:
        Std (metres) of low-frequency hand wander added to the ideal path.
    """
    if motion.kind is StrokeKind.CLICK:
        return generate_click(
            rng,
            target=Vec3(box_center[0], box_center[1], 0.0),
            hover_height=hover_height,
            t_start=t_start,
            sample_dt=sample_dt,
            speed=speed,
        )
    if speed <= 0.0:
        raise ValueError(f"speed must be positive, got {speed}")

    opening = opening if opening is not None else default_opening(motion.kind)
    skeleton = stroke_skeleton(motion.kind, opening)
    if motion.direction is Direction.REVERSE:
        skeleton = skeleton[::-1]

    # Scale unit box to the requested pad region.
    pts = [
        Vec3(
            box_center[0] + (u - 0.5) * box_size[0],
            box_center[1] + (v - 0.5) * box_size[1],
            hover_height,
        )
        for u, v in skeleton
    ]
    length = path_length(pts)
    duration = max(0.25, length / speed)
    n = max(8, int(round(duration / sample_dt)) + 1)
    pts = resample_polyline(pts, n)

    # Hand wander + gentle height breathing.
    jx = _smooth_noise(rng, n, jitter)
    jy = _smooth_noise(rng, n, jitter)
    jz = _smooth_noise(rng, n, jitter * 0.5)
    samples = []
    for i, p in enumerate(pts):
        t = t_start + duration * i / (n - 1)
        samples.append(
            TimedPoint(
                t,
                Vec3(p.x + jx[i], p.y + jy[i], max(0.012, p.z + jz[i])),
            )
        )
    return StrokeTrace(motion.kind, motion.direction, tuple(samples), opening)


def generate_click(
    rng: np.random.Generator,
    target: Vec3,
    hover_height: float = 0.03,
    raised_height: float = 0.14,
    t_start: float = 0.0,
    sample_dt: float = 0.01,
    speed: float = 0.20,
    jitter: float = 0.003,
) -> StrokeTrace:
    """A "click": push down towards a tag and retract (paper's motion #1)."""
    descend = raised_height - hover_height
    duration = max(0.4, 2.2 * descend / max(speed, 1e-6))
    n = max(10, int(round(duration / sample_dt)) + 1)
    jx = _smooth_noise(rng, n, jitter)
    jy = _smooth_noise(rng, n, jitter)
    samples = []
    for i in range(n):
        frac = i / (n - 1)
        # Triangle profile: down for the first half, back up for the second.
        if frac <= 0.5:
            z = raised_height - descend * (frac / 0.5)
        else:
            z = hover_height + descend * ((frac - 0.5) / 0.5)
        t = t_start + duration * frac
        samples.append(TimedPoint(t, Vec3(target.x + jx[i], target.y + jy[i], max(0.012, z))))
    return StrokeTrace(StrokeKind.CLICK, Direction.FORWARD, tuple(samples), None)


def generate_line_between(
    rng: np.random.Generator,
    start_xy: Tuple[float, float],
    end_xy: Tuple[float, float],
    kind: StrokeKind,
    direction: Direction,
    speed: float = 0.20,
    hover_height: float = 0.03,
    jitter: float = 0.004,
    t_start: float = 0.0,
    sample_dt: float = 0.01,
    opening: Optional[ArcOpening] = None,
) -> StrokeTrace:
    """Generate a stroke between explicit pad coordinates (letter writing).

    For line kinds the path is the segment start→end.  For arcs the path is
    a circular arc whose chord is start→end and whose bulge faces away from
    ``opening``.
    """
    if speed <= 0.0:
        raise ValueError(f"speed must be positive, got {speed}")
    sx, sy = start_xy
    ex, ey = end_xy
    if kind in (StrokeKind.ARC_C, StrokeKind.ARC_D) or opening is not None:
        op = opening if opening is not None else default_opening(kind)
        pts2d = _arc_between((sx, sy), (ex, ey), op)
    else:
        pts2d = _line_skeleton((sx, sy), (ex, ey))
        # _line_skeleton interpolates raw coordinates; no unit-box scaling here.
    pts = [Vec3(x, y, hover_height) for x, y in pts2d]
    length = path_length(pts)
    duration = max(0.25, length / speed)
    n = max(8, int(round(duration / sample_dt)) + 1)
    pts = resample_polyline(pts, n)
    jx = _smooth_noise(rng, n, jitter)
    jy = _smooth_noise(rng, n, jitter)
    samples = []
    for i, p in enumerate(pts):
        t = t_start + duration * i / (n - 1)
        samples.append(TimedPoint(t, Vec3(p.x + jx[i], p.y + jy[i], p.z)))
    return StrokeTrace(kind, direction, tuple(samples), opening or default_opening(kind))


def _arc_between(
    start: Tuple[float, float], end: Tuple[float, float], opening: Optional[ArcOpening]
) -> List[Tuple[float, float]]:
    """Circular-ish arc from start to end bulging away from ``opening``."""
    sx, sy = start
    ex, ey = end
    mx, my = (sx + ex) / 2.0, (sy + ey) / 2.0
    chord = math.hypot(ex - sx, ey - sy)
    # Control-point offset of 1.0 * chord puts the curve's midpoint at half
    # a chord off the baseline — a near-semicircular bow, which is how
    # people actually round a "D" or the bowl of a "U" (and what keeps the
    # arc's path measurably non-straight at 5x5 tag resolution).
    bulge = 1.0 * chord if chord > 0 else 0.05
    offset = {
        ArcOpening.RIGHT: (-bulge, 0.0),
        ArcOpening.LEFT: (bulge, 0.0),
        ArcOpening.UP: (0.0, -bulge),
        ArcOpening.DOWN: (0.0, bulge),
        None: (-bulge, 0.0),
    }[opening]
    cx, cy = mx + offset[0], my + offset[1]
    # Quadratic Bezier through the bulge control point.
    pts = []
    for i in range(_ARC_POINTS):
        t = i / (_ARC_POINTS - 1)
        x = (1 - t) ** 2 * sx + 2 * (1 - t) * t * cx + t**2 * ex
        y = (1 - t) ** 2 * sy + 2 * (1 - t) * t * cy + t**2 * ey
        pts.append((x, y))
    return pts
