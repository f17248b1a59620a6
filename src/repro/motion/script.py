"""Writing sessions: strokes, adjustment intervals, and the hand-pose clock.

A :class:`WritingScript` is the timed ground truth of one session — strokes
with their intervals, the inter-stroke *adjustment intervals* (hand raised
and repositioned, section III-C.1), and lead-in/lead-out periods with no
hand over the pad.  Its :meth:`WritingScript.hand_pose_at` is exactly the
scene callback the simulated reader consumes, and its ground-truth
accessors are what the metrics layer scores against.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..physics.geometry import Vec3
from ..physics.hand import HandPose, PoseTrack
from .letters import LETTER_STROKES, StrokeSpec
from .strokes import (
    Motion,
    StrokeTrace,
    TimedPoint,
    generate_line_between,
    generate_stroke,
)
from .user import DEFAULT_USER, UserProfile


#: Largest :meth:`WritingScript.pose_at_many` batch answered by the scalar
#: clock (the inventory loop's readability checks ask for 1-64 times).  The
#: scalar clock costs ~4 us a time and the array path ~34 us a call on a
#: nine-segment letter, so they break even near eight times.
_SCALAR_BATCH = 7


@dataclass(frozen=True)
class Segment:
    """One timed piece of a session."""

    t0: float
    t1: float
    kind: str                 # "stroke" | "adjust" | "absent"
    trace: Optional[StrokeTrace] = None
    path: Tuple[TimedPoint, ...] = ()

    def __post_init__(self) -> None:
        if self.t1 < self.t0:
            raise ValueError(f"segment ends before it starts: {self.t0}..{self.t1}")


def _interpolate(
    samples: Sequence[TimedPoint], t: float, times: Optional[Sequence[float]] = None
) -> Vec3:
    """Linear interpolation of a timed sample sequence (clamped at ends).

    ``times`` optionally supplies the precomputed ``[s.t for s in samples]``
    key list — the pose clock calls this thousands of times per session on
    the same sample sequences.
    """
    if not samples:
        raise ValueError("cannot interpolate an empty sample sequence")
    if times is None:
        times = [s.t for s in samples]
    i = bisect.bisect_right(times, t)
    if i <= 0:
        return samples[0].position
    if i >= len(samples):
        return samples[-1].position
    a, b = samples[i - 1], samples[i]
    if b.t == a.t:
        return a.position
    frac = (t - a.t) / (b.t - a.t)
    return a.position.lerp(b.position, frac)


@dataclass
class WritingScript:
    """A complete session: ordered segments plus labels.

    ``label`` is the session-level ground truth (a letter, or a motion
    label for single-stroke sessions).
    """

    segments: List[Segment]
    label: str
    user: UserProfile = DEFAULT_USER

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("a script needs at least one segment")
        for a, b in zip(self.segments, self.segments[1:]):
            if b.t0 < a.t1 - 1e-9:
                raise ValueError("segments overlap")
        # Per-segment interpolation keys, filled lazily by hand_pose_at.
        self._seg_times: dict = {}
        # Segment and sample tables, built lazily by pose_at_many.
        self._pose_tables: Optional[tuple] = None

    @property
    def t_start(self) -> float:
        return self.segments[0].t0

    @property
    def t_end(self) -> float:
        return self.segments[-1].t1

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def strokes(self) -> List[StrokeTrace]:
        return [s.trace for s in self.segments if s.kind == "stroke" and s.trace is not None]

    def stroke_intervals(self) -> List[Tuple[float, float]]:
        """Ground-truth (t0, t1) of every stroke, for segmentation scoring."""
        return [(s.t0, s.t1) for s in self.segments if s.kind == "stroke"]

    def adjustment_intervals(self) -> List[Tuple[float, float]]:
        return [(s.t0, s.t1) for s in self.segments if s.kind == "adjust"]

    def hand_pose_at(self, t: float) -> Optional[HandPose]:
        """The scene callback for :meth:`repro.rfid.Reader.collect`."""
        for idx, seg in enumerate(self.segments):
            if seg.t0 <= t <= seg.t1:
                if seg.kind == "absent":
                    return None
                samples = seg.trace.samples if seg.trace is not None else seg.path
                if not samples:
                    return None
                times = self._seg_times.get(idx)
                if times is None:
                    times = self._seg_times[idx] = [s.t for s in samples]
                return HandPose(
                    position=_interpolate(samples, t, times),
                    arm_length=self.user.arm_length / 2.0,
                )
        return None

    def pose_at_many(self, times: "np.ndarray") -> "PoseTrack":
        """Vectorized :meth:`hand_pose_at`: one :class:`PoseTrack` for a whole
        batch of query times.

        Positions are bit-identical to the scalar clock.  One
        ``searchsorted`` over the segments' running end times picks each
        time's segment by the same first-match rule (a time on a bound
        two segments share belongs to the earlier one).  The segments'
        samples lie in time order end to end, so one ``searchsorted`` over
        all of them, clamped to the segment's own samples, reproduces
        ``bisect.bisect_right`` within it; the clamped linear interpolation
        evaluates ``a + (b - a) * frac`` with the scalar ``Vec3.lerp``
        operand order (degenerate rows — before the first sample, after
        the last, zero-length intervals — select the endpoint sample
        directly rather than re-deriving it arithmetically).

        A batch of at most :data:`_SCALAR_BATCH` times runs the scalar
        clock once per time instead, which costs less at that size.
        """
        tq = np.ascontiguousarray(times, dtype=float)
        if tq.size <= _SCALAR_BATCH:
            return PoseTrack.from_poses(tq, [self.hand_pose_at(t) for t in tq.tolist()])
        t0, t1_run, first, count, st, pos, template = self._pose_arrays()
        seg = np.minimum(np.searchsorted(t1_run, tq, side="left"), t0.size - 1)
        present = (t0[seg] <= tq) & (tq <= t1_run[seg]) & (count[seg] > 0)
        xyz = np.zeros((tq.size, 3))
        template_idx = np.where(present, 0, -1)
        if present.any():
            # Rows without a hand interpolate on sample 0 and are dropped.
            lo = np.where(present, first[seg], 0)
            n = np.where(present, count[seg], 1)
            i = np.clip(np.searchsorted(st, tq, side="right") - lo, 0, n)
            a = lo + np.maximum(i - 1, 0)
            b = lo + np.minimum(i, n - 1)
            ta = st[a]
            denom = st[b] - ta
            safe = (denom != 0.0) & (i > 0) & (i < n)
            frac = np.where(safe, (tq - ta) / np.where(safe, denom, 1.0), 0.0)
            pa = pos[a]
            interp = pa + (pos[b] - pa) * frac[:, None]
            xyz[present] = np.where(safe[:, None], interp, pa)[present]
        return PoseTrack(tq, present, xyz, [template], template_idx)

    def _pose_arrays(self) -> tuple:
        """The segment and sample tables :meth:`pose_at_many` searches, built
        once per script: segment start times, running end times (the
        first segment whose running end reaches a time is the first whose
        own end does), each segment's first sample and sample count (0 when
        no hand is present), all samples' times and positions end to end,
        and the pose template."""
        if self._pose_tables is None:
            starts, counts, st, pos = [], [], [], []
            for seg in self.segments:
                samples = () if seg.kind == "absent" else (
                    seg.trace.samples if seg.trace is not None else seg.path
                )
                starts.append(len(st))
                counts.append(len(samples))
                st.extend(p.t for p in samples)
                pos.extend(p.position.as_tuple() for p in samples)
            st_np = np.array(st)
            if np.any(st_np[1:] < st_np[:-1]):
                raise ValueError("segment samples must lie in time order")
            self._pose_tables = (
                np.array([seg.t0 for seg in self.segments]),
                np.maximum.accumulate([seg.t1 for seg in self.segments]),
                np.array(starts),
                np.array(counts),
                st_np,
                np.array(pos).reshape(-1, 3),
                HandPose(position=Vec3(0.0, 0.0, 0.0), arm_length=self.user.arm_length / 2.0),
            )
        return self._pose_tables

    def true_trajectory(self, dt: float = 1.0 / 30.0) -> List[TimedPoint]:
        """Dense ground-truth trajectory (used by the simulated Kinect)."""
        out: List[TimedPoint] = []
        t = self.t_start
        while t <= self.t_end + 1e-9:
            pose = self.hand_pose_at(t)
            if pose is not None:
                out.append(TimedPoint(t, pose.position))
            t += dt
        return out


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------


def script_for_motion(
    motion: Motion,
    rng: np.random.Generator,
    user: UserProfile = DEFAULT_USER,
    pad_extent: float = 0.24,
    lead_in: float = 0.6,
    lead_out: float = 0.6,
    box_center: Tuple[float, float] = (0.0, 0.0),
    speed: Optional[float] = None,
) -> WritingScript:
    """A single-motion session: quiet pad, one stroke, quiet pad.

    This is the workload of the motion-detection experiments (Table I,
    Figs. 16-21): the stroke spans most of the pad.
    """
    spd = speed if speed is not None else user.speed
    trace = generate_stroke(
        motion,
        rng,
        box_center=box_center,
        box_size=(pad_extent, pad_extent),
        speed=spd,
        hover_height=user.hover_height,
        jitter=user.jitter,
        t_start=lead_in,
    )
    segments = [
        Segment(0.0, lead_in, "absent"),
        Segment(trace.t_start, trace.t_end, "stroke", trace=trace),
        Segment(trace.t_end, trace.t_end + lead_out, "absent"),
    ]
    return WritingScript(segments, label=motion.label, user=user)


def _adjustment_path(
    rng: np.random.Generator,
    start: Vec3,
    end: Vec3,
    user: UserProfile,
    t0: float,
    duration: float,
    n: int = 20,
) -> Tuple[TimedPoint, ...]:
    """Raised repositioning path between two strokes (an arch in z)."""
    pts = []
    for i in range(n):
        frac = i / (n - 1)
        base = start.lerp(end, frac)
        # Arch: rise quickly to the raised height, come down at the end.
        lift = math.sin(math.pi * frac)
        z = base.z + (user.raised_height - base.z) * lift
        wobble = rng.normal(0.0, user.jitter * 0.5, size=2)
        pts.append(
            TimedPoint(
                t0 + duration * frac,
                Vec3(base.x + wobble[0], base.y + wobble[1], z),
            )
        )
    return tuple(pts)


def script_for_strokes(
    specs: Sequence[StrokeSpec],
    label: str,
    rng: np.random.Generator,
    user: UserProfile = DEFAULT_USER,
    pad_box: float = 0.27,
    lead_in: float = 0.6,
    lead_out: float = 0.6,
) -> WritingScript:
    """Write an arbitrary stroke-spec sequence scaled onto the pad.

    ``pad_box`` is the side of the square writing area (metres) centred on
    the array origin; letter-box coordinates (0..1) are mapped into it.
    """
    if not specs:
        raise ValueError("need at least one stroke spec")

    def to_pad(xy: Tuple[float, float]) -> Tuple[float, float]:
        return ((xy[0] - 0.5) * pad_box, (xy[1] - 0.5) * pad_box)

    segments: List[Segment] = [Segment(0.0, lead_in, "absent")]
    t = lead_in
    prev_end: Optional[Vec3] = None
    for spec in specs:
        start_xy, end_xy = to_pad(spec.start), to_pad(spec.end)
        if prev_end is not None:
            # Adjustment interval: raise, reposition, pause.
            duration = max(0.3, user.adjustment_time * float(rng.normal(1.0, 0.12)))
            target = Vec3(start_xy[0], start_xy[1], user.hover_height)
            path = _adjustment_path(rng, prev_end, target, user, t, duration)
            segments.append(Segment(t, t + duration, "adjust", path=path))
            t += duration
        trace = generate_line_between(
            rng,
            start_xy,
            end_xy,
            kind=spec.kind,
            direction=spec.direction,
            speed=user.speed,
            hover_height=user.hover_height,
            jitter=user.jitter,
            t_start=t,
            opening=spec.opening,
        )
        segments.append(Segment(trace.t_start, trace.t_end, "stroke", trace=trace))
        t = trace.t_end
        last = trace.samples[-1].position
        prev_end = last
    segments.append(Segment(t, t + lead_out, "absent"))
    return WritingScript(segments, label=label, user=user)


def script_for_letter(
    letter: str,
    rng: np.random.Generator,
    user: UserProfile = DEFAULT_USER,
    pad_box: float = 0.27,
    lead_in: float = 0.6,
    lead_out: float = 0.6,
) -> WritingScript:
    """Write one capital letter over the pad (the Fig. 22/23 workload)."""
    letter = letter.upper()
    if letter not in LETTER_STROKES:
        raise KeyError(f"no decomposition for {letter!r}")
    return script_for_strokes(
        LETTER_STROKES[letter], letter, rng, user=user, pad_box=pad_box,
        lead_in=lead_in, lead_out=lead_out,
    )


def script_for_word(
    word: str,
    rng: np.random.Generator,
    user: UserProfile = DEFAULT_USER,
    pad_box: float = 0.27,
    letter_pause_s: float = 2.2,
    lead_in: float = 0.6,
    lead_out: float = 0.6,
) -> WritingScript:
    """Write a word: letters in sequence, with a long pause (hand lifted
    off the pad entirely) between letters.

    The inter-letter pause is what the word layer's clustering keys on --
    it must exceed the inter-*stroke* adjustment time by a clear margin.
    """
    word = word.upper()
    if not word:
        raise ValueError("word must be non-empty")
    for ch in word:
        if ch not in LETTER_STROKES:
            raise KeyError(f"no decomposition for {ch!r}")

    segments: List[Segment] = []
    t = 0.0
    for i, ch in enumerate(word):
        letter_script = script_for_letter(
            ch, rng, user=user, pad_box=pad_box,
            lead_in=lead_in if i == 0 else 0.0,
            lead_out=lead_out if i == len(word) - 1 else 0.0,
        )
        for seg in letter_script.segments:
            if seg.t1 - seg.t0 <= 0.0:
                continue
            segments.append(
                Segment(
                    seg.t0 + t,
                    seg.t1 + t,
                    seg.kind,
                    trace=_shift_trace(seg.trace, t),
                    path=_shift_path(seg.path, t),
                )
            )
        t += letter_script.duration
        if i < len(word) - 1:
            pause = max(1.2, letter_pause_s * float(rng.normal(1.0, 0.1)))
            segments.append(Segment(t, t + pause, "absent"))
            t += pause
    return WritingScript(segments, label=word, user=user)


def _shift_trace(trace: Optional[StrokeTrace], dt: float) -> Optional[StrokeTrace]:
    if trace is None or dt == 0.0:
        return trace
    shifted = tuple(TimedPoint(s.t + dt, s.position) for s in trace.samples)
    return StrokeTrace(trace.kind, trace.direction, shifted, trace.opening)


def _shift_path(path: Tuple[TimedPoint, ...], dt: float) -> Tuple[TimedPoint, ...]:
    if not path or dt == 0.0:
        return path
    return tuple(TimedPoint(p.t + dt, p.position) for p in path)
