import pytest

from repro.motion.strokes import (
    ArcOpening,
    Direction,
    Motion,
    StrokeKind,
    all_motions,
    default_opening,
    generate_click,
    generate_line_between,
    generate_stroke,
    stroke_skeleton,
)
from repro.physics.geometry import Vec3, path_length


def test_thirteen_motions():
    motions = all_motions()
    assert len(motions) == 13
    assert motions[0].kind is StrokeKind.CLICK
    # Every non-click kind appears with both directions.
    labelled = {(m.kind, m.direction) for m in motions[1:]}
    assert len(labelled) == 12


def test_motion_labels_unique():
    labels = [m.label for m in all_motions()]
    assert len(set(labels)) == 13


class TestSkeletons:
    def test_hbar_goes_right(self):
        sk = stroke_skeleton(StrokeKind.HBAR)
        assert sk[-1][0] > sk[0][0]
        assert sk[0][1] == pytest.approx(sk[-1][1])

    def test_vbar_goes_down(self):
        sk = stroke_skeleton(StrokeKind.VBAR)
        assert sk[-1][1] < sk[0][1]

    def test_slash_positive_slope(self):
        sk = stroke_skeleton(StrokeKind.SLASH)
        dx = sk[-1][0] - sk[0][0]
        dy = sk[-1][1] - sk[0][1]
        assert dx > 0 and dy > 0

    def test_arc_c_opens_right(self):
        sk = stroke_skeleton(StrokeKind.ARC_C)
        xs = [p[0] for p in sk]
        # Gap faces right: no point enters the rightmost band of the box.
        assert max(xs) < 0.99
        assert min(xs) < 0.1

    def test_click_has_no_skeleton(self):
        with pytest.raises(ValueError):
            stroke_skeleton(StrokeKind.CLICK)

    def test_default_openings(self):
        assert default_opening(StrokeKind.ARC_C) is ArcOpening.RIGHT
        assert default_opening(StrokeKind.ARC_D) is ArcOpening.LEFT
        assert default_opening(StrokeKind.HBAR) is None


class TestGenerateStroke:
    def test_reverse_flips_endpoints(self, rng):
        fwd = generate_stroke(Motion(StrokeKind.HBAR, Direction.FORWARD), rng, jitter=0.0)
        rev = generate_stroke(Motion(StrokeKind.HBAR, Direction.REVERSE), rng, jitter=0.0)
        assert fwd.samples[0].position.x < fwd.samples[-1].position.x
        assert rev.samples[0].position.x > rev.samples[-1].position.x

    def test_duration_scales_with_speed(self, rng):
        slow = generate_stroke(Motion(StrokeKind.HBAR), rng, speed=0.1)
        fast = generate_stroke(Motion(StrokeKind.HBAR), rng, speed=0.4)
        assert slow.duration > fast.duration

    def test_times_monotonic(self, rng):
        trace = generate_stroke(Motion(StrokeKind.ARC_C), rng)
        times = [s.t for s in trace.samples]
        assert times == sorted(times)
        assert trace.t_start == pytest.approx(0.0)

    def test_hover_height_respected(self, rng):
        trace = generate_stroke(Motion(StrokeKind.VBAR), rng, hover_height=0.05, jitter=0.0)
        zs = [s.position.z for s in trace.samples]
        assert all(abs(z - 0.05) < 0.01 for z in zs)

    def test_box_scaling(self, rng):
        trace = generate_stroke(
            Motion(StrokeKind.HBAR), rng, box_center=(0.1, -0.05), box_size=(0.1, 0.1), jitter=0.0
        )
        xs = [s.position.x for s in trace.samples]
        assert min(xs) >= 0.1 - 0.06
        assert max(xs) <= 0.1 + 0.06

    def test_speed_validation(self, rng):
        with pytest.raises(ValueError):
            generate_stroke(Motion(StrokeKind.HBAR), rng, speed=0.0)


class TestClick:
    def test_click_descends_and_retracts(self, rng):
        trace = generate_click(rng, Vec3(0, 0, 0))
        zs = [s.position.z for s in trace.samples]
        assert min(zs) < 0.04
        assert zs[0] > 0.1 and zs[-1] > 0.1

    def test_click_stays_above_target(self, rng):
        trace = generate_click(rng, Vec3(0.03, -0.06, 0), jitter=0.0)
        assert all(abs(s.position.x - 0.03) < 0.01 for s in trace.samples)


class TestLineBetween:
    def test_line_connects_endpoints(self, rng):
        trace = generate_line_between(
            rng, (0.0, 0.0), (0.1, 0.1), StrokeKind.SLASH, Direction.FORWARD, jitter=0.0
        )
        start, end = trace.samples[0].position, trace.samples[-1].position
        assert start.distance_to(Vec3(0, 0, start.z)) < 0.005
        assert end.distance_to(Vec3(0.1, 0.1, end.z)) < 0.005

    def test_arc_bulges_off_chord(self, rng):
        trace = generate_line_between(
            rng, (0.0, 0.1), (0.0, -0.1), StrokeKind.ARC_C, Direction.FORWARD, jitter=0.0
        )
        xs = [s.position.x for s in trace.samples]
        # "⊂" between two points on the y axis bulges towards -x.
        assert min(xs) < -0.05

    def test_arc_longer_than_chord(self, rng):
        arc = generate_line_between(
            rng, (0.0, 0.1), (0.0, -0.1), StrokeKind.ARC_C, Direction.FORWARD, jitter=0.0
        )
        assert path_length(arc.points()) > 0.25  # chord is 0.2
