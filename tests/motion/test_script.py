import numpy as np
import pytest

from repro.motion.script import (
    Segment,
    WritingScript,
    script_for_letter,
    script_for_motion,
    script_for_strokes,
)
from repro.motion.strokes import Motion, StrokeKind
from repro.motion.user import user_by_id


class TestMotionScript:
    def test_structure(self, rng):
        script = script_for_motion(Motion(StrokeKind.HBAR), rng)
        kinds = [s.kind for s in script.segments]
        assert kinds == ["absent", "stroke", "absent"]
        assert script.duration > 1.0

    def test_hand_absent_in_lead_in(self, rng):
        script = script_for_motion(Motion(StrokeKind.VBAR), rng, lead_in=0.5)
        assert script.hand_pose_at(0.2) is None
        t0, t1 = script.stroke_intervals()[0]
        assert script.hand_pose_at((t0 + t1) / 2) is not None

    def test_hand_absent_after_end(self, rng):
        script = script_for_motion(Motion(StrokeKind.VBAR), rng)
        assert script.hand_pose_at(script.t_end + 1.0) is None

    def test_user_speed_respected(self, rng):
        slow = script_for_motion(Motion(StrokeKind.HBAR), rng, user=user_by_id(3))
        fast = script_for_motion(Motion(StrokeKind.HBAR), rng, user=user_by_id(6))
        assert slow.stroke_intervals()[0][1] - slow.stroke_intervals()[0][0] > (
            fast.stroke_intervals()[0][1] - fast.stroke_intervals()[0][0]
        )


class TestLetterScript:
    def test_stroke_count_matches_decomposition(self, rng):
        script = script_for_letter("H", rng)
        assert len(script.stroke_intervals()) == 3
        assert len(script.adjustment_intervals()) == 2
        assert script.label == "H"

    def test_adjustment_raises_hand(self, rng):
        script = script_for_letter("T", rng)
        (a0, a1) = script.adjustment_intervals()[0]
        mid_pose = script.hand_pose_at((a0 + a1) / 2)
        assert mid_pose is not None
        assert mid_pose.position.z > 0.1

    def test_strokes_near_pad_plane(self, rng):
        script = script_for_letter("Z", rng)
        for t0, t1 in script.stroke_intervals():
            pose = script.hand_pose_at((t0 + t1) / 2)
            assert pose.position.z < 0.06

    def test_unknown_letter(self, rng):
        with pytest.raises(KeyError):
            script_for_letter("?", rng)

    def test_trajectory_continuous_between_segments(self, rng):
        script = script_for_letter("L", rng)
        # Sampling at segment boundaries should not teleport.
        prev = None
        for t in np.arange(script.t_start + 0.7, script.t_end - 0.7, 0.02):
            pose = script.hand_pose_at(float(t))
            if pose is None:
                prev = None
                continue
            if prev is not None:
                assert prev.distance_to(pose.position) < 0.08
            prev = pose.position


class TestValidation:
    def test_segments_must_not_overlap(self, rng):
        s1 = Segment(0.0, 1.0, "absent")
        s2 = Segment(0.5, 2.0, "absent")
        with pytest.raises(ValueError):
            WritingScript([s1, s2], label="x")

    def test_empty_script_rejected(self):
        with pytest.raises(ValueError):
            WritingScript([], label="x")

    def test_reversed_segment_rejected(self):
        with pytest.raises(ValueError):
            Segment(1.0, 0.5, "stroke")

    def test_script_for_strokes_requires_specs(self, rng):
        with pytest.raises(ValueError):
            script_for_strokes([], "x", rng)


def test_true_trajectory_samples_only_present_hand(rng):
    script = script_for_letter("I", rng)
    traj = script.true_trajectory()
    assert traj, "trajectory must not be empty"
    assert all(p.t >= 0.0 for p in traj)
    # lead-in has no hand, so the first sample comes later than t=0.3
    assert traj[0].t > 0.3
