import numpy as np
import pytest

from repro.physics.geometry import Vec3
from repro.physics.hand import (
    HandPose,
    SightLines,
    hand_height_profile,
    occlusion_loss_db_rows,
)

from .read_oracles import occlusion_loss_db, point_to_segment_distance


def test_scatterers_include_hand_and_arm():
    pose = HandPose(Vec3(0, 0, 0.03))
    scs = pose.scatterers()
    assert len(scs) == 4  # hand + 3 arm points
    assert scs[0].detune_rad > 0.0
    assert all(s.detune_rad == 0.0 for s in scs[1:])  # only the hand detunes
    assert all(s.shadow_depth_db == 0.0 for s in scs[1:])


def test_scatterers_without_arm():
    pose = HandPose(Vec3(0, 0, 0.03))
    assert len(pose.scatterers(include_arm=False)) == 1


def test_arm_points_rise_away_from_pad():
    pose = HandPose(Vec3(0, 0, 0.03))
    pts = pose.arm_points()
    assert all(p.z > pose.position.z for p in pts)
    assert pts[-1].z > pts[0].z


def test_arm_rcs_split_across_points():
    pose = HandPose(Vec3(0, 0, 0.03))
    arm = pose.scatterers()[1:]
    assert sum(s.rcs_m2 for s in arm) == pytest.approx(pose.arm_rcs_m2)
    # body_rcs() is the same column, aligned with body_offsets().
    assert pose.body_rcs().tolist() == [s.rcs_m2 for s in pose.scatterers()]


def test_point_to_segment_distance():
    a, b = Vec3(0, 0, 0), Vec3(2, 0, 0)
    assert point_to_segment_distance(Vec3(1, 1, 0), a, b) == pytest.approx(1.0)
    assert point_to_segment_distance(Vec3(-1, 0, 0), a, b) == pytest.approx(1.0)
    assert point_to_segment_distance(Vec3(3, 0, 0), a, b) == pytest.approx(1.0)
    # Degenerate segment.
    assert point_to_segment_distance(Vec3(1, 0, 0), a, a) == pytest.approx(1.0)


def test_occlusion_none_without_pose():
    assert occlusion_loss_db(Vec3(0, 0, 1), Vec3(0, 0, 0), None) == 0.0


def test_occlusion_strong_when_hand_on_los():
    antenna = Vec3(0, 0.3, 1.1)
    tag = Vec3(0, 0, 0)
    on_line = HandPose(antenna.lerp(tag, 0.8))
    off_line = HandPose(Vec3(0.5, -0.3, 0.05))
    assert occlusion_loss_db(antenna, tag, on_line) > 5.0
    assert occlusion_loss_db(antenna, tag, off_line) < 1.0
    # The production per-read kernel agrees.
    lines = SightLines.between(antenna, np.array([tag.as_tuple()]))
    body = np.stack([
        np.array(pose.position.as_tuple()) + pose.body_offsets()
        for pose in (on_line, off_line)
    ])
    on, off = occlusion_loss_db_rows(lines, np.array([0, 0]), body)
    assert on > 5.0 and off < 1.0


def test_height_profile_grows_with_speed():
    assert hand_height_profile(0.6) > hand_height_profile(0.2)
    assert hand_height_profile(0.1) == pytest.approx(0.03)
