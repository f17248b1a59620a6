import numpy as np
import pytest

from repro.motion.kinect import KinectSimulator, trajectory_deviation
from repro.motion.script import script_for_letter


@pytest.fixture()
def script(rng):
    return script_for_letter("Z", rng)


def test_frame_rate(rng, script):
    kinect = KinectSimulator(rng, frame_rate_hz=30.0, drop_probability=0.0)
    track = kinect.track(script)
    expected = int(script.duration * 30.0)
    assert abs(len(track.frames) - expected) <= 2


def test_tracked_fraction_reflects_absences(rng, script):
    kinect = KinectSimulator(rng, drop_probability=0.0)
    track = kinect.track(script)
    # lead-in/out are untracked, the rest tracked.
    assert 0.6 < track.tracked_fraction() < 1.0


def test_joint_noise_bounded(rng, script):
    kinect = KinectSimulator(rng, joint_noise_m=0.005, drop_probability=0.0)
    track = kinect.track(script)
    deviation = trajectory_deviation(track, script.true_trajectory(dt=1.0 / 60.0))
    assert deviation < 0.02


def test_zero_noise_tracks_exactly(rng, script):
    kinect = KinectSimulator(rng, joint_noise_m=0.0, drop_probability=0.0)
    track = kinect.track(script)
    deviation = trajectory_deviation(track, script.true_trajectory(dt=1.0 / 120.0))
    assert deviation < 0.005


def test_drops_reduce_tracked_fraction(script):
    low = KinectSimulator(np.random.default_rng(0), drop_probability=0.0).track(script)
    high = KinectSimulator(np.random.default_rng(0), drop_probability=0.4).track(script)
    assert high.tracked_fraction() < low.tracked_fraction()


def test_as_arrays_shape(rng, script):
    track = KinectSimulator(rng).track(script)
    times, xyz = track.as_arrays()
    assert xyz.shape == (times.size, 3)


def test_validation(rng):
    with pytest.raises(ValueError):
        KinectSimulator(rng, frame_rate_hz=0.0)
    with pytest.raises(ValueError):
        KinectSimulator(rng, drop_probability=1.0)


def test_trajectory_deviation_validates(rng, script):
    track = KinectSimulator(rng).track(script)
    with pytest.raises(ValueError):
        trajectory_deviation(track, [])
