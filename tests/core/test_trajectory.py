import numpy as np
import pytest

from repro.core.direction import Trough, detect_troughs
from repro.core.trajectory import reconstruct_trajectory, trajectory_error
from repro.motion.script import script_for_motion
from repro.motion.strokes import Direction, Motion, StrokeKind
from repro.physics.geometry import GridLayout, Vec3

LAYOUT = GridLayout()


def _troughs(cells_times, depth=8.0):
    return [Trough(LAYOUT.index_of(r, c), t, depth) for (r, c), t in cells_times]


class TestReconstruct:
    def test_too_few_anchors(self):
        assert reconstruct_trajectory([], LAYOUT) is None
        assert reconstruct_trajectory(_troughs([((2, 2), 1.0)]), LAYOUT) is None

    def test_straight_sweep(self):
        troughs = _troughs([((2, c), 0.25 * c) for c in range(5)])
        est = reconstruct_trajectory(troughs, LAYOUT)
        assert est is not None
        # Path runs along y ~= 0 from left to right.
        assert est.points[0, 0] < est.points[-1, 0]
        assert np.all(np.abs(est.points[:, 1]) < 0.02)

    def test_position_at_interpolates(self):
        troughs = _troughs([((2, 0), 0.0), ((2, 4), 1.0)])
        est = reconstruct_trajectory(troughs, LAYOUT, smooth=1)
        x_mid, y_mid = est.position_at(0.5)
        assert x_mid == pytest.approx(0.0, abs=0.01)
        assert y_mid == pytest.approx(0.0, abs=0.01)

    def test_position_clamped_outside_span(self):
        troughs = _troughs([((2, 0), 0.0), ((2, 4), 1.0)])
        est = reconstruct_trajectory(troughs, LAYOUT, smooth=1)
        assert est.position_at(-5.0) == est.position_at(0.0)

    def test_path_length_of_sweep(self):
        troughs = _troughs([((2, c), 0.25 * c) for c in range(5)])
        est = reconstruct_trajectory(troughs, LAYOUT, smooth=1)
        assert est.path_length() == pytest.approx(0.24, abs=0.03)

    def test_unsorted_anchor_input(self):
        cells = [((2, c), 0.25 * c) for c in range(5)]
        est_sorted = reconstruct_trajectory(_troughs(cells), LAYOUT)
        est_shuffled = reconstruct_trajectory(_troughs(cells[::-1]), LAYOUT)
        assert np.allclose(est_sorted.points, est_shuffled.points)


class TestError:
    def test_perfect_reference(self):
        troughs = _troughs([((2, 0), 0.0), ((2, 4), 1.0)])
        est = reconstruct_trajectory(troughs, LAYOUT, smooth=1)
        reference = [
            (t, Vec3(-0.12 + 0.24 * t, 0.0, 0.03)) for t in np.linspace(0, 1, 20)
        ]
        assert trajectory_error(est, reference) < 0.01

    def test_no_overlap_raises(self):
        troughs = _troughs([((2, 0), 0.0), ((2, 4), 1.0)])
        est = reconstruct_trajectory(troughs, LAYOUT)
        with pytest.raises(ValueError):
            trajectory_error(est, [(5.0, Vec3(0, 0, 0))])


class TestEndToEnd:
    def test_tracks_a_real_stroke_within_a_tag_pitch(self, shared_runner):
        script = script_for_motion(
            Motion(StrokeKind.HBAR, Direction.FORWARD), shared_runner.rng
        )
        log = shared_runner.run_script(script)
        cal = shared_runner.pad.calibration
        troughs = detect_troughs(log, cal)
        est = reconstruct_trajectory(troughs, shared_runner.scenario.layout)
        assert est is not None
        reference = [(p.t, p.position) for p in script.true_trajectory(dt=0.05)]
        error = trajectory_error(est, reference)
        # Tag-pitch-resolution tracking: mean error under ~one pitch.
        assert error < 0.07
