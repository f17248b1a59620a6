import numpy as np
import pytest

from repro.core.segmentation import (
    SegmentationConfig,
    auto_threshold,
    frame_rms,
    segment_strokes,
    window_std,
)
from repro.motion.script import script_for_letter, script_for_motion
from repro.motion.strokes import Motion, StrokeKind
from repro.rfid.reports import ReportLog


def test_window_std_sliding():
    rms = np.array([0.0, 0.0, 0.0, 5.0, 5.0, 5.0])
    stds = window_std(rms, 3)
    assert stds[0] == 0.0
    assert stds[1] > 1.0  # window [1,4) sees the jump
    assert stds[-1] == 0.0  # single trailing frame


def test_frame_rms_empty_log(shared_runner):
    times, rms = frame_rms(ReportLog(), shared_runner.pad.calibration)
    assert times.size == 0 and rms.size == 0


def test_frame_rms_quiet_vs_active(shared_runner):
    script = script_for_motion(Motion(StrokeKind.VBAR), shared_runner.rng)
    log = shared_runner.run_script(script)
    times, rms = frame_rms(log, shared_runner.pad.calibration)
    t0, t1 = script.stroke_intervals()[0]
    active = rms[(times >= t0) & (times < t1)]
    quiet = rms[times < t0 - 0.15]
    assert active.mean() > 10 * max(quiet.mean(), 1e-3)


def test_single_motion_segmented(shared_runner):
    script = script_for_motion(Motion(StrokeKind.HBAR), shared_runner.rng)
    log = shared_runner.run_script(script)
    windows = segment_strokes(log, shared_runner.pad.calibration,
                              shared_runner.pad.config.segmentation)
    assert len(windows) == 1
    t0, t1 = script.stroke_intervals()[0]
    assert windows[0].t0 < t0 + 0.3
    assert windows[0].t1 > t1 - 0.3


def test_letter_h_three_windows(shared_runner):
    script = script_for_letter("H", shared_runner.rng)
    log = shared_runner.run_script(script)
    windows = segment_strokes(log, shared_runner.pad.calibration,
                              shared_runner.pad.config.segmentation)
    assert len(windows) == 3


def test_static_log_no_windows(shared_runner):
    log = shared_runner.reader.collect_static(2.0)
    windows = segment_strokes(log, shared_runner.pad.calibration,
                              shared_runner.pad.config.segmentation)
    assert windows == []


def test_min_stroke_filter(shared_runner):
    config = SegmentationConfig(
        threshold=shared_runner.pad.config.segmentation.threshold,
        noise_floor=shared_runner.pad.config.segmentation.noise_floor,
        min_stroke_s=99.0,
    )
    script = script_for_motion(Motion(StrokeKind.HBAR), shared_runner.rng)
    log = shared_runner.run_script(script)
    assert segment_strokes(log, shared_runner.pad.calibration, config) == []


def test_auto_threshold_above_static_noise(shared_runner):
    static = shared_runner.reader.collect_static(3.0)
    thr = auto_threshold(static, shared_runner.pad.calibration)
    times, rms = frame_rms(static, shared_runner.pad.calibration)
    stds = window_std(rms, 5)
    assert thr > np.percentile(stds, 95)


def test_auto_threshold_short_capture_rejected(shared_runner):
    static = shared_runner.reader.collect_static(0.2)
    with pytest.raises(ValueError):
        auto_threshold(static, shared_runner.pad.calibration)


def test_config_validation():
    with pytest.raises(ValueError):
        SegmentationConfig(frame_s=0.0)
    with pytest.raises(ValueError):
        SegmentationConfig(window_frames=1)
    with pytest.raises(ValueError):
        SegmentationConfig(threshold=-0.1)


# ----------------------------------------------------------------------
# Cross-tile window stitching (workspace layer, DESIGN.md §15).


def _w(t0, t1, peak=1.0):
    from repro.core.events import SegmentedWindow

    return SegmentedWindow(t0=t0, t1=t1, peak_std_rms=peak)


def test_stitch_empty_and_single_tile_passthrough():
    from repro.core.segmentation import stitch_windows

    assert stitch_windows([]) == []
    assert stitch_windows([[], []]) == []
    windows = [_w(0.1, 0.5), _w(1.0, 1.4)]
    assert stitch_windows([windows]) == windows


def test_stitch_merges_overlapping_windows_across_tiles():
    from repro.core.segmentation import stitch_windows

    merged = stitch_windows([[_w(0.1, 0.6, peak=2.0)], [_w(0.4, 0.9, peak=3.0)]])
    assert len(merged) == 1
    assert merged[0].t0 == 0.1
    assert merged[0].t1 == 0.9
    assert merged[0].peak_std_rms == 3.0  # max over the merged pair


def test_stitch_merges_nearly_adjacent_keeps_distant():
    from repro.core.segmentation import stitch_windows

    gap = SegmentationConfig().merge_gap_s
    merged = stitch_windows(
        [[_w(0.0, 0.5), _w(5.0, 5.5)], [_w(0.5 + gap / 2, 1.0)]]
    )
    assert len(merged) == 2
    assert (merged[0].t0, merged[0].t1) == (0.0, 1.0)
    assert (merged[1].t0, merged[1].t1) == (5.0, 5.5)


def test_stitch_handles_nested_windows():
    from repro.core.segmentation import stitch_windows

    merged = stitch_windows([[_w(0.0, 2.0, peak=1.0)], [_w(0.5, 1.0, peak=4.0)]])
    assert merged == [_w(0.0, 2.0, peak=4.0)]


def test_stitch_output_sorted_and_disjoint():
    from repro.core.segmentation import stitch_windows

    rng = np.random.default_rng(5)
    tiles = []
    for _ in range(3):
        starts = np.sort(rng.uniform(0.0, 20.0, size=8))
        tiles.append([_w(float(t0), float(t0 + rng.uniform(0.2, 1.5))) for t0 in starts])
    gap = SegmentationConfig().merge_gap_s
    merged = stitch_windows(tiles)
    for prev, cur in zip(merged, merged[1:]):
        assert cur.t0 > prev.t1 + gap
    # Every input window lies inside some stitched window.
    for tile in tiles:
        for w in tile:
            assert any(m.t0 <= w.t0 and w.t1 <= m.t1 for m in merged)
