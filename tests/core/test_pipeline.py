import pytest

from repro.core.pipeline import RFIPad
from repro.motion.script import script_for_letter, script_for_motion
from repro.motion.strokes import Direction, Motion, StrokeKind
from repro.physics.geometry import GridLayout
from repro.rfid.reports import ReportLog


def test_uncalibrated_pad_raises(shared_runner):
    pad = RFIPad(GridLayout())
    with pytest.raises(RuntimeError):
        pad.detect_motion(ReportLog())


def test_calibrate_from_tunes_threshold(shared_runner):
    pad = RFIPad(shared_runner.scenario.layout)
    static = shared_runner.reader.collect_static(3.0)
    default_thr = pad.config.segmentation.threshold
    pad.calibrate_from(static)
    assert pad.calibration is not None
    assert pad.config.segmentation.threshold != default_thr
    assert pad.config.segmentation.noise_floor > 0.0


def test_detect_motion_vbar(shared_runner):
    script = script_for_motion(Motion(StrokeKind.VBAR, Direction.FORWARD),
                               shared_runner.rng)
    log = shared_runner.run_script(script)
    obs = shared_runner.pad.detect_motion(log)
    assert obs is not None
    assert obs.kind is StrokeKind.VBAR
    assert obs.direction is Direction.FORWARD
    assert obs.grey is not None and obs.binary is not None
    assert obs.trough_order  # ordering recovered


def test_detect_motion_on_quiet_log(shared_runner):
    log = shared_runner.reader.collect_static(1.5)
    obs = shared_runner.pad.detect_motion(log)
    # A quiet pad must not hallucinate a stroke shape with spread foreground:
    # either nothing is returned or the result is a low-stakes compact blob.
    if obs is not None:
        assert obs.kind is StrokeKind.CLICK or obs.binary.foreground_count() <= 25


def test_analyze_window_respects_bounds(shared_runner):
    script = script_for_motion(Motion(StrokeKind.HBAR), shared_runner.rng)
    log = shared_runner.run_script(script)
    t0, t1 = script.stroke_intervals()[0]
    obs = shared_runner.pad.analyze_window(log, t0, t1)
    assert obs is not None
    assert obs.t0 == t0 and obs.t1 == t1


def test_recognize_letter_end_to_end(shared_runner):
    script = script_for_letter("T", shared_runner.rng)
    log = shared_runner.run_script(script)
    result = shared_runner.pad.recognize_letter(log)
    assert result.letter == "T"
    assert len(result.strokes) == 2
    assert result.candidates[0][0] == "T"


def test_calibrate_from_returns_tuned_config(shared_runner):
    pad = RFIPad(shared_runner.scenario.layout)
    static = shared_runner.reader.collect_static(3.0)
    tuned = pad.calibrate_from(static)
    assert tuned is pad.config.segmentation
    assert tuned.threshold > 0.0
    assert tuned.noise_floor > 0.0
    untouched = RFIPad(shared_runner.scenario.layout)
    default_thr = untouched.config.segmentation.threshold
    returned = untouched.calibrate_from(static, tune_segmentation=False)
    assert returned.threshold == default_thr


def test_widest_window_prefers_earliest_on_ties():
    from repro.core.events import SegmentedWindow
    from repro.core.stages import widest_window

    a = SegmentedWindow(t0=1.0, t1=2.0, peak_std_rms=0.5)
    b = SegmentedWindow(t0=3.0, t1=4.0, peak_std_rms=0.9)
    c = SegmentedWindow(t0=5.0, t1=5.5, peak_std_rms=0.1)
    assert widest_window([c, b, a]) is a  # equal durations: earliest t0 wins
    wide = SegmentedWindow(t0=6.0, t1=9.0, peak_std_rms=0.2)
    assert widest_window([a, b, wide]) is wide


def test_suppression_toggle_changes_result_values(shared_runner):
    from repro.core.suppression import accumulative_differences

    script = script_for_motion(Motion(StrokeKind.VBAR), shared_runner.rng)
    log = shared_runner.run_script(script)
    supp = accumulative_differences(log, shared_runner.pad.calibration)
    assert supp.raw != supp.suppressed
