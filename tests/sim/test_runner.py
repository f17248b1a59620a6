from repro.motion.strokes import Direction, Motion, StrokeKind
from repro.sim.metrics import score_motion_trials
from repro.sim.runner import MotionTrial


def test_runner_calibrates_on_construction(shared_runner):
    assert shared_runner.pad.calibration is not None
    assert len(shared_runner.static_log) > 100


def test_run_motion_returns_scored_trial(shared_runner):
    trial = shared_runner.run_motion(Motion(StrokeKind.VBAR))
    assert trial.truth.kind is StrokeKind.VBAR
    assert trial.log_size > 50
    assert trial.detected


def test_click_direction_always_correct_when_detected(shared_runner):
    trial = shared_runner.run_motion(Motion(StrokeKind.CLICK))
    if trial.shape_correct:
        assert trial.direction_correct


def test_motion_battery_size(shared_runner):
    motions = [Motion(StrokeKind.HBAR), Motion(StrokeKind.VBAR)]
    trials = shared_runner.run_motion_battery(motions, repeats=2)
    assert len(trials) == 4


def test_battery_accuracy_reasonable(shared_runner):
    motions = [
        Motion(StrokeKind.HBAR, Direction.FORWARD),
        Motion(StrokeKind.VBAR, Direction.FORWARD),
        Motion(StrokeKind.SLASH, Direction.FORWARD),
    ]
    counts = score_motion_trials(shared_runner.run_motion_battery(motions, 3))
    assert counts.accuracy >= 0.7


def test_run_letter_trial_fields(shared_runner):
    trial = shared_runner.run_letter("T")
    assert trial.truth == "T"
    assert len(trial.true_stroke_intervals) == 2
    assert trial.true_stroke_tokens == ("hbar", "vbar")


def test_letter_battery(shared_runner):
    trials = shared_runner.run_letter_battery(["I", "L"], repeats=1)
    assert [t.truth for t in trials] == ["I", "L"]


def test_motion_trial_scoring_logic():
    trial = MotionTrial(truth=Motion(StrokeKind.HBAR), observed=None, log_size=0)
    assert not trial.detected
    assert not trial.fully_correct
