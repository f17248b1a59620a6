"""Fig. 18 — recognition accuracy vs reader-to-tag-plane angle.

"−" and "|" motions over different rows/columns with the antenna panel
tilted -30/0/30/45 degrees relative to the tag plane.  Best at 0 degrees;
accuracy decreases as the tilt grows (uneven beam coverage).
"""

from __future__ import annotations

from ..motion.strokes import Direction, Motion, StrokeKind
from ..sim.metrics import score_motion_trials
from ..sim.runner import SessionRunner
from ..sim.scenario import ScenarioConfig, build_scenario
from .base import ExperimentResult, register


@register("fig18")
def run(fast: bool = True, seed: int = 7) -> ExperimentResult:
    repeats = 3 if fast else 10
    angles = (-30.0, 0.0, 30.0, 45.0)
    motions = [
        Motion(StrokeKind.HBAR, Direction.FORWARD),
        Motion(StrokeKind.HBAR, Direction.REVERSE),
        Motion(StrokeKind.VBAR, Direction.FORWARD),
        Motion(StrokeKind.VBAR, Direction.REVERSE),
    ]

    rows = []
    acc = {}
    for angle in angles:
        runner = SessionRunner(
            build_scenario(ScenarioConfig(seed=seed, reader_angle_deg=angle))
        )
        # Strokes over different rows and columns of the panel, as the
        # paper does: vary the stroke's centre line.
        trials = []
        offsets = (-0.06, 0.0, 0.06)
        for motion in motions:
            for off in offsets:
                for _ in range(repeats):
                    from ..motion.script import script_for_motion

                    centre = (0.0, off) if motion.kind is StrokeKind.HBAR else (off, 0.0)
                    script = script_for_motion(motion, runner.rng, box_center=centre)
                    log = runner.run_script(script)
                    observed = runner.pad.detect_motion(log)
                    from ..sim.runner import MotionTrial

                    trials.append(MotionTrial(motion, observed, len(log)))
        acc[angle] = score_motion_trials(trials).accuracy
        rows.append({"angle_deg": angle, "accuracy": acc[angle]})

    met = acc[0.0] >= max(acc[a] for a in angles) - 1e-9 and acc[0.0] > acc[45.0]
    return ExperimentResult(
        experiment_id="fig18",
        title="Accuracy vs reader-to-tag-plane angle",
        rows=rows,
        expectation="best accuracy at 0 degrees; degraded at 45 degrees",
        expectation_met=met,
    )
