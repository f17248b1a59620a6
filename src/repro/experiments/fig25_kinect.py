"""Fig. 25 — RFIPad vs Kinect ground truth while writing 'Z'.

The paper overlays the Kinect-tracked hand trajectory with RFIPad's grey
maps to show they are consistent.  We reproduce it quantitatively: the
simulated Kinect tracks the same session, and we check (a) the Kinect
trajectory deviates from the true hand path only by its joint noise, and
(b) RFIPad's per-stroke grey-map centroids lie on the corresponding
Kinect stroke segments.
"""

from __future__ import annotations

import numpy as np

from ..motion.kinect import KinectSimulator, trajectory_deviation
from ..motion.script import script_for_letter
from ..sim.runner import SessionRunner
from ..sim.scenario import ScenarioConfig, build_scenario
from .base import ExperimentResult, register


@register("fig25")
def run(fast: bool = True, seed: int = 7) -> ExperimentResult:
    runner = SessionRunner(build_scenario(ScenarioConfig(seed=seed)))
    script = script_for_letter("Z", runner.rng)
    log = runner.run_script(script)
    result = runner.pad.recognize_letter(log)

    kinect = KinectSimulator(np.random.default_rng(seed))
    track = kinect.track(script)
    deviation = trajectory_deviation(track, script.true_trajectory())

    layout = runner.scenario.layout
    centroid_errors = []
    for obs, (t0, t1) in zip(result.strokes, script.stroke_intervals()):
        if obs.features is None:
            continue
        cx, cy = obs.features.centroid  # cell units, y up
        pad_x = (cx - (layout.cols - 1) / 2.0) * layout.pitch
        pad_y = (cy - (layout.rows - 1) / 2.0) * layout.pitch
        # Closest distance from the grey-map centroid to the Kinect track
        # within that stroke's time span.
        pts = [
            p.position
            for p in track.positions()
            if t0 - 0.2 <= p.t <= t1 + 0.2
        ]
        if not pts:
            continue
        dist = min(
            ((p.x - pad_x) ** 2 + (p.y - pad_y) ** 2) ** 0.5 for p in pts
        )
        centroid_errors.append(dist)

    rows = [
        {"quantity": "kinect tracked fraction", "value": track.tracked_fraction()},
        {"quantity": "kinect-vs-truth deviation (m)", "value": deviation},
        {"quantity": "recognised letter", "value": str(result.letter)},
        {
            "quantity": "grey-map centroid to kinect track (m, mean)",
            "value": float(np.mean(centroid_errors)) if centroid_errors else float("nan"),
        },
    ]
    # Lead-in/lead-out segments have no hand over the pad, so the skeletal
    # stream legitimately loses the joint there (~0.6 s each end).
    met = (
        track.tracked_fraction() > 0.6
        and deviation < 0.02
        and bool(centroid_errors)
        and float(np.mean(centroid_errors)) < 0.08
    )
    return ExperimentResult(
        experiment_id="fig25",
        title="RFIPad grey maps vs Kinect skeletal track while writing 'Z'",
        rows=rows,
        expectation=(
            "kinect and RFIPad describe the same trajectory: joint noise "
            "~mm and grey-map centroids within one tag pitch of the track"
        ),
        expectation_met=met,
    )
