"""Fig. 16 — detection accuracy at four locations, with and without the
diversity-suppression algorithm.

Suppression helps everywhere and helps *most* at the multipath-richest
location #4 (paper: 75% -> 93% there).
"""

from __future__ import annotations

from ..core.pipeline import RFIPadConfig
from ..motion.strokes import all_motions
from ..sim.metrics import score_motion_trials
from ..sim.runner import SessionRunner
from ..sim.scenario import ScenarioConfig, build_scenario
from .base import ExperimentResult, register


@register("fig16")
def run(fast: bool = True, seed: int = 7) -> ExperimentResult:
    repeats = 2 if fast else 30
    motions = all_motions()

    rows = []
    gains = {}
    accs = {}
    for location in (1, 2, 3, 4):
        per_mode = {}
        for suppress in (False, True):
            config = RFIPadConfig(diversity_suppression=suppress)
            runner = SessionRunner(
                build_scenario(ScenarioConfig(seed=seed, location=location)),
                pipeline_config=config,
            )
            trials = runner.run_motion_battery(motions, repeats)
            per_mode[suppress] = score_motion_trials(trials).accuracy
        gains[location] = per_mode[True] - per_mode[False]
        accs[location] = per_mode
        rows.append(
            {
                "location": location,
                "without_suppression": per_mode[False],
                "with_suppression": per_mode[True],
                "gain": gains[location],
            }
        )

    met = (
        all(gains[loc] >= -0.05 for loc in gains)          # never clearly hurts
        and gains[4] >= max(gains[1], 0.0)                  # biggest win where multipath is richest
        and accs[4][True] > accs[4][False]
    )
    return ExperimentResult(
        experiment_id="fig16",
        title="Accuracy vs location, with/without diversity suppression",
        rows=rows,
        expectation=(
            "suppression improves accuracy in all locations; largest gain at "
            "multipath-richest location #4"
        ),
        expectation_met=met,
    )
