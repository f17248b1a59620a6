"""Fig. 21 — CDF of the time needed to complete/recognise each stroke.

The paper plots, per motion, the distribution of time used to correctly
recognise it: ~90% of clicks, "−", "|", "/" finish within 2 s, and "⊂"
takes longer (longer path).  The stroke time in our pipeline is the
segmented window duration of a correctly recognised motion.
"""

from __future__ import annotations

import numpy as np

from ..motion.strokes import Motion, StrokeKind
from ..sim.metrics import percentile
from ..sim.runner import SessionRunner
from ..sim.scenario import ScenarioConfig, build_scenario
from .base import ExperimentResult, register


@register("fig21")
def run(fast: bool = True, seed: int = 7) -> ExperimentResult:
    repeats = 6 if fast else 40
    runner = SessionRunner(build_scenario(ScenarioConfig(seed=seed)))
    motions = {
        "click": Motion(StrokeKind.CLICK),
        "−": Motion(StrokeKind.HBAR),
        "|": Motion(StrokeKind.VBAR),
        "/": Motion(StrokeKind.SLASH),
        "⊂": Motion(StrokeKind.ARC_C),
    }

    rows = []
    p90 = {}
    for name, motion in motions.items():
        durations = []
        for _ in range(repeats):
            trial = runner.run_motion(motion)
            if trial.fully_correct and trial.observed is not None:
                durations.append(trial.observed.duration)
        if not durations:
            p90[name] = float("inf")
            rows.append({"motion": name, "samples": 0, "p50_s": "", "p90_s": ""})
            continue
        p90[name] = percentile(durations, 90.0)
        rows.append(
            {
                "motion": name,
                "samples": len(durations),
                "p50_s": percentile(durations, 50.0),
                "p90_s": p90[name],
            }
        )

    simple = [p90[k] for k in ("click", "−", "|", "/") if np.isfinite(p90[k])]
    met = bool(simple) and max(simple) <= 2.5 and p90["⊂"] >= np.median(simple)
    return ExperimentResult(
        experiment_id="fig21",
        title="Stroke completion-time distribution (CDF summary)",
        rows=rows,
        expectation=(
            "~90% of click/−/|// strokes complete within ~2 s; ⊂ takes "
            "longer (longer trail)"
        ),
        expectation_met=met,
    )
