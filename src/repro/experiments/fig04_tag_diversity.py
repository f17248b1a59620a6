"""Fig. 4 — per-tag mean static phase: tag diversity.

Each of the 25 tags is interrogated ~100 times with no hand present; the
mean phase of each tag scatters irregularly over [0, 2*pi) because of the
manufacture phase offset theta_tag (plus per-location path differences).
The shape check: the per-tag means cover a wide spread of the circle —
i.e. calibration is *necessary*, one global offset cannot fix them all.
"""

from __future__ import annotations

import numpy as np

from ..core.calibration import calibrate, circular_std
from ..sim.runner import SessionRunner
from ..sim.scenario import ScenarioConfig, build_scenario
from ..units import TWO_PI
from .base import ExperimentResult, register


@register("fig04")
def run(fast: bool = True, seed: int = 7) -> ExperimentResult:
    runner = SessionRunner(build_scenario(ScenarioConfig(seed=seed)))
    duration = 8.0 if fast else 20.0  # ~100+ reads per tag
    log = runner.reader.collect_static(duration)
    cal = calibrate(log)

    rows = []
    means = []
    for idx in cal.tag_indices():
        tc = cal.tags[idx]
        means.append(tc.central_phase)
        rows.append(
            {
                "tag": idx + 1,
                "mean_phase_rad": tc.central_phase,
                "reads": tc.sample_count,
            }
        )

    # Circular spread of the per-tag means: near-uniform coverage gives a
    # circular std well above what a single shared offset could explain.
    spread = circular_std(np.array(means))
    coverage = (max(means) - min(means)) / TWO_PI
    rows.append({"tag": "spread(circ std)", "mean_phase_rad": spread, "reads": ""})

    met = spread > 1.0 and coverage > 0.6
    return ExperimentResult(
        experiment_id="fig04",
        title="Average static phase per tag (tag diversity)",
        rows=rows,
        expectation=(
            "per-tag mean phases distribute irregularly across [0, 2*pi) "
            "(circular std > 1 rad; range covering most of the circle)"
        ),
        expectation_met=met,
    )
