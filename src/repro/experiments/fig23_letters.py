"""Fig. 23 — recognition accuracy over the full alphabet, grouped by
stroke count (1: C,I; 2: D..X; 3: A..Z; 4: E,M,W).

The paper reports ~91% average.  Our simulated pad reproduces the shape:
high accuracy overall, with the single-stroke group easiest and accuracy
generally decreasing as strokes (and segmentation chances) compound.
"""

from __future__ import annotations

import numpy as np

from ..motion.letters import ALPHABET, letters_by_stroke_count
from ..sim.runner import SessionRunner
from ..sim.scenario import ScenarioConfig, build_scenario
from .base import ExperimentResult, register


@register("fig23")
def run(fast: bool = True, seed: int = 7) -> ExperimentResult:
    repeats = 2 if fast else 10
    runner = SessionRunner(build_scenario(ScenarioConfig(seed=seed)))
    # Alongside the paper's grammar pipeline, score the hybrid with the
    # holistic fallback (the paper's own section-VI proposal) on the same
    # segmented strokes — it quantifies how much of the letter-accuracy
    # gap is compounding stroke errors.
    from ..core.holistic import HolisticRecognizer, HybridRecognizer
    from ..motion.script import script_for_letter

    hybrid = HybridRecognizer(
        runner.pad.grammar, HolisticRecognizer(runner.scenario.layout)
    )

    per_letter = {}
    per_letter_hybrid = {}
    for letter in ALPHABET:
        hits = 0
        hybrid_hits = 0
        for _ in range(repeats):
            script = script_for_letter(letter, runner.rng)
            result = runner.pad.recognize_letter(runner.run_script(script))
            hits += result.letter == letter
            hybrid_hits += hybrid.recognize(result.strokes, result.windows).letter == letter
        per_letter[letter] = hits / repeats
        per_letter_hybrid[letter] = hybrid_hits / repeats

    rows = [
        {
            "letter": letter,
            "accuracy": per_letter[letter],
            "hybrid_accuracy": per_letter_hybrid[letter],
        }
        for letter in ALPHABET
    ]
    groups = letters_by_stroke_count()
    group_acc = {}
    for count, letters in sorted(groups.items()):
        group_acc[count] = float(np.mean([per_letter[l] for l in letters]))
        rows.append(
            {
                "letter": f"group {count}-stroke",
                "accuracy": group_acc[count],
                "hybrid_accuracy": float(
                    np.mean([per_letter_hybrid[l] for l in letters])
                ),
            }
        )
    average = float(np.mean(list(per_letter.values())))
    hybrid_average = float(np.mean(list(per_letter_hybrid.values())))
    rows.append(
        {"letter": "average", "accuracy": average, "hybrid_accuracy": hybrid_average}
    )

    met = (
        average >= 0.70
        and all(acc >= 0.5 for acc in group_acc.values())
        and hybrid_average >= average - 0.02
    )
    return ExperimentResult(
        experiment_id="fig23",
        title="Letter recognition accuracy (26 letters, 4 groups)",
        rows=rows,
        expectation=(
            "high average accuracy (paper ~0.91; simulated pad >= 0.70) and "
            "every stroke-count group usable (>= 0.5)"
        ),
        expectation_met=met,
    )
