"""``battery``: the offline trial batteries behind every ``repro run``.

Motion batteries (13 motions) and letter batteries go through
``SessionRunner.run_motion_battery`` / ``run_letter_battery`` with the
default worker setting, on NLOS and Table I LOS deployments at location
2.  Battery cost depends on the deployment (LOS letters cost 1.8x more
on some seeds than on others), so a run spreads over ``PAIRS`` seeded
(NLOS, LOS) pairs.  A round gives each deployment the 13 motions and
half of the alphabet (the halves alternate between pairs).  It is cut
into ``SLICES`` slices (see ``Pass``) that each have the round's full
mix: in slice ``j`` both deployments of pair ``p`` run the motions and
letters at positions ``i`` with ``(i + p) % SLICES == j``, so every
slice runs every deployment, and each motion once on each mount.  The
phase runs whole slices until ``seconds`` have passed.  An op is one
trial; each slice is one latency sample: its wall time per trial.
"""

from __future__ import annotations

import sys
import traceback
from typing import List

from . import Pass, derived_seed

MOUNTS = ("nlos", "los")
#: Seeded (NLOS, LOS) deployment pairs per run.
PAIRS = 6
#: Slices per round.  Equal to ``PAIRS`` (and even), so every slice runs
#: each motion once per mount and 13 letters per mount.
SLICES = 6
REPEATS = 1
#: Host-speed reference bursts after each battery call (see ``Pass.lap``).
BURSTS_PER_CALL = 2
#: Tail percentile of the latency samples (a few slices per run).
TAIL_Q = 90.0


def setup(seed: int, size: str):
    """``[(nlos_runner, los_runner), ...]``, calibrated."""
    from repro.sim.runner import SessionRunner
    from repro.sim.scenario import ScenarioConfig, build_scenario

    return [
        tuple(
            SessionRunner(build_scenario(ScenarioConfig(
                seed=derived_seed(seed, 2 * pair + m), mount=mount, location=2,
            )))
            for m, mount in enumerate(MOUNTS)
        )
        for pair in range(1 if size == "tiny" else PAIRS)
    ]


def prepare(pairs, seed: int, size: str, corrupt: bool):
    from repro.motion.letters import LETTER_STROKES
    from repro.motion.strokes import all_motions

    motions, letters = all_motions(), sorted(LETTER_STROKES)
    if size == "tiny":
        motions, letters = motions[:2], letters[:2]
    half = (len(letters) + 1) // 2
    return {
        "motions": motions,
        "halves": [letters[:half], letters[half:]],
        "slices": 1 if size == "tiny" else SLICES,
        "corrupt": corrupt,
    }


def slice_calls(pairs, inputs, j: int):
    """Slice ``j``'s battery calls: ``(runner, kind, items)``."""
    n = inputs["slices"]
    calls = []
    for p, runners in enumerate(pairs):
        motions = [m for i, m in enumerate(inputs["motions"]) if (i + p) % n == j]
        letters = [c for i, c in enumerate(inputs["halves"][p % 2]) if (i + p) % n == j]
        for runner in runners:
            calls += [(runner, "motion", motions), (runner, "letter", letters)]
    return [call for call in calls if call[2]]


def run(pairs, inputs, seconds: float, size: str) -> Pass:
    out = Pass()
    returned: List[tuple] = []
    out.start()
    j = 0
    while True:
        for runner, kind, items in slice_calls(pairs, inputs, j % inputs["slices"]):
            expected = [item if kind == "motion" else item.upper()
                        for item in items for _ in range(REPEATS)]
            out.attempted += len(expected)
            try:
                if kind == "motion":
                    trials = runner.run_motion_battery(items, REPEATS)
                else:
                    trials = runner.run_letter_battery(items, REPEATS)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                out.failed += len(expected)
                trials = []
            out.correct += sum(
                t.fully_correct if kind == "motion" else t.correct for t in trials
            )
            returned.append((kind, expected, [t.truth for t in trials]))
            out.lap(BURSTS_PER_CALL)
        out.end_slice()
        j += 1
        if size == "tiny" or out.elapsed_s() >= seconds:
            break
    out.stop()
    if inputs["corrupt"] and returned:
        kind, expected, truths = returned[0]
        returned[0] = (kind, expected, truths[1:])
    out.outputs["returned"] = returned
    return out


def check(pairs, inputs, phase: Pass, seed: int, size: str) -> List[str]:
    """Every requested trial came back, in the requested order."""
    errors = []
    for i, (kind, expected, truths) in enumerate(phase.outputs["returned"]):
        if len(truths) != len(expected):
            errors.append(
                f"{kind} battery call {i}: {len(truths)} of "
                f"{len(expected)} trials came back"
            )
        elif truths != expected:
            errors.append(f"{kind} battery call {i}: trials out of order")
    return errors
