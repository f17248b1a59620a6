"""Print one sha256 per simulated report log, to show that collection is
bit-identical between two checkouts.

    python3 scripts/log_digest.py > here.txt
    python3 scripts/log_digest.py --src /path/to/other/checkout/src > there.txt
    diff here.txt there.txt

``--src`` picks the ``repro`` package to import (default: this checkout's
``src/``).  The fixed set covers seeds 1-3 x NLOS/LOS x locations 1-4.
Per deployment it hashes the calibration log, the serial motion and letter
batteries (one shared RNG stream, solo ``Reader.collect``) and
``run_motion_batch``/``run_letter_batch`` over per-trial streams (the
trial-axis ``collect_batch`` path); then the per-tile logs of one letter
collected by a 2x1 workspace (``Workspace.collect_tiles``) per mount.
Every column is hashed by value, the EPC strings included.  Takes under a
minute on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

SEEDS = (1, 2, 3)
MOUNTS = ("nlos", "los")
LOCATIONS = (1, 2, 3, 4)
#: Every other letter: a spread of one- to four-stroke letters.
LETTERS = "ACEGIKMOQSUWY"
WORKSPACE_LETTER = "L"


def digest(log) -> str:
    """sha256 over a report log's columns, by value."""
    import numpy as np

    h = hashlib.sha256()
    *numeric, epcs = log.columns()
    for col in numeric:
        arr = np.ascontiguousarray(col)
        h.update(arr.dtype.str.encode())
        h.update(arr.tobytes())
    # An object column's tobytes() would hash pointers, not the strings.
    h.update("\x1f".join(str(epc) for epc in epcs).encode())
    return h.hexdigest()


def deployment_lines(seed: int, mount: str, location: int):
    from repro.motion.strokes import all_motions
    from repro.motion.user import DEFAULT_USER
    from repro.sim.parallel import trial_rng
    from repro.sim.runner import SessionRunner
    from repro.sim.scenario import ScenarioConfig, build_scenario

    tag = f"seed={seed} {mount} loc={location}"
    runner = SessionRunner(
        build_scenario(ScenarioConfig(seed=seed, mount=mount, location=location))
    )
    yield f"{tag} calibration {digest(runner.static_log)}"
    motions = all_motions()
    for i, trial in enumerate(runner.run_motion_battery(motions, 1, workers=0, collect_logs=True)):
        yield f"{tag} motion-serial {i:02d} {trial.truth.label} {digest(trial.log)}"
    for i, trial in enumerate(runner.run_letter_battery(LETTERS, 1, workers=0, collect_logs=True)):
        yield f"{tag} letter-serial {i:02d} {trial.truth} {digest(trial.log)}"
    items = [(m, DEFAULT_USER, None, trial_rng(seed, i)) for i, m in enumerate(motions)]
    for i, trial in enumerate(runner.run_motion_batch(items, keep_logs=True)):
        yield f"{tag} motion-batch {i:02d} {trial.truth.label} {digest(trial.log)}"
    items = [
        (c, DEFAULT_USER, trial_rng(seed, len(motions) + i)) for i, c in enumerate(LETTERS)
    ]
    for i, trial in enumerate(runner.run_letter_batch(items, keep_logs=True)):
        yield f"{tag} letter-batch {i:02d} {trial.truth} {digest(trial.log)}"


def workspace_lines(mount: str):
    import numpy as np

    from repro.motion.script import script_for_letter
    from repro.sim.scenario import ScenarioConfig
    from repro.sim.workspace import WorkspaceConfig, build_workspace

    base = ScenarioConfig(seed=SEEDS[0], mount=mount, location=2)
    workspace = build_workspace(WorkspaceConfig(base=base, tiles_x=2))
    script = script_for_letter(WORKSPACE_LETTER, np.random.default_rng(SEEDS[0]))
    for k, log in enumerate(workspace.collect_tiles(script.duration, script)):
        yield f"workspace 2x1 {mount} {WORKSPACE_LETTER} tile={k} {digest(log)}"


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src", default=os.path.join(here, os.pardir, "src"),
        help="directory holding the repro package to digest (default: this checkout's src/)",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    for seed in SEEDS:
        for mount in MOUNTS:
            for location in LOCATIONS:
                for line in deployment_lines(seed, mount, location):
                    print(line, flush=True)
    for mount in MOUNTS:
        for line in workspace_lines(mount):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
