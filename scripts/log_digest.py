"""Print one sha256 per simulated report log, to show that collection is
bit-identical between two checkouts.

    python3 scripts/log_digest.py > here.txt
    python3 scripts/log_digest.py --src /path/to/other/checkout/src > there.txt
    diff here.txt there.txt

``--src`` picks the ``repro`` package to import (default: this checkout's
``src/``).  The fixed set covers seeds 1-3 x NLOS/LOS x locations 1-4.
Per deployment it hashes the calibration log, the serial motion and letter
batteries (one shared RNG stream) and the same motions and letters on
per-trial streams, as pool workers run them (``run_seeded_trial``: motion
i on ``trial_rng(seed, i)``, letter i on ``trial_rng(seed, 13 + i)``).
Those lines keep their ``motion-batch``/``letter-batch`` labels from when
a lane batch collected them, so output compares across checkouts, and
``--src`` may point at a checkout older than ``run_seeded_trial``.  Then,
per mount, it hashes the per-tile logs
(``Workspace.collect_tiles``) of one letter on a fresh 2x1 workspace, of a
2x1 session (its calibration collect, then three consecutive letters, so
RNG and Doppler state carry between collects) and of one 2x2 letter.
Every column is hashed by value, the EPC strings included.

After each trial log's line comes a ``decision`` line: one sha256 over
what the recognizer returns on that log, batch (``detect_motion`` for a
motion, ``recognize_letter`` for a letter, whose segmentation is the
``StreamSegmenter`` fed the whole log as one chunk) and streamed (a
``StreamingSession`` fed 0.1 s chunks).  It covers the windows; per stroke
its kind, direction, token, window, confidence, opening, features, grey and
binary bytes, Otsu threshold, trough order and line angle; and the letter
with its candidates.  The 2x1 session's letters get decision lines too,
from a pad calibrated on the session's calibration collect; the single 2x1
and 2x2 letters have no calibration collect, so they get none.  Floats are
hashed through ``repr``, which round-trips every bit.  Takes about three
minutes on a 2-vCPU host.
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
#: Letters collected one after another on the same workspace.
SESSION_LETTERS = "TAK"
#: ``WorkspaceRunner``'s calibration collect.
CALIBRATION_S = 3.0


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


def _stroke_repr(obs) -> str:
    from dataclasses import astuple

    if obs is None:
        return "None"
    return repr((
        obs.kind.name, obs.direction.name, obs.token, obs.t0, obs.t1,
        obs.confidence, obs.opening.name if obs.opening is not None else None,
        astuple(obs.features) if obs.features is not None else None,
        obs.grey.values.tobytes() if obs.grey is not None else None,
        obs.binary.mask.tobytes() if obs.binary is not None else None,
        obs.binary.threshold if obs.binary is not None else None,
        obs.trough_order, obs.line_angle_deg,
    ))


def _letter_repr(result) -> str:
    return repr((
        result.letter, result.candidates,
        [(w.t0, w.t1, w.peak_std_rms) for w in result.windows],
        [_stroke_repr(s) for s in result.strokes],
    ))


def decision(pad, log, motion: bool) -> str:
    """sha256 over the batch and streamed recognizer outputs on one log."""
    from repro.sim.live import stream_log
    from repro.stream import StreamingSession
    from repro.stream.session import StrokeEvent

    h = hashlib.sha256()
    if motion:
        h.update(_stroke_repr(pad.detect_motion(log)).encode())
    else:
        h.update(_letter_repr(pad.recognize_letter(log)).encode())
    session = StreamingSession(pad)
    for event in stream_log(pad, log, 0.1, session=session):
        if isinstance(event, StrokeEvent):
            h.update(repr((event.window.t0, event.window.t1,
                           event.window.peak_std_rms, event.emitted_at)).encode())
            h.update(_stroke_repr(event.stroke).encode())
    h.update(_letter_repr(session.letter_result).encode())
    if motion:
        h.update(_stroke_repr(session.motion_result()).encode())
    return h.hexdigest()


def _seeded_trial():
    """``repro.sim.parallel.run_seeded_trial``, or its two steps where the
    checkout predates it."""
    try:
        from repro.sim.parallel import run_seeded_trial
    except ImportError:
        from repro.sim.parallel import trial_rng

        def run_seeded_trial(runner, kind, index, item, user, keep_log=False):
            runner.reseed(trial_rng(runner.scenario.config.seed, index))
            run = runner.run_motion if kind == "motion" else runner.run_letter
            return run(item, user=user, keep_log=keep_log)

    return run_seeded_trial


def deployment_lines(seed: int, mount: str, location: int):
    from repro.motion.strokes import all_motions
    from repro.motion.user import DEFAULT_USER
    from repro.sim.runner import SessionRunner
    from repro.sim.scenario import ScenarioConfig, build_scenario

    tag = f"seed={seed} {mount} loc={location}"
    runner = SessionRunner(
        build_scenario(ScenarioConfig(seed=seed, mount=mount, location=location))
    )
    pad = runner.pad
    yield f"{tag} calibration {digest(runner.static_log)}"
    motions = all_motions()
    for i, trial in enumerate(runner.run_motion_battery(motions, 1, workers=0, collect_logs=True)):
        line = f"{tag} motion-serial {i:02d} {trial.truth.label}"
        yield f"{line} {digest(trial.log)}"
        yield f"{line} decision {decision(pad, trial.log, motion=True)}"
    for i, trial in enumerate(runner.run_letter_battery(LETTERS, 1, workers=0, collect_logs=True)):
        line = f"{tag} letter-serial {i:02d} {trial.truth}"
        yield f"{line} {digest(trial.log)}"
        yield f"{line} decision {decision(pad, trial.log, motion=False)}"
    run_seeded_trial = _seeded_trial()
    for i, motion in enumerate(motions):
        trial = run_seeded_trial(runner, "motion", i, motion, DEFAULT_USER, keep_log=True)
        line = f"{tag} motion-batch {i:02d} {trial.truth.label}"
        yield f"{line} {digest(trial.log)}"
        yield f"{line} decision {decision(pad, trial.log, motion=True)}"
    for i, letter in enumerate(LETTERS):
        trial = run_seeded_trial(
            runner, "letter", len(motions) + i, letter, DEFAULT_USER, keep_log=True
        )
        line = f"{tag} letter-batch {i:02d} {trial.truth}"
        yield f"{line} {digest(trial.log)}"
        yield f"{line} decision {decision(pad, trial.log, motion=False)}"


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


def workspace_session_lines(mount: str):
    import numpy as np

    from repro.core.pipeline import RFIPad
    from repro.motion.script import script_for_letter
    from repro.rfid.reports import merge_logs
    from repro.sim.scenario import ScenarioConfig
    from repro.sim.workspace import WorkspaceConfig, build_workspace

    base = ScenarioConfig(seed=SEEDS[1], mount=mount, location=2)
    workspace = build_workspace(WorkspaceConfig(base=base, tiles_x=2))
    tag = f"workspace-session 2x1 {mount}"
    static = workspace.collect_tiles(CALIBRATION_S)
    for k, log in enumerate(static):
        yield f"{tag} calibration tile={k} {digest(log)}"
    pad = RFIPad(workspace.combined_layout)
    pad.calibrate_from(merge_logs(static))
    for i, letter in enumerate(SESSION_LETTERS):
        script = script_for_letter(letter, workspace.rng)
        tiles = workspace.collect_tiles(script.duration, script)
        for k, log in enumerate(tiles):
            yield f"{tag} {i:02d} {letter} tile={k} {digest(log)}"
        merged = merge_logs(tiles)
        yield f"{tag} {i:02d} {letter} decision {decision(pad, merged, motion=False)}"
    base = ScenarioConfig(seed=SEEDS[2], mount=mount, location=2)
    workspace = build_workspace(WorkspaceConfig(base=base, tiles_x=2, tiles_y=2))
    script = script_for_letter(WORKSPACE_LETTER, np.random.default_rng(SEEDS[2]))
    for k, log in enumerate(workspace.collect_tiles(script.duration, script)):
        yield f"workspace 2x2 {mount} {WORKSPACE_LETTER} tile={k} {digest(log)}"


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
    for mount in MOUNTS:
        for line in workspace_session_lines(mount):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
