"""``workspace``: seam-crossing letters on a 2x1 tiled workspace.

Each op writes one letter across the seam of a 2x1 workspace (NLOS,
location 2): ``Workspace.collect_tiles`` collects it, each tile's log is
streamed through ``WorkspaceSession.ingest_tile`` in 0.1 s chunks
interleaved by time, and ``WorkspaceRunner.stitched_trajectory_error``
scores the merged log.  Letters follow a seeded permutation of A-Z, in
whole passes until ``seconds`` have passed; each pass is a slice (see
``Pass``).  Op ``i`` runs on workspace ``i mod WORKSPACES``, as accuracy
and cost vary strongly between seeded deployments.  Each 0.1 s interval
(every tile's ``ingest_tile`` for it) and each ``finalize`` is a latency
sample.
"""

from __future__ import annotations

import math
import time
from typing import List

import numpy as np

from . import CHUNK_S, Pass, derived_seed, outcome
from .stream import note_call

TILES_X = 2
WORKSPACES = 4
CHECK_SAMPLE = 8
#: Host-speed reference bursts after each op (see ``Pass.lap``).
BURSTS_PER_OP = 2
#: Tail percentile of the latency samples (thousands per run).
TAIL_Q = 99.0


def setup(seed: int, size: str):
    from repro.sim.runner import WorkspaceRunner
    from repro.sim.scenario import ScenarioConfig
    from repro.sim.workspace import WorkspaceConfig, build_workspace

    runners = []
    for k in range(1 if size == "tiny" else WORKSPACES):
        base = ScenarioConfig(seed=derived_seed(seed, k), mount="nlos", location=2)
        runners.append(WorkspaceRunner(
            build_workspace(WorkspaceConfig(base=base, tiles_x=TILES_X))))
    return runners


def prepare(runners, seed: int, size: str, corrupt: bool):
    from repro.motion.letters import LETTER_STROKES

    letters = sorted(LETTER_STROKES)
    order = np.random.default_rng(derived_seed(seed, 100)).permutation(len(letters))
    letters = [letters[i] for i in order]
    if size == "tiny":
        letters = letters[:2]
    # Ops checked against batch, drawn from the first pass (every run
    # makes it).  Op 0 is always checked: it is the one a corrupted run
    # damages.
    rng = np.random.default_rng(derived_seed(seed, 101))
    checked = {int(i) for i in rng.choice(len(letters), size=min(CHECK_SAMPLE, len(letters)),
                                          replace=False)} | {0}
    return {"letters": letters, "checked": checked, "corrupt": corrupt}


def intervals(tile_logs):
    """Per 0.1 s interval, in time order: ``[(tile, chunk, t_hi), ...]``
    with every tile's chunk for it, as a multiplexed reader reports them.

    ``t_hi`` vouches for every read before the chunk's end, which lets
    the watermark merge release reads as a live reader would.
    """
    busy = [log for log in tile_logs if len(log)]
    if not busy:
        return []
    t = min(log.start_time for log in busy)
    t_end = max(log.end_time for log in busy)
    out = []
    while t <= t_end:
        t_hi = math.nextafter(t + CHUNK_S, -math.inf)
        out.append([(tile, log.slice_time(t, t + CHUNK_S), t_hi)
                    for tile, log in enumerate(tile_logs)])
        t += CHUNK_S
    return out


def _corrupted(runner, tile_logs, steps):
    """``steps`` without the chunk of each tile that closes the first stroke
    (a tile alone may not move the merged window)."""
    from repro.rfid.reports import merge_logs

    first = runner.pad.recognize_letter(merge_logs(tile_logs)).windows[0]
    inside = [step for step in steps
              if any(len(chunk) and chunk.start_time < first.t1 for _, chunk, _ in step)]
    inside[-1].clear()
    return steps


def run(runners, inputs, seconds: float, size: str) -> Pass:
    from repro.motion import script as script_mod
    from repro.rfid.reports import merge_logs
    from repro.stream import WorkspaceSession

    letters = inputs["letters"]
    out = Pass()
    out.start()
    i = 0
    while True:
        truth = letters[i % len(letters)]
        runner = runners[i % len(runners)]
        workspace = runner.workspace
        script = script_mod.script_for_letter(truth, runner.rng)
        tile_logs = workspace.collect_tiles(script.duration, script)
        steps = intervals(tile_logs)
        if inputs["corrupt"] and i == 0:
            steps = _corrupted(runner, tile_logs, steps)
        session = WorkspaceSession(runner.pad, workspace.tile_count)
        for step in steps:
            start = time.perf_counter()
            events = [ev for tile, chunk, t_hi in step
                      for ev in session.ingest_tile(tile, chunk, t_hi=t_hi)]
            wall_ms = 1e3 * (time.perf_counter() - start)
            out.chunk_ms.append(wall_ms)
            note_call(out, events, wall_ms)
        start = time.perf_counter()
        events = session.finalize()
        note_call(out, events, 1e3 * (time.perf_counter() - start))
        merged = merge_logs(tile_logs)
        err = runner.stitched_trajectory_error(merged, script)
        letter = session.letter_result.letter
        out.attempted += 1
        out.correct += letter == truth
        if err is not None:
            out.stitch_cm.append(100.0 * err)
        if i in inputs["checked"]:
            out.outputs[i] = (runner, merged,
                              outcome(letter, session.windows, session.strokes))
        out.lap(BURSTS_PER_OP)
        i += 1
        # Whole passes over the alphabet keep every slice's letter mix equal.
        if i % len(letters) == 0:
            out.end_slice()
            if size == "tiny" or out.elapsed_s() >= seconds:
                break
    out.stop()
    return out


def check(runners, inputs, phase: Pass, seed: int, size: str) -> List[str]:
    """For the ops drawn in ``prepare``, the streamed letter, windows and
    strokes equal ``recognize_letter`` on the merged log."""
    errors = []
    for i in sorted(inputs["checked"]):
        runner, merged, got = phase.outputs[i]
        batch = runner.pad.recognize_letter(merged)
        want = outcome(batch.letter, batch.windows, batch.strokes)
        if got != want:
            errors.append(
                f"op {i}: streamed output differs from batch (letter "
                f"{got[0]!r} vs {want[0]!r}, {len(got[1])} vs {len(want[1])} windows)"
            )
    return errors
