"""``stream``: the recognizer used incrementally, with no physics timed.

A corpus of seeded letter sessions (A-Z on each of ``DEPLOYMENTS``
seeded NLOS location-2 deployments) is simulated before timing.  The phase replays the corpus in
a seeded order, whole passes until ``seconds`` have passed, each session
through a fresh ``StreamingSession`` in 0.1 s chunks and then
``finalize``.  An op is one letter session.  Every ``ingest`` and
``finalize`` call is a latency sample: the wall time until the call
returned its events.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from . import CHUNK_S, Pass, derived_seed, drop_closing_chunk, outcome

#: Seeded deployments the corpus is drawn from (cost varies by deployment).
DEPLOYMENTS = 4
#: Tail percentile of the latency samples (tens of thousands per run).
TAIL_Q = 99.0
#: Corpus sessions whose streamed output is checked against batch.
CHECK_SAMPLE = 8


def deployment(seed: int, k: int):
    """The ``k``-th calibrated NLOS location-2 deployment of ``seed``."""
    from repro.sim.runner import SessionRunner
    from repro.sim.scenario import ScenarioConfig, build_scenario

    return SessionRunner(build_scenario(ScenarioConfig(
        seed=derived_seed(seed, k), mount="nlos", location=2,
    )))


def setup(seed: int, size: str):
    return [deployment(seed, k) for k in range(1 if size == "tiny" else DEPLOYMENTS)]


def letters_for(size: str) -> List[str]:
    from repro.motion.letters import LETTER_STROKES

    letters = sorted(LETTER_STROKES)
    return letters[:3] if size == "tiny" else letters


def simulate(runner, letters: List[str]):
    """Collect one log per letter on ``runner``; returns (truth, log) pairs."""
    from repro.motion.script import script_for_letter

    return [
        (letter, runner.run_script(script_for_letter(letter, runner.rng)))
        for letter in letters
    ]


def chunked(log) -> list:
    from repro.sim.live import iter_chunks

    return list(iter_chunks(log, CHUNK_S))


def prepare(runners, seed: int, size: str, corrupt: bool):
    """Sessions as (deployment index, truth, log, chunks)."""
    sessions = [
        (k, letter, log, chunked(log))
        for k, runner in enumerate(runners)
        for letter, log in simulate(runner, letters_for(size))
    ]
    if corrupt:
        k, letter, log, chunks = sessions[0]
        first = runners[k].pad.recognize_letter(log).windows[0]
        sessions[0] = (k, letter, log, drop_closing_chunk(chunks, first))
    return {"sessions": sessions, "order_seed": derived_seed(seed, 100)}


def note_call(out: Pass, events, wall_ms: float) -> None:
    """Record one ingest/finalize call: its wall time and the stream-time
    decision lag of the final stroke events it returned."""
    out.latencies_ms.append(wall_ms)
    for ev in events:
        window = getattr(ev, "window", None)
        if ev.final and window is not None:
            out.lags_ms.append(1e3 * (ev.emitted_at - window.t1))


def run(runners, inputs, seconds: float, size: str) -> Pass:
    from repro.stream import StreamingSession

    sessions = inputs["sessions"]
    order_rng = np.random.default_rng(inputs["order_seed"])
    out = Pass()
    results = {}
    out.start()
    while True:
        for idx in order_rng.permutation(len(sessions)):
            k, truth, _log, chunks = sessions[idx]
            session = StreamingSession(runners[k].pad)
            for chunk in chunks:
                start = time.perf_counter()
                events = session.ingest(chunk)
                wall_ms = 1e3 * (time.perf_counter() - start)
                out.chunk_ms.append(wall_ms)
                note_call(out, events, wall_ms)
            start = time.perf_counter()
            events = session.finalize()
            note_call(out, events, 1e3 * (time.perf_counter() - start))
            letter = session.letter_result.letter
            out.attempted += 1
            out.correct += letter == truth
            results.setdefault(int(idx), set()).add(
                outcome(letter, session.windows, session.strokes)
            )
            out.lap()
        out.end_slice()
        if size == "tiny" or out.elapsed_s() >= seconds:
            break
    out.stop()
    out.outputs = results
    return out


def check(runners, inputs, phase: Pass, seed: int, size: str) -> List[str]:
    """Replays agree, and for a seeded sample the letter, windows and
    strokes equal batch ``recognize_letter`` on the same log."""
    sessions = inputs["sessions"]
    errors = []
    for idx, outcomes in sorted(phase.outputs.items()):
        if len(outcomes) != 1:
            errors.append(f"session {idx}: replays disagree: {sorted(outcomes)}")
    rng = np.random.default_rng(derived_seed(seed, 101))
    sample = rng.choice(len(sessions), size=min(CHECK_SAMPLE, len(sessions)),
                        replace=False)
    # Session 0 is always checked: it is the one a corrupted run damages.
    for idx in sorted({int(i) for i in sample} | {0}):
        if idx not in phase.outputs:
            continue
        k, _truth, log, _chunks = sessions[idx]
        batch = runners[k].pad.recognize_letter(log)
        want = outcome(batch.letter, batch.windows, batch.strokes)
        got = next(iter(phase.outputs[idx]))
        if got != want:
            errors.append(
                f"session {idx}: streamed output differs from batch (letter "
                f"{got[0]!r} vs {want[0]!r}, {len(got[1])} vs {len(want[1])} windows)"
            )
    return errors
