"""Golden-stream equivalence: hub sessions are bit-identical to batch.

The serving contract (DESIGN.md §14) inherits the streaming contract
(§11): no matter how a session's reads are chunked, how its chunks
interleave with other tenants', or how the dispatcher coalesces and
batches them, the finalized window/stroke/letter stream is exactly — to
the float — what the batch pipeline computes on the whole log.
"""

import asyncio

import pytest

from repro.motion.script import script_for_letter
from repro.serve import HubConfig, LocalFeed, SessionHub
from repro.sim.live import iter_chunks
from repro.sim.runner import SessionRunner
from repro.sim.scenario import ScenarioConfig, build_scenario

from tests.stream.test_equivalence import assert_letter_equal, random_chunks


def run(coro):
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


LETTERS = ("T", "H", "L")


@pytest.fixture(scope="module")
def runner():
    # A fresh runner rather than the session-shared one: the shared
    # runner's RNG has been advanced by whichever tests ran first, so logs
    # drawn from it would depend on test order.
    return SessionRunner(build_scenario(ScenarioConfig(seed=7)))


@pytest.fixture(scope="module")
def letter_logs(runner):
    return {
        letter: runner.run_script(script_for_letter(letter, runner.rng))
        for letter in LETTERS
    }


def _hub_events(pad, feeds_chunks, batch_sessions=2):
    """Run N sessions through one hub, chunk lists interleaved round-robin."""

    async def main():
        hub = SessionHub(
            pad, HubConfig(port=0, batch_sessions=batch_sessions)
        )
        await hub.start(serve_network=False)
        feeds = [LocalFeed(hub, f"s{i}") for i in range(len(feeds_chunks))]
        remaining = [list(chunks) for chunks in feeds_chunks]
        while any(remaining):
            for feed, chunks in zip(feeds, remaining):
                if chunks:
                    await feed.feed(chunks.pop(0))
        results = []
        for feed in feeds:
            results.append(await feed.finalize())
        await hub.stop()
        return results

    return run(main())


def _final_windows_strokes_letter(events):
    windows = []
    strokes = []
    letter = None
    for ev in events:
        if not ev.final:
            continue
        if hasattr(ev, "window"):
            windows.append(ev.window)
            if ev.stroke is not None:
                strokes.append(ev.stroke)
        else:
            letter = ev.result
    return windows, strokes, letter


class TestGoldenStream:
    def test_interleaved_sessions_match_batch(self, runner, letter_logs):
        pad = runner.pad
        logs = [letter_logs[letter] for letter in LETTERS]
        chunkings = [list(iter_chunks(log, 0.13)) for log in logs]
        all_events = _hub_events(pad, chunkings)
        for log, letter, events in zip(logs, LETTERS, all_events):
            batch = pad.recognize_letter(log)
            windows, strokes, result = _final_windows_strokes_letter(events)
            assert result is not None and result.letter == letter
            assert windows == list(pad.segment(log))
            assert_letter_equal(result, batch)

    @pytest.mark.parametrize("trial", range(3))
    def test_random_chunkings_and_interleavings(
        self, runner, letter_logs, rng, trial
    ):
        pad = runner.pad
        # Random per-session chunkings, random interleave order via
        # different chunk counts per session, coalescing forced by a
        # 1-batch dispatcher serving 3 tenants.
        logs = [letter_logs[letter] for letter in LETTERS]
        chunkings = [
            random_chunks(log, rng, n_cuts=int(rng.integers(3, 40)))
            for log in logs
        ]
        all_events = _hub_events(pad, chunkings, batch_sessions=3)
        for log, letter, events in zip(logs, LETTERS, all_events):
            batch = pad.recognize_letter(log)
            _, _, result = _final_windows_strokes_letter(events)
            assert result is not None
            assert_letter_equal(result, batch)

    def test_same_log_many_sessions_identical_streams(
        self, runner, letter_logs, rng
    ):
        # The same log under different chunkings, concurrently: every
        # session must converge to the same finalized stream.
        pad = runner.pad
        log = letter_logs["T"]
        chunkings = [
            list(iter_chunks(log, 0.07)),
            list(iter_chunks(log, 0.31)),
            random_chunks(log, rng, n_cuts=11),
            [log],  # whole-log ingest
        ]
        all_events = _hub_events(pad, chunkings, batch_sessions=4)
        batch = pad.recognize_letter(log)
        for events in all_events:
            windows, _, result = _final_windows_strokes_letter(events)
            assert windows == list(pad.segment(log))
            assert_letter_equal(result, batch)
