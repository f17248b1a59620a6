"""Provisional event layer: previews never disturb the finalized stream.

The contract (DESIGN.md §13): with ``provisional=True`` a streaming
session *additionally* emits ``final=False`` stroke/letter previews while
a window is still forming.  Filtering the event stream down to
``final=True`` must leave exactly — to the float — the events a
non-provisional session emits on the same chunking, and the finalized
letter must equal the batch pipeline's answer.  Previews are advisory:
each one is eventually superseded by a final event, and the last event of
every session is the finalizing LetterEvent.
"""

from __future__ import annotations

import pytest

from repro.motion.script import script_for_letter
from repro.sim.live import iter_chunks, stream_log
from repro.stream import LetterEvent, StreamingSession, StrokeEvent

from tests.stream.test_equivalence import (
    assert_letter_equal,
    assert_obs_equal,
    random_chunks,
)


def _run(pad, chunks, provisional: bool):
    session = StreamingSession(pad, provisional=provisional)
    events = []
    for chunk in chunks:
        events.extend(session.ingest(chunk))
    events.extend(session.finalize())
    return session, events


def _assert_final_streams_equal(with_prov, plain):
    finals = [ev for ev in with_prov if ev.final]
    assert len(finals) == len(plain)
    for fa, fb in zip(finals, plain):
        assert type(fa) is type(fb)
        assert fa.emitted_at == fb.emitted_at
        if isinstance(fa, StrokeEvent):
            assert fa.window == fb.window
            assert_obs_equal(fa.stroke, fb.stroke)
        else:
            assert fa.result.letter == fb.result.letter
            assert fa.result.windows == fb.result.windows


@pytest.fixture(scope="module")
def letter_log(shared_runner):
    return shared_runner.run_script(
        script_for_letter("H", shared_runner.rng)
    )


class TestGoldenStream:
    @pytest.mark.parametrize("chunk_s", [0.05, 0.1, 0.23])
    def test_final_events_identical_across_provisional_flag(
        self, shared_runner, letter_log, chunk_s
    ):
        pad = shared_runner.pad
        _, with_prov = _run(pad, iter_chunks(letter_log, chunk_s), True)
        _, plain = _run(pad, iter_chunks(letter_log, chunk_s), False)
        _assert_final_streams_equal(with_prov, plain)

    def test_random_chunkings_previews_always_superseded(
        self, shared_runner, letter_log, rng
    ):
        pad = shared_runner.pad
        batch = pad.recognize_letter(letter_log)
        for _ in range(4):
            chunks = random_chunks(letter_log, rng)
            session, events = _run(pad, chunks, True)
            # The stream always closes on a finalizing letter event.
            assert isinstance(events[-1], LetterEvent)
            assert events[-1].final
            # Every preview is strictly before the last final LetterEvent.
            last_final = max(
                i for i, ev in enumerate(events)
                if isinstance(ev, LetterEvent) and ev.final
            )
            for i, ev in enumerate(events):
                if not ev.final:
                    assert i < last_final
            assert_letter_equal(session.letter_result, batch)

    def test_previews_fire_and_are_marked(self, shared_runner, letter_log):
        pad = shared_runner.pad
        _, events = _run(pad, iter_chunks(letter_log, 0.05), True)
        previews = [ev for ev in events if not ev.final]
        # A multi-stroke letter mid-write must produce previews.
        assert previews
        assert any(isinstance(ev, LetterEvent) for ev in previews)
        assert any(isinstance(ev, StrokeEvent) for ev in previews)
        for ev in previews:
            if isinstance(ev, LetterEvent):
                assert ev.result is not None

    def test_batch_surfaces_unchanged(self, shared_runner, letter_log):
        pad = shared_runner.pad
        session, _ = _run(pad, iter_chunks(letter_log, 0.1), True)
        assert session.windows == pad.segment(letter_log)
        assert_letter_equal(session.letter_result, pad.recognize_letter(letter_log))

    def test_stream_log_provisional_flag(self, shared_runner, letter_log):
        pad = shared_runner.pad
        events = list(stream_log(
            pad, letter_log, 0.05, session=StreamingSession(pad, provisional=True)
        ))
        assert any(not ev.final for ev in events)
        assert isinstance(events[-1], LetterEvent) and events[-1].final
