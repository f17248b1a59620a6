"""Streaming/batch equivalence property tests.

The streaming contract (DESIGN.md §11): for *any* chunking of a report
stream — including one read at a time, and chunk boundaries that split a
100 ms frame — the streamed window/stroke/letter sequence is exactly, to
the float, what the batch pipeline computes on the whole log.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.pipeline import RFIPadConfig
from repro.core.segmentation import SegmentationConfig
from repro.motion.script import script_for_letter, script_for_motion
from repro.motion.strokes import Motion, StrokeKind
from repro.rfid.reports import ReportLog
from repro.sim.live import iter_chunks, stream_log
from repro.sim.runner import SessionRunner
from repro.sim.scenario import ScenarioConfig, build_scenario
from repro.stream import LetterEvent, StreamingSession

# ---------------------------------------------------------------------------
# Comparison helpers: StrokeObservation carries numpy-bearing GreyMap /
# BinaryMap fields, so dataclass ``==`` would be ambiguous — compare
# field-wise with np.array_equal where needed.
# ---------------------------------------------------------------------------


def _assert_map_equal(a, b):
    if a is None or b is None:
        assert a is b
        return
    for f in dataclasses.fields(type(a)):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray):
            assert np.array_equal(va, vb), f.name
        else:
            assert va == vb, f.name


def assert_obs_equal(a, b):
    if a is None or b is None:
        assert a is b
        return
    assert type(a) is type(b)
    for f in dataclasses.fields(type(a)):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if f.name in ("grey", "binary"):
            _assert_map_equal(va, vb)
        else:
            assert va == vb, f.name


def assert_letter_equal(streamed, batch):
    assert streamed.letter == batch.letter
    assert streamed.candidates == batch.candidates
    assert streamed.windows == batch.windows
    assert len(streamed.strokes) == len(batch.strokes)
    for sa, sb in zip(streamed.strokes, batch.strokes):
        assert_obs_equal(sa, sb)


# ---------------------------------------------------------------------------
# Chunk builders
# ---------------------------------------------------------------------------


def single_read_chunks(log):
    ts, tag, phase, rss, dopp, port, epc = log.columns()
    for i in range(ts.size):
        chunk = ReportLog()
        chunk.extend_columns(
            ts[i:i + 1], tag[i:i + 1], phase[i:i + 1], rss[i:i + 1],
            dopp[i:i + 1], list(epc[i:i + 1]), antenna_port=int(port[i]),
        )
        yield chunk


def random_chunks(log, rng, n_cuts=23):
    cuts = np.sort(rng.uniform(log.start_time, log.end_time, size=n_cuts))
    edges = [log.start_time, *cuts, log.end_time + 1e-6]
    return [log.slice_time(a, b) for a, b in zip(edges[:-1], edges[1:])]


def whole_log_chunk(log):
    return [log]


def _stream(pad, chunks, bounded=True):
    session = StreamingSession(pad, bounded=bounded)
    for chunk in chunks:
        session.ingest(chunk)
    session.finalize()
    return session


# chunk_s=0.033 and 0.23 both split the 100 ms RMS frame; 0.05 aligns
# with it; 5.0 covers multi-frame chunks.
CHUNK_SECONDS = (0.033, 0.05, 0.23, 5.0)


# ---------------------------------------------------------------------------
# Letter sessions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("letter", ["H", "T", "L"])
def test_letter_stream_equals_batch_for_time_chunkings(shared_runner, letter):
    pad = shared_runner.pad
    log = shared_runner.run_script(script_for_letter(letter, shared_runner.rng))
    batch = pad.recognize_letter(log)
    batch_windows = pad.segment(log)
    for chunk_s in CHUNK_SECONDS:
        session = _stream(pad, iter_chunks(log, chunk_s))
        assert session.windows == batch_windows
        assert_letter_equal(session.letter_result, batch)


def test_letter_stream_equals_batch_whole_log(shared_runner):
    pad = shared_runner.pad
    log = shared_runner.run_script(script_for_letter("E", shared_runner.rng))
    session = _stream(pad, whole_log_chunk(log))
    assert_letter_equal(session.letter_result, pad.recognize_letter(log))


def test_letter_stream_equals_batch_random_chunking(shared_runner, rng):
    pad = shared_runner.pad
    log = shared_runner.run_script(script_for_letter("H", shared_runner.rng))
    batch = pad.recognize_letter(log)
    for _ in range(5):
        session = _stream(pad, random_chunks(log, rng))
        assert_letter_equal(session.letter_result, batch)


def test_letter_stream_equals_batch_one_read_chunks(shared_runner):
    pad = shared_runner.pad
    log = shared_runner.run_script(script_for_letter("T", shared_runner.rng))
    session = _stream(pad, single_read_chunks(log))
    assert_letter_equal(session.letter_result, pad.recognize_letter(log))


def test_seven_frame_windows_keep_the_reads_of_a_queued_segment():
    # With 0.7 s windows a finished segment waits in the segmenter's flush
    # queue until its last window std exists.  The session must keep that
    # segment's reads meanwhile, or it analyses a truncated window.
    config = RFIPadConfig(segmentation=SegmentationConfig(window_frames=7))
    runner = SessionRunner(build_scenario(ScenarioConfig(seed=1)), pipeline_config=config)
    for letter in "BEGH":
        log = runner.run_script(script_for_letter(letter, runner.rng))
        session = _stream(runner.pad, iter_chunks(log, 0.1))
        assert session.windows == runner.pad.segment(log)
        assert_letter_equal(session.letter_result, runner.pad.recognize_letter(log))


def test_stream_log_yields_events_in_order_and_letter_last(shared_runner):
    pad = shared_runner.pad
    log = shared_runner.run_script(script_for_letter("H", shared_runner.rng))
    events = list(stream_log(pad, log, 0.1))
    assert isinstance(events[-1], LetterEvent)
    stroke_events = events[:-1]
    windows = [ev.window for ev in stroke_events]
    assert windows == pad.segment(log)
    for ev in stroke_events:
        # No clairvoyance: an event can only fire once its window closed.
        assert ev.emitted_at >= ev.window.t1


# ---------------------------------------------------------------------------
# Motion sessions
# ---------------------------------------------------------------------------

MOTIONS = [
    Motion(StrokeKind.VBAR),
    Motion(StrokeKind.HBAR),
    Motion(StrokeKind.SLASH),
    Motion(StrokeKind.CLICK),
]


@pytest.mark.parametrize("motion", MOTIONS, ids=lambda m: m.kind.name)
def test_motion_stream_equals_batch(shared_runner, motion):
    pad = shared_runner.pad
    log = shared_runner.run_script(script_for_motion(motion, shared_runner.rng))
    batch = pad.detect_motion(log)
    for chunk_s in (0.05, 0.23):
        # bounded=False keeps the quiet-log fallback exact too (it needs
        # the whole log); the windowed path is exact either way.
        session = _stream(pad, iter_chunks(log, chunk_s), bounded=False)
        assert_obs_equal(session.motion_result(), batch)


def test_motion_bounded_session_exact_when_windows_exist(shared_runner):
    pad = shared_runner.pad
    log = shared_runner.run_script(
        script_for_motion(Motion(StrokeKind.VBAR), shared_runner.rng)
    )
    batch = pad.detect_motion(log)
    session = _stream(pad, iter_chunks(log, 0.1), bounded=True)
    assert session.windows  # a real stroke must segment
    assert_obs_equal(session.motion_result(), batch)
