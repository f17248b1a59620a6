"""StreamingSession behaviour: bounded retention, lifecycle, and the
StreamSegmenter's equivalence to the batch reference on adversarial
synthetic streams."""

import dataclasses
import math

import numpy as np
import pytest

from repro.core.segmentation import StreamSegmenter, frame_rms
from repro.core.unwrap import fold_to_pi
from repro.motion.script import script_for_letter, script_for_word
from repro.rfid.reports import ReportLog
from repro.sim.live import iter_chunks
from repro.stream import StreamingSession

from ..core.segmentation_oracles import batch_segment_strokes


# ---------------------------------------------------------------------------
# Bounded memory
# ---------------------------------------------------------------------------


def test_bounded_memory_on_long_session(shared_runner):
    # A whole word is the longest session the simulator produces; a
    # bounded session must shed the past as it goes.
    log = shared_runner.run_script(
        script_for_word("HELLO", shared_runner.rng)
    )
    session = StreamingSession(shared_runner.pad)
    max_buffered = 0
    for chunk in iter_chunks(log, 0.1):
        session.ingest(chunk)
        max_buffered = max(max_buffered, session.buffered_reads)
        horizon = session.retention_time
        if horizon is not None and session.buffered_reads:
            # Retention invariant: nothing older than the horizon stays.
            oldest = float(session._buffer.columns()[0][0])
            assert oldest >= horizon - 1e-9
    session.finalize()
    assert len(log) > 2000  # the bound is only meaningful on a long stream
    assert max_buffered < len(log) / 3
    assert session.letter_result is not None


def test_unbounded_session_keeps_everything(shared_runner):
    log = shared_runner.run_script(
        script_for_letter("T", shared_runner.rng)
    )
    session = StreamingSession(shared_runner.pad, bounded=False)
    for chunk in iter_chunks(log, 0.1):
        session.ingest(chunk)
    session.finalize()
    assert session.buffered_reads == len(log)


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------


def test_out_of_order_chunks_rejected(shared_runner):
    log = shared_runner.run_script(
        script_for_letter("T", shared_runner.rng)
    )
    chunks = list(iter_chunks(log, 1.0))
    session = StreamingSession(shared_runner.pad)
    session.ingest(chunks[1])
    with pytest.raises(ValueError):
        session.ingest(chunks[0])


def test_finalized_session_rejects_further_use(shared_runner):
    log = shared_runner.run_script(
        script_for_letter("T", shared_runner.rng)
    )
    session = StreamingSession(shared_runner.pad)
    session.ingest(log)
    session.finalize()
    with pytest.raises(RuntimeError):
        session.ingest(log)
    with pytest.raises(RuntimeError):
        session.finalize()


def test_motion_result_requires_finalize(shared_runner):
    session = StreamingSession(shared_runner.pad)
    with pytest.raises(RuntimeError):
        session.motion_result()


def test_empty_session_finalizes_cleanly(shared_runner):
    session = StreamingSession(shared_runner.pad)
    events = session.finalize()
    assert len(events) == 1  # just the (empty) letter event
    assert session.letter_result.letter is None
    assert session.motion_result() is None


# ---------------------------------------------------------------------------
# iter_chunks
# ---------------------------------------------------------------------------


def test_iter_chunks_partitions_the_log(shared_runner):
    log = shared_runner.run_script(
        script_for_letter("L", shared_runner.rng)
    )
    chunks = list(iter_chunks(log, 0.23))
    assert sum(len(c) for c in chunks) == len(log)
    ts = np.concatenate([c.columns()[0] for c in chunks if len(c)])
    assert np.array_equal(ts, log.columns()[0])


def test_iter_chunks_rejects_nonpositive_chunk(shared_runner):
    with pytest.raises(ValueError):
        list(iter_chunks(ReportLog(), 0.0))


# ---------------------------------------------------------------------------
# ReportLog streaming support
# ---------------------------------------------------------------------------


def test_report_log_drop_before(shared_runner):
    log = shared_runner.reader.collect_static(1.0)
    ts0 = log.columns()[0].copy()
    cut = float(ts0[ts0.size // 2])
    expected = int(np.searchsorted(ts0, cut, side="left"))
    assert log.drop_before(cut) == expected
    ts1 = log.columns()[0]
    assert ts1.size == ts0.size - expected
    assert float(ts1[0]) >= cut
    # Reads exactly at the cut survive, so a repeat drop is a no-op.
    assert log.drop_before(cut) == 0


# ---------------------------------------------------------------------------
# StreamSegmenter vs the batch reference on synthetic adversarial streams
# ---------------------------------------------------------------------------


def _synthetic_log(calibration, rng, duration_s=6.0, n=1500):
    """Random read stream with two noisy bursts over a quiet baseline."""
    tag_ids = np.array(sorted(calibration.tags))
    ts = np.sort(rng.uniform(0.0, duration_s, size=n))
    tags = rng.choice(tag_ids, size=n)
    centres = np.array([calibration.central_phase(int(t)) for t in tags])
    noise = rng.normal(0.0, 0.05, size=n)
    burst = ((ts > 1.5) & (ts < 2.5)) | ((ts > 4.0) & (ts < 4.7))
    noise[burst] += rng.normal(0.0, 1.2, size=int(burst.sum()))
    phases = np.mod(centres + noise, 2.0 * np.pi)
    log = ReportLog()
    log.extend_columns(
        ts, tags, phases,
        np.full(n, -60.0), np.zeros(n),
        [f"EPC{int(t):04d}" for t in tags],
    )
    return log


def test_stream_segmenter_matches_batch_on_synthetic_logs(shared_runner, rng):
    calibration = shared_runner.pad.calibration
    config = shared_runner.pad.config.segmentation
    for _ in range(3):
        log = _synthetic_log(calibration, rng)
        expected = batch_segment_strokes(log, calibration, config)
        ts, tags, phases = log.columns()[0], log.columns()[1], log.columns()[2]
        segmenter = StreamSegmenter(calibration, config)
        got = []
        i = 0
        while i < ts.size:
            j = min(ts.size, i + int(rng.integers(1, 200)))
            got.extend(segmenter.ingest(ts[i:j], tags[i:j], phases[i:j]))
            i = j
        got.extend(segmenter.finalize())
        assert got == expected


# ---------------------------------------------------------------------------
# Columnar frame buffer vs the per-read accumulation it replaced
# ---------------------------------------------------------------------------


class PerReadFrames:
    """Oracle: the segmenter's former per-read frame accumulation.

    Open frames are ``{frame: {tag: [squared residuals]}}`` filled read by
    read; a frame's RMS sums each bucket read by read and adds the tag
    terms in first-appearance order.  It has the interface of the
    segmenter's columnar buffer (``closed``, ``add``, ``close``, ``peek``)
    so it can stand in for it.
    """

    def __init__(self, calibration):
        self.calibration = calibration
        self.closed = 0
        self._open = {}
        self._appearance = {}

    def add(self, frames, tags, phases):
        for f, tag, phase in zip(
            frames.tolist(), np.asarray(tags).tolist(), np.asarray(phases).tolist()
        ):
            self._appearance.setdefault(tag, len(self._appearance))
            if tag not in self.calibration.tags:
                continue
            residual = fold_to_pi(phase - self.calibration.central_phase(tag))
            self._open.setdefault(f, {}).setdefault(tag, []).append(residual * residual)

    def close(self, upto, fold_last=False):
        if fold_last:
            for f in sorted(f for f in self._open if f >= upto):
                target = self._open.setdefault(upto - 1, {})
                for tag, squares in self._open.pop(f).items():
                    target.setdefault(tag, []).extend(squares)
        values = [self._value(self._open.pop(i, {})) for i in range(self.closed, upto)]
        self.closed = upto
        return np.array(values)

    def peek(self, index):
        frame = self._open.get(index)
        return self._value(frame) if frame else None

    def _value(self, frame):
        value = 0.0
        for tag in sorted(frame, key=self._appearance.__getitem__):
            total = 0.0
            for sq in frame[tag]:
                total += sq
            value += math.sqrt(total / len(frame[tag]))
        return value


def _record_closes(segmenter):
    """List that collects every RMS value the segmenter's frames close with."""
    reads = segmenter._reads
    closed = []
    close = reads.close

    def recording_close(upto, fold_last=False):
        values = close(upto, fold_last)
        closed.extend(values.tolist())
        return values

    reads.close = recording_close
    return closed


def _adversarial_log(calibration, rng, frame_s, n_frames=40, n=1200):
    """Synthetic stream built to trip an inexact frame accumulator.

    * one read on every frame boundary, the last exactly on the end
      boundary (the end-of-log clamp folds it into the last frame; for
      0.1 s frames, 40 * 0.1 / 0.1 is exactly 40 in floating point);
    * tags first appear in a shuffled id order, and three calibrated tags
      are first seen mid-stream;
    * 8% of reads carry uncalibrated ids (negative and above the largest
      calibrated id) with wild phases, which every path must ignore;
    * two bursts of strong phase noise, so strokes get segmented.
    """
    ids = np.array(sorted(calibration.tags))
    end = n_frames * frame_s
    grid = frame_s * np.arange(n_frames + 1)
    ts = np.sort(np.concatenate([grid, rng.uniform(0.0, end, size=n - grid.size)]))
    assert ts[0] == 0.0 and ts[-1] == end
    order = rng.permutation(ids)
    late, early = order[:3], order[3:]
    tags = rng.choice(early, size=n)
    tags[: early.size] = early  # first appearances in shuffled id order
    second_half = np.flatnonzero(ts > end / 2)
    tags[second_half] = rng.choice(order, size=second_half.size)
    tags[second_half[0]] = late[0]
    outside = np.array([-1, -7, ids.max() + 1, ids.max() + 50])
    stray = rng.random(n) < 0.08
    stray[0] = stray[-1] = False
    tags[stray] = rng.choice(outside, size=int(stray.sum()))
    centres = np.array(
        [calibration.central_phase(int(t)) if t in calibration.tags else 0.0 for t in tags]
    )
    noise = rng.normal(0.0, 0.05, size=n)
    burst = ((ts > 0.25 * end) & (ts < 0.45 * end)) | ((ts > 0.6 * end) & (ts < 0.75 * end))
    noise[burst] += rng.normal(0.0, 1.2, size=int(burst.sum()))
    noise[stray] = rng.uniform(-np.pi, np.pi, size=int(stray.sum()))
    phases = np.mod(centres + noise, 2.0 * np.pi)
    log = ReportLog()
    log.extend_columns(
        ts, tags, phases, np.full(n, -60.0), np.zeros(n),
        [f"EPC{int(t):04d}" for t in tags],
    )
    return log


def _ragged_chunks(n, rng):
    """Chunk bounds mixing empty, one-read and longer chunks."""
    bounds, i = [], 0
    while i < n:
        step = int(rng.choice([0, 1, 1, 2, int(rng.integers(3, 90))]))
        bounds.append((i, min(n, i + step)))
        i += step
    return bounds


@pytest.fixture(params=[0.1, 0.125], ids=["frame_0.1s", "frame_0.125s"])
def adversarial(request, shared_runner):
    # 0.125 s frames put every boundary read exactly on the grid; 0.1 s is
    # the paper's frame, whose grid times round either side of a boundary.
    calibration = shared_runner.pad.calibration
    config = dataclasses.replace(
        shared_runner.pad.config.segmentation, frame_s=request.param
    )
    return calibration, config


def test_frame_rms_matches_per_read_oracle(adversarial, rng):
    calibration, config = adversarial
    for _ in range(3):
        log = _adversarial_log(calibration, rng, config.frame_s)
        ts, tags, phases = log.columns()[:3]
        oracle = PerReadFrames(calibration)
        oracle.add(((ts - ts[0]) / config.frame_s).astype(int), tags, phases)
        n_frames = int(math.ceil((ts[-1] - ts[0]) / config.frame_s))
        assert ((ts[-1] - ts[0]) / config.frame_s).astype(int) == n_frames  # clamped
        expected = oracle.close(n_frames, fold_last=True)
        times, rms = frame_rms(log, calibration, config.frame_s)
        assert times.size == n_frames
        assert rms.tobytes() == expected.tobytes()


def test_stream_segmenter_matches_oracle_and_batch_on_adversarial_streams(
    adversarial, rng
):
    calibration, config = adversarial
    for _ in range(4):
        log = _adversarial_log(calibration, rng, config.frame_s)
        ts, tags, phases = log.columns()[:3]
        _, batch_rms = frame_rms(log, calibration, config.frame_s)
        expected = batch_segment_strokes(log, calibration, config)
        segmenter = StreamSegmenter(calibration, config)
        oracle = StreamSegmenter(calibration, config)
        oracle._reads = PerReadFrames(calibration)
        closed, oracle_closed = _record_closes(segmenter), _record_closes(oracle)
        got, want = [], []
        for a, b in _ragged_chunks(ts.size, rng):
            got.extend(segmenter.ingest(ts[a:b], tags[a:b], phases[a:b]))
            want.extend(oracle.ingest(ts[a:b], tags[a:b], phases[a:b]))
            assert segmenter.provisional_segment() == oracle.provisional_segment()
            assert closed == oracle_closed
        got.extend(segmenter.finalize())
        want.extend(oracle.finalize())
        assert closed == oracle_closed == batch_rms.tolist()
        assert got == want == expected
        assert expected  # the bursts must actually segment
