"""StreamSegmenter's chunk contract: when windows come back, which chunks
are accepted, and how much of the stream the open-read buffer holds."""

import numpy as np
import pytest

from repro.core.segmentation import StreamSegmenter, frame_rms, segment_strokes
from repro.motion.script import script_for_letter
from repro.sim.live import iter_chunks
from repro.sim.runner import SessionRunner
from repro.sim.scenario import ScenarioConfig, build_scenario

from .test_session import _record_closes

LETTERS = "ABDEHKMNTW"


@pytest.fixture(scope="module")
def runner():
    # A fresh runner on the shared seed-7 deployment: its logs leave the
    # shared runner's RNG stream, and so every other test's logs, as they are.
    return SessionRunner(build_scenario(ScenarioConfig(seed=7)))


@pytest.fixture(scope="module")
def letter_logs(runner):
    return [runner.run_script(script_for_letter(c, runner.rng)) for c in LETTERS]


def _segmenter(runner):
    return StreamSegmenter(runner.pad.calibration, runner.pad.config.segmentation)


def _emissions(segmenter, columns, bounds):
    """``(window, chunk)`` for every window, ``chunk`` being the ``(a, b)``
    read range of the ingest that returned it, ``None`` for finalize."""
    ts, tags, phases = columns
    out = []
    for a, b in bounds:
        out.extend((w, (a, b)) for w in segmenter.ingest(ts[a:b], tags[a:b], phases[a:b]))
    out.extend((w, None) for w in segmenter.finalize())
    return out


def _time_chunks(log, chunk_s=0.1):
    sizes = np.cumsum([0] + [len(chunk) for chunk in iter_chunks(log, chunk_s)])
    assert sizes[-1] == len(log)
    return list(zip(sizes[:-1].tolist(), sizes[1:].tolist()))


def _ragged_chunks(n, rng, cuts=40):
    edges = [0, *np.sort(rng.choice(np.arange(1, n), size=cuts, replace=False)).tolist(), n]
    return list(zip(edges[:-1], edges[1:]))


def test_windows_come_back_from_the_chunk_that_decides_them(runner, letter_logs):
    # One read at a time, each window comes back from the ingest of the
    # read that decides it.  Any other chunking must return it from the
    # chunk holding that read: a chunk that decides a window's trailing gap
    # and the next stroke's first frame together must not hold the window
    # until that next stroke ends.
    rng = np.random.default_rng(23)
    for log in letter_logs:
        columns = log.columns()[:3]
        n = len(log)
        reference = _emissions(_segmenter(runner), columns, [(i, i + 1) for i in range(n)])
        deciding = [None if chunk is None else chunk[0] for _, chunk in reference]
        assert any(read is not None for read in deciding)
        chunkings = [_time_chunks(log)] + [_ragged_chunks(n, rng) for _ in range(3)]
        for bounds in chunkings:
            got = _emissions(_segmenter(runner), columns, bounds)
            assert [w for w, _ in got] == [w for w, _ in reference]
            for (window, chunk), read in zip(got, deciding):
                if read is None:
                    assert chunk is None, window
                else:
                    assert chunk is not None and chunk[0] <= read < chunk[1], window


def test_chunk_with_reads_out_of_time_order_rejected(runner, letter_logs):
    log = letter_logs[LETTERS.index("T")]
    first = log.slice_time(log.start_time, log.start_time + 0.5)
    ts, tags, phases = (np.array(col) for col in first.columns()[:3])
    assert ts[-1] > ts[0]
    for col in (ts, tags, phases):
        col[[0, -1]] = col[[-1, 0]]
    segmenter = _segmenter(runner)
    with pytest.raises(ValueError, match="time-ordered"):
        segmenter.ingest(ts, tags, phases)
    # The rejected chunk left no trace: the sorted log still segments as
    # one chunk would.
    columns = log.columns()[:3]
    got = segmenter.ingest(*columns) + segmenter.finalize()
    config = runner.pad.config.segmentation
    assert got == segment_strokes(log, runner.pad.calibration, config)
    # Equal timestamps are in order.
    segmenter = _segmenter(runner)
    segmenter.ingest(np.array([0.0, 0.05, 0.05]), tags[:3], phases[:3])


def test_open_reads_stay_bounded_on_a_long_hand_free_log(runner):
    # Fixed before the run: four times the buffer's starting rows, against
    # a 60 s log of tens of thousands of reads.
    bound = 1024
    log = runner.reader.collect_static(60.0)
    assert len(log) > 10 * bound
    calibration, config = runner.pad.calibration, runner.pad.config.segmentation
    segmenter = StreamSegmenter(calibration, config)
    closed = _record_closes(segmenter)
    reads = segmenter._reads
    windows, rows = [], []
    for chunk in iter_chunks(log, 0.1):
        windows.extend(segmenter.ingest(*chunk.columns()[:3]))
        rows.append(reads._frames.size)
    windows.extend(segmenter.finalize())
    assert windows == []
    assert closed == frame_rms(log, calibration, config.frame_s)[1].tolist()
    assert max(rows) <= bound
