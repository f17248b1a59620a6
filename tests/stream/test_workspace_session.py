"""WorkspaceSession: cross-tile watermark merge and stitching contracts.

The workspace streaming contract (DESIGN.md §15): for *any* per-tile
chunking and any interleaving of tile arrivals, the finalized event
stream equals the batch pipeline run on the merged workspace log — the
same bit-exactness bar the single-pad streaming layer holds (§11).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.segmentation import stitch_windows
from repro.motion.script import script_for_letter
from repro.rfid.reports import merge_logs
from repro.sim.live import iter_chunks
from repro.sim.runner import WorkspaceRunner
from repro.sim.scenario import ScenarioConfig
from repro.sim.workspace import WorkspaceConfig, build_workspace
from repro.stream import StreamingSession, WorkspaceSession

from .test_equivalence import assert_letter_equal


@pytest.fixture(scope="module")
def ws_runner():
    return WorkspaceRunner(
        build_workspace(WorkspaceConfig(base=ScenarioConfig(seed=7), tiles_x=2))
    )


@pytest.fixture(scope="module")
def letter_capture(ws_runner):
    """One boundary-crossing letter: per-tile logs + merged log + batch."""
    script = script_for_letter("L", ws_runner.rng)
    tile_logs = ws_runner.workspace.collect_tiles(script.duration, script)
    merged = merge_logs(tile_logs)
    batch = ws_runner.pad.recognize_letter(merged)
    batch_windows = ws_runner.pad.segment(merged)
    return tile_logs, merged, batch, batch_windows


def _drain(session, tile_chunks):
    """Feed per-tile chunk lists round-robin, then finalize."""
    iters = [iter(chunks) for chunks in tile_chunks]
    live = set(range(len(iters)))
    while live:
        for tile in sorted(live):
            try:
                session.ingest_tile(tile, next(iters[tile]))
            except StopIteration:
                live.discard(tile)
    session.finalize()
    return session


# ----------------------------------------------------------------------
# 1-tile degeneracy: pure passthrough to StreamingSession.


def test_single_tile_session_equals_streaming_session(shared_runner):
    pad = shared_runner.pad
    log = shared_runner.run_script(script_for_letter("T", shared_runner.rng))
    plain = StreamingSession(pad)
    ws = WorkspaceSession(pad, tile_count=1)
    for chunk in iter_chunks(log, 0.1):
        plain.ingest(chunk)
        ws.ingest_tile(0, chunk)
    plain.finalize()
    ws.finalize()
    assert ws.windows == plain.windows
    assert_letter_equal(ws.letter_result, plain.letter_result)


def test_tile_count_validated(shared_runner):
    with pytest.raises(ValueError):
        WorkspaceSession(shared_runner.pad, tile_count=0)


# ----------------------------------------------------------------------
# Multi-tile: any chunking/interleaving equals batch on the merged log.


@pytest.mark.parametrize("chunk_s", [0.07, 0.15, 0.37])
def test_tile_chunking_equals_batch(ws_runner, letter_capture, chunk_s):
    tile_logs, _, batch, batch_windows = letter_capture
    session = _drain(
        WorkspaceSession(ws_runner.pad, tile_count=2),
        [list(iter_chunks(log, chunk_s)) for log in tile_logs],
    )
    assert session.windows == batch_windows
    assert_letter_equal(session.letter_result, batch)


def test_reverse_tile_order_equals_batch(ws_runner, letter_capture):
    tile_logs, _, batch, batch_windows = letter_capture
    session = WorkspaceSession(ws_runner.pad, tile_count=2)
    # All of tile 1 first, then all of tile 0: the watermark must hold
    # everything until the lagging tile speaks, then merge in time order.
    for chunk in iter_chunks(tile_logs[1], 0.25):
        session.ingest_tile(1, chunk)
    for chunk in iter_chunks(tile_logs[0], 0.25):
        session.ingest_tile(0, chunk)
    session.finalize()
    assert session.windows == batch_windows
    assert_letter_equal(session.letter_result, batch)


def test_merged_stream_ingest_routes_by_port(ws_runner, letter_capture):
    _, merged, batch, batch_windows = letter_capture
    session = WorkspaceSession(ws_runner.pad, tile_count=2)
    for chunk in iter_chunks(merged, 0.2):
        session.ingest(chunk)
    session.finalize()
    assert session.windows == batch_windows
    assert_letter_equal(session.letter_result, batch)


def test_nothing_released_until_every_tile_speaks(ws_runner, letter_capture):
    tile_logs, _, _, _ = letter_capture
    session = WorkspaceSession(ws_runner.pad, tile_count=2)
    for chunk in iter_chunks(tile_logs[0], 0.5):
        session.ingest_tile(0, chunk)
    # Tile 1 has never spoken: every read must still be held back, since
    # its first chunk may legitimately carry reads older than tile 0's.
    assert session.buffered_reads == len(tile_logs[0])
    assert session.events == []
    session.ingest_tile(1, tile_logs[1])
    session.finalize()
    assert session.letter_result is not None


def test_explicit_watermark_advances_release(ws_runner, letter_capture):
    tile_logs, _, batch, _ = letter_capture
    session = WorkspaceSession(ws_runner.pad, tile_count=2)
    session.ingest_tile(0, tile_logs[0])
    # An empty heartbeat with t_hi vouches tile 1 is quiet through the
    # whole capture, releasing tile 0's reads without any tile-1 data.
    from repro.rfid.reports import ReportLog

    session.ingest_tile(1, ReportLog(), t_hi=float(tile_logs[0].end_time))
    assert session.buffered_reads < len(tile_logs[0])
    session.ingest_tile(1, tile_logs[1].slice_time(
        float(tile_logs[0].end_time), np.inf))
    session.finalize()
    assert session.letter_result is not None


def test_stitched_windows_cover_strokes(ws_runner, letter_capture):
    tile_logs, _, batch, batch_windows = letter_capture
    tile_windows = [ws_runner.pad.segment(log) for log in tile_logs]
    stitched = stitch_windows(tile_windows)
    assert len(tile_windows) == 2
    assert sum(len(w) for w in tile_windows) >= len(stitched) >= 1
    # Stitched windows are time-ordered and non-overlapping.
    for prev, cur in zip(stitched, stitched[1:]):
        assert cur.t0 > prev.t1
    # Every batch window falls inside some stitched window's span.
    for w in batch_windows:
        assert any(s.t0 - 0.3 <= w.t0 and w.t1 <= s.t1 + 0.3 for s in stitched)
