"""Workspace layer: tile geometry, 1x1 golden bit-identity, 2x1 stitching.

The load-bearing contract (DESIGN.md §15): a 1x1 workspace IS today's
single pad — every log it produces must be float-exact identical to the
solo ``SessionRunner`` path, not merely statistically equivalent.  The
2x1 tests then exercise what the abstraction adds: a boundary-crossing
letter recognized from the merged stream, with a finite stitched
trajectory error.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.motion.script import script_for_letter, script_for_motion
from repro.motion.strokes import Motion, StrokeKind
from repro.rfid.deployment import WorkspaceLayout, deploy_tile
from repro.sim.runner import SessionRunner, WorkspaceRunner
from repro.sim.scenario import ScenarioConfig, build_scenario
from repro.sim.workspace import WorkspaceConfig, build_workspace


def _assert_logs_equal(a, b):
    assert len(a) == len(b)
    for col_a, col_b in zip(a.columns(), b.columns()):
        assert np.array_equal(col_a, col_b)


# ----------------------------------------------------------------------
# Tile geometry.


def test_layout_validation():
    with pytest.raises(ValueError):
        WorkspaceLayout(tiles_x=0)
    with pytest.raises(ValueError):
        WorkspaceLayout(rows=0)
    with pytest.raises(ValueError):
        WorkspaceLayout(pitch=0.0)


@pytest.mark.parametrize("tiles_x,tiles_y", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_tile_origin_continues_the_lattice(tiles_x, tiles_y):
    ws = WorkspaceLayout(tiles_x=tiles_x, tiles_y=tiles_y, rows=3, cols=4, pitch=0.05)
    combined = ws.combined_layout()
    tile = ws.tile_layout()
    for t in range(ws.tile_count):
        origin = ws.tile_origin(t)
        for local in range(tile.rows * tile.cols):
            got = origin + tile.position(*divmod(local, tile.cols))
            g = ws.global_index(t, local)
            want = combined.position(*divmod(g, combined.cols))
            assert np.allclose(
                (got.x, got.y, got.z), (want.x, want.y, want.z), atol=1e-12
            )


def test_one_by_one_layout_degenerates_to_identity():
    ws = WorkspaceLayout()
    origin = ws.tile_origin(0)
    assert (origin.x, origin.y, origin.z) == (0.0, 0.0, 0.0)
    for local in range(ws.rows * ws.cols):
        assert ws.global_index(0, local) == local


def test_global_index_round_trips():
    ws = WorkspaceLayout(tiles_x=3, tiles_y=2, rows=4, cols=5)
    seen = set()
    for t in range(ws.tile_count):
        for local in range(ws.rows * ws.cols):
            g = ws.global_index(t, local)
            assert ws.tile_of_global(g) == t
            seen.add(g)
    assert seen == set(range(ws.tiles_x * ws.tiles_y * ws.rows * ws.cols))


def test_locate_clamps_to_grid():
    ws = WorkspaceLayout(tiles_x=2, tiles_y=1)
    assert ws.locate(-0.05, 0.0) == 0   # left half of the seam
    assert ws.locate(0.05, 0.0) == 1    # right half
    assert ws.locate(-10.0, 0.0) == 0   # far outside clamps to nearest
    assert ws.locate(10.0, 0.0) == 1


def test_deploy_tile_rewrites_indices_and_epcs():
    ws = WorkspaceLayout(tiles_x=2, tiles_y=1)
    rng = np.random.default_rng(3)
    tags = deploy_tile(rng, ws, tile=1)
    indices = sorted(t.index for t in tags)
    assert indices == sorted(
        ws.global_index(1, local) for local in range(ws.rows * ws.cols)
    )
    assert len({t.epc for t in tags}) == len(tags)
    # Positions stay in the tile's LOCAL frame: the tile's engine and
    # static_base precompute must match a solo pad bit-for-bit.
    local_tags = deploy_tile(np.random.default_rng(3), WorkspaceLayout(), tile=0)
    for g_tag, l_tag in zip(tags, local_tags):
        assert np.allclose(
            (g_tag.position.x, g_tag.position.y, g_tag.position.z),
            (l_tag.position.x, l_tag.position.y, l_tag.position.z),
        )


# ----------------------------------------------------------------------
# 1x1 golden bit-identity with the solo pad.


@pytest.fixture(scope="module")
def solo_runner():
    return SessionRunner(build_scenario(ScenarioConfig(seed=7)))


@pytest.fixture(scope="module")
def ws_runner_1x1():
    return WorkspaceRunner(build_workspace(WorkspaceConfig(base=ScenarioConfig(seed=7))))


def test_1x1_static_log_bit_identical(solo_runner, ws_runner_1x1):
    _assert_logs_equal(solo_runner.static_log, ws_runner_1x1.static_log)


def test_1x1_session_log_bit_identical(solo_runner, ws_runner_1x1):
    script = script_for_motion(Motion(StrokeKind.HBAR), np.random.default_rng(99))
    _assert_logs_equal(
        solo_runner.run_script(script), ws_runner_1x1.run_script(script)
    )


def test_1x1_letter_recognition_identical(solo_runner, ws_runner_1x1):
    script = script_for_letter("L", np.random.default_rng(4))
    solo = solo_runner.pad.recognize_letter(solo_runner.run_script(script))
    tiled = ws_runner_1x1.pad.recognize_letter(ws_runner_1x1.run_script(script))
    assert solo.letter == tiled.letter == "L"
    assert [s.label for s in solo.strokes] == [s.label for s in tiled.strokes]


# ----------------------------------------------------------------------
# 2x1: cross-tile merge and stitching.


@pytest.fixture(scope="module")
def ws_runner_2x1():
    return WorkspaceRunner(
        build_workspace(WorkspaceConfig(base=ScenarioConfig(seed=7), tiles_x=2))
    )


def test_2x1_merged_log_is_time_ordered_and_dual_port(ws_runner_2x1):
    log = ws_runner_2x1.workspace.collect(1.0)
    ts, _, _, _, _, port, _ = log.columns()
    assert np.all(np.diff(ts) >= 0)
    assert set(np.unique(port).astype(int)) == {1, 2}


def test_2x1_boundary_crossing_letter_recognized():
    # A fresh runner so the trial is deterministic regardless of how many
    # collects other tests have drawn from the shared fixture's RNGs.
    runner = WorkspaceRunner(
        build_workspace(WorkspaceConfig(base=ScenarioConfig(seed=7), tiles_x=2))
    )
    script = script_for_letter("L", runner.rng)
    log = runner.run_script(script)
    # The script really does cross the tile seam at x=0.
    xs = [p.position.x for p in script.true_trajectory(dt=0.05)]
    assert min(xs) < 0.0 < max(xs)
    result = runner.pad.recognize_letter(log)
    assert result.letter == "L"
    err = runner.stitched_trajectory_error(log, script)
    assert err is not None
    assert err < 0.08  # within ~a tag pitch, same bar as ext_tracking


def test_workspace_tile_count_and_rng(ws_runner_2x1):
    ws = ws_runner_2x1.workspace
    assert ws.tile_count == 2
    assert ws.rng is ws.tiles[0].rng


@pytest.mark.parametrize("seed", [1, 2])
def test_2x2_calibrates_every_tile(seed):
    # A 3 s capture gives each 2x2 tile 0.75 s, and on these seeds one tag
    # fewer than calibrate's 5 static reads; the runner lengthens a 2x2
    # capture so every tile gets a 2x1 tile's 1.5 s.
    runner = WorkspaceRunner(
        build_workspace(
            WorkspaceConfig(base=ScenarioConfig(seed=seed), tiles_x=2, tiles_y=2)
        )
    )
    assert len(runner.pad.calibration.tags) == 4 * 25
    assert runner.static_log.end_time > 5.5  # 4 tiles x 1.5 s


def test_2x1_calibration_capture_stays_3s(ws_runner_2x1):
    assert ws_runner_2x1.static_log.end_time < 3.5  # a 2x1 workspace captures 3 s
