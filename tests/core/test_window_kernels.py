"""The window block's row kernels against the per-tag references.

Every comparison is bitwise: floats are compared through their bytes, so a
changed summation order, a lost sign of zero or a reordered key fails.
Inputs are simulated stroke windows from both mounts plus adversarial
blocks: tags with 0, 1, 2, 3 and more than 128 reads, one-tag and empty
windows, stray ids just outside the calibrated range, equal trough times,
``restrict_to``, ``bias_weighting=False``, ``per_sample=False`` and
whole-log analysis.
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.calibration import calibrate
from repro.core.direction import detect_troughs, estimate_direction, trough_path
from repro.core.imaging import render_grey_map
from repro.core.otsu import _histogram, otsu_threshold
from repro.core.segmentation import _window_std, window_std
from repro.core.suppression import accumulative_differences
from repro.core.unwrap import total_variation, unwrap, unwrap_rows
from repro.core.window import WindowBlock, row_sums
from repro.motion.script import script_for_letter
from repro.motion.strokes import ArcOpening, StrokeKind
from repro.physics.geometry import GridLayout
from repro.rfid.reports import ReportLog
from repro.sim.runner import SessionRunner
from repro.sim.scenario import ScenarioConfig, build_scenario
from repro.units import TWO_PI

from .window_oracles import (
    accumulative_differences_per_tag,
    analyze_per_tag,
    detect_troughs_per_tag,
    estimate_direction_loop,
    otsu_threshold_loop,
    render_grey_map_loop,
    total_variation_sum,
    trough_path_loop,
    unwrap_loop,
    window_std_numpy,
)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _same_dict(got, want) -> None:
    assert list(got) == list(want)
    assert _bits(list(got.values())) == _bits(list(want.values()))


def _same_troughs(got, want) -> None:
    assert [t.tag_index for t in got] == [t.tag_index for t in want]
    assert _bits([t.time for t in got]) == _bits([t.time for t in want])
    assert _bits([t.depth_db for t in got]) == _bits([t.depth_db for t in want])


def _stroke_key(obs):
    if obs is None:
        return None
    return (
        obs.kind, obs.direction, obs.token, _bits([obs.t0, obs.t1, obs.confidence]),
        obs.opening, repr(astuple(obs.features)), obs.grey.values.tobytes(),
        obs.binary.mask.tobytes(), _bits(obs.binary.threshold), obs.trough_order,
        repr(obs.line_angle_deg),
    )


def _log(rows) -> ReportLog:
    """A log from ``(t, tag, phase, rss)`` rows, in the given order."""
    ts, tags, phases, rss = (np.array(c, dtype=float) for c in zip(*rows))
    log = ReportLog()
    log.extend_columns(
        ts, tags.astype(np.int64), phases, rss, np.zeros(ts.size),
        [f"E{int(t)}" for t in tags],
    )
    return log


# ----------------------------------------------------------------------
# Row sums and unwrapping.


def test_row_sums_match_numpy_sum_per_row():
    rng = np.random.default_rng(3)
    for _ in range(400):
        rows, width = int(rng.integers(1, 6)), int(rng.integers(1, 300))
        values = rng.standard_normal((rows, width)) * 10.0 ** rng.uniform(-3, 3, (rows, width))
        values[rng.random((rows, width)) < 0.05] = -0.0
        counts = rng.integers(0, width + 1, rows)
        # Garbage past each row's count must not leak into its sum.
        garbage = np.arange(width) >= counts[:, None]
        values[garbage] = np.nan
        want = [values[r, : counts[r]].copy().sum() for r in range(rows)]
        assert _bits(row_sums(values, counts)) == _bits(want)


def test_row_sums_lengths_around_the_lane_and_block_edges():
    rng = np.random.default_rng(5)
    lengths = [0, 1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 130, 257]
    width = max(lengths)
    values = rng.standard_normal((len(lengths), width)) * 1e3
    want = [values[r, :n].copy().sum() for r, n in enumerate(lengths)]
    assert _bits(row_sums(values, lengths)) == _bits(want)


phase_arrays = arrays(
    dtype=float,
    shape=st.integers(min_value=0, max_value=300),
    elements=st.floats(min_value=0.0, max_value=TWO_PI - 1e-9),
)


@given(phase_arrays)
@settings(max_examples=150, deadline=None)
def test_unwrap_is_the_per_sample_loop(phases):
    assert unwrap(phases).tobytes() == unwrap_loop(phases).tobytes()


@given(phase_arrays)
@settings(max_examples=100, deadline=None)
def test_total_variation_is_numpys_sum(values):
    assert _bits(total_variation(values)) == _bits(total_variation_sum(values))


def test_unwrap_rows_matches_each_row_alone():
    rng = np.random.default_rng(11)
    counts = np.array([0, 1, 2, 3, 40, 140])
    block = np.zeros((counts.size, counts.max()))
    for r, n in enumerate(counts):
        block[r, :n] = rng.uniform(0.0, TWO_PI, n)
    out = unwrap_rows(block)
    for r, n in enumerate(counts):
        assert out[r, :n].tobytes() == unwrap_loop(block[r, :n]).tobytes()


# ----------------------------------------------------------------------
# The block.


def _static_rows(ids, n=40, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for k, tag in enumerate(ids):
        centre = rng.uniform(0.0, TWO_PI)
        for i in range(n):
            rows.append((i * 0.05 + k * 1e-4, tag,
                         float(np.mod(centre + rng.normal(0, 0.05), TWO_PI)),
                         -40.0 + rng.normal(0, 0.5)))
    rows.sort(key=lambda r: r[0])
    return rows


@pytest.fixture(scope="module")
def pad9():
    """Calibration over tags 0..8 on a 3x3 grid."""
    return calibrate(_log(_static_rows(range(9)))), GridLayout(rows=3, cols=3)


def _adversarial_log(seed=1):
    """Tags with 0 (tag 0), 1, 2, 3 and 140 reads, ordinary tags, stray
    ids -1 and 9, and RSS dips deep enough to make troughs."""
    rng = np.random.default_rng(seed)
    reads = {1: 1, 2: 2, 3: 3, 4: 140, 5: 12, 6: 30, 7: 9, 8: 20, -1: 15, 9: 15}
    rows = []
    for tag, n in reads.items():
        ts = np.sort(rng.uniform(0.0, 3.0, n))
        dip = 8.0 * np.exp(-((ts - rng.uniform(0.5, 2.5)) / 0.3) ** 2)
        for t, d in zip(ts, dip):
            rows.append((float(t), tag, float(rng.uniform(0.0, TWO_PI)),
                         float(-40.0 - d + rng.normal(0, 0.3))))
    rows.sort(key=lambda r: r[0])
    return _log(rows)


def test_block_rows_follow_first_appearance_and_skip_strays(pad9):
    cal, _ = pad9
    log = _log([(0.0, 7, 1.0, -40.0), (0.1, -1, 1.0, -40.0), (0.2, 2, 2.0, -41.0),
                (0.3, 9, 1.0, -40.0), (0.4, 7, 3.0, -42.0), (0.5, 5, 4.0, -43.0)])
    block = WindowBlock.from_log(log, cal.table)
    assert block.ids.tolist() == [7, 2, 5]
    assert block.counts.tolist() == [2, 1, 1]
    assert block.phase.tolist() == [[1.0, 3.0], [2.0, 0.0], [4.0, 0.0]]
    assert block.valid.tolist() == [[True, True], [True, False], [True, False]]
    # Ids just outside the calibrated range land in sentinel slots.
    assert cal.table.slots(np.array([-1, 9, -50, 50])).tolist() == [0, 10, 0, 10]
    assert not cal.table.known[[0, 10]].any()


def test_empty_window_block(pad9):
    cal, _ = pad9
    block = WindowBlock.from_log(_adversarial_log(), cal.table, 10.0, 11.0)
    assert block.ids.size == 0 and block.reads == 0


# ----------------------------------------------------------------------
# Suppression, troughs, imaging and Otsu on adversarial windows.


WINDOWS = [(None, None), (0.0, 3.0), (0.4, 1.7), (1.0, 1.2), (10.0, 11.0), (None, 1.5)]


@pytest.mark.parametrize("t0,t1", WINDOWS)
@pytest.mark.parametrize("per_sample", [True, False])
@pytest.mark.parametrize("bias_weighting", [True, False])
def test_suppression_matches_per_tag(pad9, t0, t1, per_sample, bias_weighting):
    cal, _ = pad9
    log = _adversarial_log()
    got = accumulative_differences(log, cal, t0, t1, per_sample, bias_weighting)
    raw, suppressed, counts = accumulative_differences_per_tag(
        log, cal, t0, t1, per_sample, bias_weighting
    )
    _same_dict(got.raw, raw)
    _same_dict(got.suppressed, suppressed)
    assert got.read_counts == counts and list(got.read_counts) == list(counts)


@pytest.mark.parametrize("t0,t1", WINDOWS)
@pytest.mark.parametrize("restrict_to", [None, [4, 6, 8, -1, 9], [2]])
def test_troughs_match_per_tag(pad9, t0, t1, restrict_to):
    cal, _ = pad9
    for seed in range(4):
        log = _adversarial_log(seed)
        _same_troughs(
            detect_troughs(log, cal, t0, t1, restrict_to=restrict_to),
            detect_troughs_per_tag(log, cal, t0, t1, restrict_to=restrict_to),
        )


def test_one_tag_window(pad9):
    cal, layout = pad9
    rng = np.random.default_rng(2)
    ts = np.linspace(0.0, 1.0, 25)
    log = _log([(t, 6, float(rng.uniform(0, TWO_PI)), -40.0 - 6.0 * np.sin(np.pi * t))
                for t in ts])
    got = accumulative_differences(log, cal)
    raw, suppressed, _ = accumulative_differences_per_tag(log, cal)
    _same_dict(got.suppressed, suppressed)
    _same_dict(got.raw, raw)
    _same_troughs(detect_troughs(log, cal), detect_troughs_per_tag(log, cal))
    assert len(detect_troughs(log, cal)) == 1


def test_equal_trough_times_keep_first_appearance_order():
    # Every tag's static RSS is exactly -40 dBm, so equal dips give equal
    # trough times.
    cal = calibrate(_log([(t, tag, p, -40.0) for t, tag, p, _ in _static_rows(range(9))]))
    ts = np.linspace(0.0, 1.0, 21)
    dip = 6.0 * np.exp(-((ts - 0.5) / 0.15) ** 2)
    rows = []
    for t, d in zip(ts, dip):
        # Tag 7 appears first; tags 7, 3 and 5 dip identically.
        for tag in (7, 3, 5):
            rows.append((float(t), tag, 1.0, float(-40.0 - d)))
    troughs = detect_troughs(_log(rows), cal)
    assert [t.tag_index for t in troughs] == [7, 3, 5]
    assert len({t.time for t in troughs}) == 1
    _same_troughs(troughs, detect_troughs_per_tag(_log(rows), cal))


def test_loose_tag_in_the_calibration(pad9):
    # A calibration that includes a loose tag (-1) scores it like any other
    # tag, and the grey map leaves it out.
    _, layout = pad9
    cal = calibrate(_log(_static_rows([-1, *range(9)], seed=4)))
    log = _adversarial_log(3)
    got = accumulative_differences(log, cal)
    _, suppressed, _ = accumulative_differences_per_tag(log, cal)
    _same_dict(got.suppressed, suppressed)
    assert -1 in got.suppressed
    assert (render_grey_map(got.suppressed, layout).values.tobytes()
            == render_grey_map_loop(suppressed, layout).values.tobytes())


def test_grey_map_matches_loop():
    rng = np.random.default_rng(9)
    layout = GridLayout(rows=5, cols=5)
    for _ in range(200):
        ids = rng.choice(np.arange(-3, 25), size=int(rng.integers(0, 28)), replace=False)
        values = {int(i): float(v) for i, v in zip(ids, rng.normal(0.0, 1.0, ids.size))}
        if values:
            values[next(iter(values))] = -0.0
        got = render_grey_map(values, layout).values
        assert got.tobytes() == render_grey_map_loop(values, layout).values.tobytes()


otsu_inputs = arrays(
    dtype=float,
    shape=st.integers(min_value=1, max_value=40),
    elements=st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
)


@given(otsu_inputs, st.sampled_from([2, 3, 8, 64]))
@settings(max_examples=300, deadline=None)
def test_otsu_matches_loop(values, bins):
    assert _bits(otsu_threshold(values, bins)) == _bits(otsu_threshold_loop(values, bins))


@given(otsu_inputs, st.sampled_from([2, 3, 8, 64]))
@settings(max_examples=300, deadline=None)
def test_otsu_histogram_is_numpys(values, bins):
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo or (hi - lo) / bins == 0.0:
        return
    hist, edges = _histogram(values, lo, hi, bins)
    want_hist, want_edges = np.histogram(values, bins=bins, range=(lo, hi))
    assert hist.tolist() == want_hist.tolist()
    assert edges.tobytes() == want_edges.tobytes()


@pytest.mark.parametrize("scale", [1.0, 3.0])
def test_otsu_near_tie_input(scale):
    values = np.array([66.0, 0.0, 0.0, 74.0, 35.0]) * scale
    assert _bits(otsu_threshold(values)) == _bits(otsu_threshold_loop(values))


# ----------------------------------------------------------------------
# Simulated windows from both mounts.


@pytest.fixture(scope="module", params=["nlos", "los"])
def mount_windows(request):
    runner = SessionRunner(build_scenario(ScenarioConfig(seed=5, mount=request.param)))
    pad = runner.pad
    ctx = pad.stage_context()
    logs = [runner.run_script(script_for_letter(c, runner.rng)) for c in "AKT"]
    windows = [
        (log, w.t0, w.t1)
        for log in logs
        for w in pad.stages.segmentation.run(ctx, log)
    ]
    windows += [(log, None, None) for log in logs]  # whole-log analysis
    return pad, windows


def test_simulated_windows_match_per_tag(mount_windows):
    pad, windows = mount_windows
    cal = pad.calibration
    assert len(windows) > 3
    for log, t0, t1 in windows:
        got = accumulative_differences(log, cal, t0, t1)
        raw, suppressed, counts = accumulative_differences_per_tag(log, cal, t0, t1)
        _same_dict(got.raw, raw)
        _same_dict(got.suppressed, suppressed)
        _same_troughs(detect_troughs(log, cal, t0, t1), detect_troughs_per_tag(log, cal, t0, t1))


def test_direction_vote_and_path_match_loops(mount_windows):
    pad, windows = mount_windows
    layout = pad.stage_context().layout
    for log, t0, t1 in windows:
        troughs = detect_troughs(log, pad.calibration, t0, t1)
        assert repr(trough_path(troughs, layout)) == repr(trough_path_loop(troughs, layout))
        for kind in StrokeKind:
            for opening in (None, *ArcOpening):
                got = estimate_direction(kind, troughs, layout, opening)
                want = estimate_direction_loop(kind, troughs, layout, opening)
                assert got[0] is want[0] and _bits(got[1]) == _bits(want[1])


def test_analyzer_matches_per_tag_composition(mount_windows):
    pad, windows = mount_windows
    ctx = pad.stage_context()
    for log, t0, t1 in windows:
        got = pad.stages.analyzer.analyze(ctx, log, t0, t1)
        assert _stroke_key(got) == _stroke_key(analyze_per_tag(pad.stages, ctx, log, t0, t1))


# ----------------------------------------------------------------------
# The segmenter's window std.


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 9])
def test_window_std_helper_is_numpys_std(n):
    rng = np.random.default_rng(n)
    for _ in range(2000):
        values = (rng.standard_normal(n) * 10.0 ** rng.uniform(-4, 2)).tolist()
        assert _bits(_window_std(values)) == _bits(np.std(values))


def test_window_std_matches_sliding_numpy_std():
    rng = np.random.default_rng(17)
    for frames in (2, 5, 8):
        for n in (0, 1, 4, 5, 30):
            rms = np.abs(rng.standard_normal(n))
            assert window_std(rms, frames).tobytes() == window_std_numpy(rms, frames).tobytes()
