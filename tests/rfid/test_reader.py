import numpy as np
import pytest

from repro.physics.antenna import ReaderAntenna
from repro.physics.geometry import Vec3
from repro.physics.hand import HandPose
from repro.physics.multipath import location_preset
from repro.rfid.deployment import deploy_array
from repro.rfid.reader import Reader, ReaderConfig
from repro.units import PHASE_QUANTUM_RAD, TWO_PI

from ..physics.read_oracles import doppler_estimate_hz


@pytest.fixture()
def reader(rng) -> Reader:
    array = deploy_array(rng)
    antenna = ReaderAntenna(Vec3(0, 0, -0.32), Vec3(0, 0, 1), gain_dbi=8.0)
    return Reader(antenna, array, ReaderConfig(), location_preset(2), rng=rng)


def test_all_tags_readable_at_default_power(reader):
    assert len(reader.readable_indices(None)) == 25


def test_low_power_drops_tags(rng):
    array = deploy_array(rng)
    antenna = ReaderAntenna(Vec3(0, 0, -0.32), Vec3(0, 0, 1), gain_dbi=8.0)
    weak = Reader(antenna, array, ReaderConfig(tx_power_dbm=-5.0), rng=rng)
    assert len(weak.readable_indices(None)) < 25


def test_hand_shadow_can_unpower_tag(reader):
    tag = reader.array.tag_at(2, 2)
    pose = HandPose(Vec3(tag.position.x, tag.position.y, 0.015))
    with_hand = reader.incident_power_w(tag.index, pose)
    without = reader.incident_power_w(tag.index, None)
    assert with_hand < without


def test_observe_tag_report_fields(reader):
    report = reader.observe_tag(12, 1.5, None)
    assert report.tag_index == 12
    assert report.timestamp == 1.5
    assert 0.0 <= report.phase_rad < TWO_PI
    assert -90.0 < report.rss_dbm < 0.0


def test_observe_tag_phase_includes_tag_diversity(rng):
    array = deploy_array(rng)
    antenna = ReaderAntenna(Vec3(0, 0, -0.32), Vec3(0, 0, 1), gain_dbi=8.0)
    reader = Reader(antenna, array, rng=np.random.default_rng(0))
    # Two tags symmetric about the boresight share geometry but their
    # reported phases differ because theta_tag differs.
    a = np.mean([reader.observe_tag(11, t * 0.1, None).phase_rad for t in range(20)])
    b = np.mean([reader.observe_tag(13, t * 0.1, None).phase_rad for t in range(20)])
    assert abs(a - b) > 0.05


def test_doppler_populated_after_second_read(reader):
    first = reader.observe_tag(0, 0.0, None)
    second = reader.observe_tag(0, 0.1, None)
    assert first.doppler_hz == 0.0
    assert isinstance(second.doppler_hz, float)


def test_collect_produces_time_ordered_log(reader):
    log = reader.collect_static(1.0)
    times = [r.timestamp for r in log]
    assert times == sorted(times)
    assert len(log) > 50
    assert set(log.tag_indices()) <= set(range(25))


def test_collect_duration_validated(reader):
    with pytest.raises(ValueError):
        reader.collect(0.0)


def test_collect_with_hand_changes_reports(rng):
    array = deploy_array(np.random.default_rng(3))
    antenna = ReaderAntenna(Vec3(0, 0, -0.32), Vec3(0, 0, 1), gain_dbi=8.0)
    reader = Reader(antenna, array, rng=np.random.default_rng(3))
    static = reader.collect_static(1.5)

    tag = array.tag_at(2, 2)
    pose = HandPose(Vec3(tag.position.x, tag.position.y, 0.03))
    hand_log = reader.collect(1.5, lambda t: pose)

    idx = tag.index
    static_rss = static.per_tag()[idx].rss.mean()
    hand_series = hand_log.per_tag().get(idx)
    # Either the tag dropped out entirely (deep shadow) or its RSS dropped.
    assert hand_series is None or hand_series.rss.mean() < static_rss


def test_inventory_stats_exposed(reader):
    reader.collect_static(0.5)
    assert reader.last_inventory_stats.successes > 0


def _scalar_doppler(history, times, winners, phases):
    """The per-read Doppler loop the reader's array fold replaces: reads in
    emit order, each against its tag's previous read in ``history``."""
    out = []
    for w, t, phase in zip(winners.tolist(), times.tolist(), phases.tolist()):
        doppler = 0.0
        prev = history.get(w)
        if prev is not None and t > prev[0]:
            doppler = doppler_estimate_hz(phase, prev[1], t - prev[0])
        history[w] = (t, phase)
        out.append(doppler)
    return np.array(out)


class TestDopplerFold:
    """``Reader._doppler`` equals the scalar per-read loop bit for bit."""

    def _windows(self, rng):
        def quantised(n):
            return rng.integers(0, int(TWO_PI / PHASE_QUANTUM_RAD) + 1, n) * PHASE_QUANTUM_RAD % TWO_PI

        def window(t0, n, tags):
            times = np.sort(t0 + rng.uniform(0.0, 1.0, n))
            times[n // 2] = times[n // 2 - 1]  # one repeated clock
            return times, rng.choice(tags, n), quantised(n)

        everyone = np.arange(25)
        yield "first", window(0.0, 300, everyone)
        yield "history carried over", window(1.0, 300, everyone)
        yield "restart at t = 0", window(0.0, 200, everyone)
        yield "one tag", window(1.0, 60, np.array([7]))
        once = rng.permutation(25)[:12]
        yield "tags read once", (np.sort(rng.uniform(2.0, 3.0, 12)), once, quantised(12))
        yield "one read", (np.array([3.5]), np.array([7]), quantised(1))

    def test_array_fold_equals_scalar_loop(self, reader, rng):
        history = {}
        for name, (times, winners, phases) in self._windows(rng):
            want = _scalar_doppler(history, times, winners, phases)
            got = reader._doppler(times, winners, phases)
            assert got.tobytes() == want.tobytes(), name
            if name == "restart at t = 0":
                # Every tag's first read is older than its history: 0 Hz.
                _, first = np.unique(winners, return_index=True)
                assert (got[first] == 0.0).all()
            if name == "one tag":
                # Consecutive reads of one tag: both folds fire.
                dphi = np.diff(phases)
                assert (dphi > np.pi).any() and (dphi < -np.pi).any()
                assert (got != 0.0).sum() >= times.size - 2

    def test_reset_forgets_history(self, reader, rng):
        times, winners, phases = np.array([0.5, 0.6]), np.array([3, 3]), np.array([1.0, 1.5])
        reader._doppler(times, winners, phases)
        reader.reset_read_history()
        got = reader._doppler(times + 1.0, winners, phases)
        assert got[0] == 0.0
        assert got.tobytes() == _scalar_doppler({}, times + 1.0, winners, phases).tobytes()
