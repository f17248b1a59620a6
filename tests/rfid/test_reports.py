import pickle

import numpy as np
import pytest

from repro.rfid.reports import ReportLog, TagReadReport


def _report(tag: int, t: float, phase: float = 1.0, rss: float = -40.0) -> TagReadReport:
    return TagReadReport(
        epc=f"E-{tag:04d}", tag_index=tag, timestamp=t, phase_rad=phase, rss_dbm=rss
    )


def test_append_and_len():
    log = ReportLog()
    log.append(_report(0, 0.0))
    log.extend([_report(1, 0.1), _report(0, 0.2)])
    assert len(log) == 3


def test_iteration_sorted_even_if_appended_out_of_order():
    log = ReportLog([_report(0, 0.5), _report(1, 0.1), _report(2, 0.3)])
    times = [r.timestamp for r in log]
    assert times == sorted(times)


def test_duration_and_bounds():
    log = ReportLog([_report(0, 1.0), _report(0, 3.5)])
    assert log.duration == pytest.approx(2.5)
    assert log.start_time == 1.0
    assert log.end_time == 3.5


def test_empty_log_properties():
    log = ReportLog()
    assert log.duration == 0.0
    with pytest.raises(ValueError):
        _ = log.start_time
    with pytest.raises(ValueError):
        _ = log.end_time


def test_per_tag_series():
    log = ReportLog(
        [_report(0, 0.0, phase=1.0), _report(1, 0.1, phase=2.0), _report(0, 0.2, phase=3.0)]
    )
    series = log.per_tag()
    assert set(series) == {0, 1}
    assert list(series[0].phases) == [1.0, 3.0]
    assert len(series[1]) == 1


def test_series_slice_time():
    log = ReportLog([_report(0, t / 10.0) for t in range(10)])
    series = log.per_tag()[0]
    sliced = series.slice_time(0.25, 0.65)
    assert list(sliced.timestamps) == pytest.approx([0.3, 0.4, 0.5, 0.6])


def test_log_slice_time_half_open():
    log = ReportLog([_report(0, float(t)) for t in range(5)])
    window = log.slice_time(1.0, 3.0)
    assert [r.timestamp for r in window] == [1.0, 2.0]


def test_read_count_and_tag_indices():
    log = ReportLog([_report(0, 0.0), _report(0, 0.1), _report(3, 0.2)])
    assert log.read_count(0) == 2
    assert log.read_count(9) == 0
    assert log.tag_indices() == [0, 3]


def test_aggregate_read_rate():
    log = ReportLog([_report(0, t * 0.01) for t in range(101)])
    assert log.aggregate_read_rate() == pytest.approx(101.0, rel=0.02)


def test_getitem_sorted():
    log = ReportLog([_report(0, 2.0), _report(1, 1.0)])
    assert log[0].timestamp == 1.0


# -- columnar-storage property tests ----------------------------------------
#
# The log is struct-of-arrays with searchsorted/mask views; these checks pin
# its behaviour to the historical row-list semantics over randomized data.


def _random_log(rng: np.random.Generator, n: int = 200):
    ts = np.round(rng.uniform(0.0, 10.0, n), 3)
    tags = rng.integers(0, 6, n).astype(np.int64)
    phases = rng.uniform(0.0, 6.28, n)
    rss = rng.uniform(-70.0, -30.0, n)
    dopp = rng.normal(0.0, 5.0, n)
    epcs = [f"E-{int(t):04d}" for t in tags]
    log = ReportLog()
    half = n // 2
    # Mixed producers: a bulk columnar block plus row-at-a-time appends.
    log.extend_columns(ts[:half], tags[:half], phases[:half], rss[:half],
                       dopp[:half], epcs[:half])
    for i in range(half, n):
        log.append(TagReadReport(
            epc=epcs[i], tag_index=int(tags[i]), timestamp=float(ts[i]),
            phase_rad=float(phases[i]), rss_dbm=float(rss[i]),
            doppler_hz=float(dopp[i]),
        ))
    rows = [
        TagReadReport(
            epc=epcs[i], tag_index=int(tags[i]), timestamp=float(ts[i]),
            phase_rad=float(phases[i]), rss_dbm=float(rss[i]),
            doppler_hz=float(dopp[i]),
        )
        for i in range(n)
    ]
    rows.sort(key=lambda r: r.timestamp)
    return log, rows


def test_mixed_producers_iterate_like_sorted_row_list():
    rng = np.random.default_rng(0)
    log, rows = _random_log(rng)
    assert list(log) == rows


def test_slice_time_matches_bruteforce_filter():
    rng = np.random.default_rng(1)
    log, rows = _random_log(rng)
    for _ in range(20):
        t0, t1 = sorted(rng.uniform(-1.0, 11.0, 2).tolist())
        got = list(log.slice_time(t0, t1))
        want = [r for r in rows if t0 <= r.timestamp < t1]
        assert got == want


def test_per_tag_matches_bruteforce_groupby():
    rng = np.random.default_rng(2)
    log, rows = _random_log(rng)
    series = log.per_tag()
    buckets: dict = {}
    for r in rows:
        buckets.setdefault(r.tag_index, []).append(r)
    # Same keys, in first-appearance order of the time-sorted stream.
    assert list(series) == list(buckets)
    for tag, bucket in buckets.items():
        s = series[tag]
        assert s.epc == bucket[0].epc
        assert s.timestamps.tolist() == [r.timestamp for r in bucket]
        assert s.phases.tolist() == [r.phase_rad for r in bucket]
        assert s.rss.tolist() == [r.rss_dbm for r in bucket]


def test_slice_time_returns_views_not_copies():
    log = ReportLog([_report(0, float(t)) for t in range(8)])
    window = log.slice_time(2.0, 6.0)
    assert np.shares_memory(window.timestamps, log.timestamps)


def test_stable_order_for_equal_timestamps():
    # Ties must keep producer order (stable sort), like list.sort did.
    log = ReportLog()
    log.append(_report(3, 1.0, phase=0.1))
    log.append(_report(1, 0.5))
    log.append(_report(4, 1.0, phase=0.2))
    assert [(r.tag_index, r.phase_rad) for r in log] == [
        (1, 1.0), (3, 0.1), (4, 0.2)
    ]


def test_append_after_reading_an_unsorted_log_stays_sorted():
    # Reading sorts the columns; the next append must be checked against
    # the newest read (5.0), not the last one appended (3.0).
    def block(ts):
        n = len(ts)
        return (np.array(ts), np.arange(n), np.zeros(n), np.zeros(n), np.zeros(n),
                ["E"] * n)

    log = ReportLog()
    log.extend_columns(*block([5.0, 3.0]))
    assert log.columns()[0].tolist() == [3.0, 5.0]
    log.extend_columns(*block([4.0]))
    assert log.columns()[0].tolist() == [3.0, 4.0, 5.0]


def test_drop_before_releases_the_dropped_prefix():
    log = ReportLog()
    for k in range(50):
        ts = np.linspace(k, k + 0.99, 100)
        log.extend_columns(ts, np.zeros(100, dtype=np.int64), ts, ts, ts, ["E"] * 100)
        log.drop_before(k - 2.0)
    # 300 live reads out of 5000 appended; the buffers hold at most twice
    # the live reads plus the last chunk.
    assert len(log) == 300
    assert log.columns()[0][0] == 47.0
    assert log.columns()[0].base.size <= 2 * (len(log) + 100)


def test_one_bulk_append_is_sized_exactly():
    ts = np.linspace(0.0, 1.0, 500)
    log = ReportLog()
    log.extend_columns(ts, np.zeros(500, dtype=np.int64), ts, ts, ts, ["E"] * 500)
    assert log.columns()[0].base.size == 500


# -- pickling: how logs travel back from battery worker processes -----------


def _collected_log():
    from repro.sim.scenario import ScenarioConfig, build_scenario

    return build_scenario(ScenarioConfig(seed=3)).make_reader().collect_static(0.3)


def _staged_log():
    # A bulk block, then single-row appends still staged (one out of order).
    log = ReportLog()
    ts = np.linspace(0.0, 1.0, 20)
    log.extend_columns(ts, np.arange(20) % 5, ts, ts, ts, ["E"] * 20)
    log.append(_report(2, 3.0))
    log.append(_report(1, 2.5))
    return log


def _view_log():
    log, _ = _random_log(np.random.default_rng(5))
    return log.slice_time(2.0, 6.0)


def _dropped_log():
    # A dead prefix smaller than the live part stays in the buffers: the
    # live reads start at an offset.
    log = ReportLog()
    ts = np.linspace(0.0, 9.9, 100)
    log.extend_columns(ts, np.arange(100) % 5, ts, ts, ts, ["E"] * 100)
    assert log.drop_before(3.0) == 30
    assert log.columns()[0].base.size > len(log)
    return log


@pytest.mark.parametrize(
    "make",
    [_collected_log, _staged_log, _view_log, _dropped_log, ReportLog],
    ids=["collect", "staged", "view", "dropped", "empty"],
)
def test_pickle_round_trip(make):
    log = make()
    copy = pickle.loads(pickle.dumps(log))
    want = [col.copy() for col in log.columns()]
    assert len(copy) == len(log)
    for got, ref in zip(copy.columns(), want):
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)
    # The copy owns its buffers: appending to it leaves the original as is.
    copy.append(_report(4, 100.0))
    copy.extend_columns(np.array([101.0]), np.array([3]), np.zeros(1), np.zeros(1),
                        np.zeros(1), ["E-0003"])
    assert len(copy) == len(log) + 2
    assert len(log) == len(want[0])
    for col, ref in zip(log.columns(), want):
        assert col.dtype == ref.dtype
        assert np.array_equal(col, ref)
