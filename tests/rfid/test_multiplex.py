import numpy as np
import pytest

from repro.rfid.multiplex import MultiplexedReader, ReaderPort
from repro.rfid.reader import ReaderConfig
from repro.sim.scenario import ScenarioConfig, build_scenario


@pytest.fixture()
def two_pads():
    a = build_scenario(ScenarioConfig(seed=1))
    b = build_scenario(ScenarioConfig(seed=2))
    ports = [
        ReaderPort(a.antenna, a.array, a.environment),
        ReaderPort(b.antenna, b.array, b.environment),
    ]
    return MultiplexedReader(
        ports,
        ReaderConfig(),
        rngs=[np.random.default_rng(0), np.random.default_rng(1)],
    )


def test_validation():
    with pytest.raises(ValueError):
        MultiplexedReader([], ReaderConfig(), rngs=[])
    scenario = build_scenario(ScenarioConfig(seed=1))
    port = ReaderPort(scenario.antenna, scenario.array)
    with pytest.raises(ValueError):
        MultiplexedReader(
            [port], ReaderConfig(), dwell_s=0.0, rngs=[np.random.default_rng(0)]
        )


def test_both_pads_get_reads(two_pads):
    logs = two_pads.collect(2.0, [None, None])
    assert len(logs) == 2
    assert len(logs[0]) > 30
    assert len(logs[1]) > 30


def test_duty_cycle_halves_per_pad_rate(two_pads):
    logs = two_pads.collect(4.0, [None, None])
    # Each pad is served ~half the time: per-pad read count should be well
    # below a dedicated reader's (>150/s) but still substantial.
    for log in logs:
        rate = len(log) / 4.0
        assert 40.0 < rate < 160.0


def test_timestamps_on_shared_clock(two_pads):
    logs = two_pads.collect(1.5, [None, None])
    for log in logs:
        times = [r.timestamp for r in log]
        assert times == sorted(times)
        assert times[-1] <= 1.8


def test_dwell_interleaving(two_pads):
    logs = two_pads.collect(1.0, [None, None])
    # Port 0 owns [0, 0.25) and [0.5, 0.75); port 1 the rest — reads must
    # respect their dwell slots, allowing the in-flight inventory round to
    # overhang a slot boundary by up to one round (~tens of ms).
    for r in logs[0]:
        slot = (r.timestamp // 0.25) % 2
        assert slot == 0 or r.timestamp % 0.25 < 0.15
    assert len(logs[1]) > 0


def test_pose_callbacks_validated(two_pads):
    with pytest.raises(ValueError):
        two_pads.collect(1.0, [None])
    with pytest.raises(ValueError):
        two_pads.collect(0.0, [None, None])


def test_antenna_ports_recorded(two_pads):
    logs = two_pads.collect(1.0, [None, None])
    assert {r.antenna_port for r in logs[0]} == {1}
    assert {r.antenna_port for r in logs[1]} == {2}


# ----------------------------------------------------------------------
# Dwell scheduling: fairness, determinism, and the 1-port degeneracy.


@pytest.mark.parametrize("port_count", [2, 3, 4])
def test_dwell_totals_fair_across_port_counts(port_count):
    from repro.rfid.multiplex import DwellScheduler

    sched = DwellScheduler(port_count, dwell_s=0.25)
    for duration in (1.0, 3.3, 10.0):
        totals = sched.dwell_totals(duration)
        assert len(totals) == port_count
        assert sum(totals) == pytest.approx(duration)
        # Round-robin fairness: no port leads another by more than one
        # dwell slot, whatever the duration's remainder.
        assert max(totals) - min(totals) <= 0.25 + 1e-12


@pytest.mark.parametrize("port_count", [2, 3, 4])
def test_dwell_plan_deterministic(port_count):
    from repro.rfid.multiplex import DwellScheduler

    a = DwellScheduler(port_count, dwell_s=0.1).plan(2.7)
    b = DwellScheduler(port_count, dwell_s=0.1).plan(2.7)
    assert a == b  # pure data: same args, same plan, no clock involved
    # Slices tile [0, duration) contiguously in round-robin port order.
    assert a[0].t0 == 0.0
    assert a[-1].t1 == pytest.approx(2.7)
    for prev, cur in zip(a, a[1:]):
        assert cur.t0 == pytest.approx(prev.t1)
        assert cur.port == (prev.port + 1) % port_count


def test_single_port_plan_is_one_contiguous_slice():
    from repro.rfid.multiplex import DwellScheduler

    plan = DwellScheduler(1, dwell_s=0.25).plan(4.0)
    assert len(plan) == 1
    assert (plan[0].port, plan[0].t0, plan[0].t1) == (0, 0.0, 4.0)


def test_single_port_collect_bit_identical_to_solo_reader():
    from repro.physics.noise import ReceiverNoise
    from repro.rfid.reader import Reader

    scenario = build_scenario(ScenarioConfig(seed=5))
    solo = Reader(
        scenario.antenna,
        scenario.array,
        ReaderConfig(),
        scenario.environment,
        ReceiverNoise(),
        rng=np.random.default_rng(11),
    )
    solo_log = solo.collect(2.0)

    mux = MultiplexedReader(
        [ReaderPort(scenario.antenna, scenario.array, scenario.environment)],
        ReaderConfig(),
        rngs=[np.random.default_rng(11)],
    )
    (mux_log,) = mux.collect_static(2.0)
    for solo_col, mux_col in zip(solo_log.columns(), mux_log.columns()):
        assert np.array_equal(solo_col, mux_col)


def test_per_port_rng_streams_isolate_ports():
    # With per-port RNGs, port 0's log must not depend on what scenario
    # port 1 carries: swap pad B for a different deployment and pad A's
    # stream stays bit-identical.
    a = build_scenario(ScenarioConfig(seed=1))

    def mux_with_partner(partner):
        ports = [
            ReaderPort(a.antenna, a.array, a.environment),
            ReaderPort(partner.antenna, partner.array, partner.environment),
        ]
        return MultiplexedReader(
            ports,
            ReaderConfig(),
            rngs=[np.random.default_rng(10), np.random.default_rng(20)],
        )

    logs_b = mux_with_partner(build_scenario(ScenarioConfig(seed=2))).collect_static(2.0)
    logs_c = mux_with_partner(build_scenario(ScenarioConfig(seed=3))).collect_static(2.0)
    for col_b, col_c in zip(logs_b[0].columns(), logs_c[0].columns()):
        assert np.array_equal(col_b, col_c)
    # Sanity: the partner pads themselves do differ.
    assert len(logs_b[1]) != len(logs_c[1]) or not np.array_equal(
        logs_b[1].columns()[2], logs_c[1].columns()[2]
    )


def test_rngs_length_validated():
    scenario = build_scenario(ScenarioConfig(seed=1))
    port = ReaderPort(scenario.antenna, scenario.array, scenario.environment)
    with pytest.raises(ValueError):
        MultiplexedReader(
            [port, port], ReaderConfig(), rngs=[np.random.default_rng(0)]
        )


def test_vectorized_property_reports_engine_path(two_pads):
    assert two_pads.vectorized


# ----------------------------------------------------------------------
# One collect per port over its dwell plan equals one collect per slice.


def _per_slice_collect(mux, duration, pose_fns):
    """Reference: visit the plan in time order, one ``Reader.collect``
    per slice; returns the logs and each port's per-slice MAC stats."""
    from repro.rfid.reports import ReportLog

    logs = [ReportLog() for _ in mux.readers]
    stats = [[] for _ in mux.readers]
    for s in mux.scheduler.plan(duration):
        reader = mux.readers[s.port]
        reader.collect(s.duration, pose_fns[s.port], start_time=s.t0, log=logs[s.port])
        stats[s.port].append(reader.last_inventory_stats)
    return logs, stats


def _assert_ports_equal(mux, oracle_mux, logs, oracle_logs, oracle_stats):
    assert len(logs) == len(oracle_logs)
    for log, ref in zip(logs, oracle_logs):
        for col, ref_col in zip(log.columns(), ref.columns()):
            assert np.array_equal(col, ref_col)
    for reader, ref_reader, parts in zip(mux.readers, oracle_mux.readers, oracle_stats):
        assert reader.rng.bit_generator.state == ref_reader.rng.bit_generator.state
        if not parts:
            continue
        stats = reader.last_inventory_stats
        assert stats.successes == sum(p.successes for p in parts)
        assert stats.collisions == sum(p.collisions for p in parts)
        assert stats.idles == sum(p.idles for p in parts)
        assert stats.elapsed == sum(p.elapsed for p in parts)


def _session_equals_per_slice(base, tiles_x, tiles_y, letters):
    """A calibration collect and then ``letters`` on one workspace, through
    ``Workspace.collect_tiles`` and through the per-slice reference."""
    from repro.motion.script import script_for_letter
    from repro.sim.workspace import WorkspaceConfig, build_workspace

    config = WorkspaceConfig(base=base, tiles_x=tiles_x, tiles_y=tiles_y)
    ws = build_workspace(config)
    ref = build_workspace(config)
    logs = ws.collect_tiles(3.0)
    oracle_logs, oracle_stats = _per_slice_collect(ref.mux, 3.0, [None] * ref.tile_count)
    _assert_ports_equal(ws.mux, ref.mux, logs, oracle_logs, oracle_stats)
    for letter in letters:
        script = script_for_letter(letter, ws.rng)
        ref_script = script_for_letter(letter, ref.rng)
        logs = ws.collect_tiles(script.duration, script)
        oracle_logs, oracle_stats = _per_slice_collect(
            ref.mux, ref_script.duration, ref.tile_views(ref_script)
        )
        _assert_ports_equal(ws.mux, ref.mux, logs, oracle_logs, oracle_stats)
        assert sum(len(log) for log in logs) > 0


@pytest.mark.parametrize("mount", ["nlos", "los"])
@pytest.mark.parametrize("tiles", [(2, 1), (2, 2)], ids=["2x1", "2x2"])
def test_workspace_session_equals_per_slice_collects(mount, tiles):
    # Doppler history and RNG streams carry from the calibration collect
    # through three letters, so every collect starts from the state the
    # previous one left behind.
    base = ScenarioConfig(seed=4, mount=mount, location=2)
    _session_equals_per_slice(base, *tiles, letters="LTA")


def test_scalar_inventory_equals_per_slice_collects(monkeypatch):
    monkeypatch.setenv("REPRO_SCALAR_INVENTORY", "1")
    _session_equals_per_slice(ScenarioConfig(seed=5), 2, 1, letters="L")


def test_collect_shorter_than_one_dwell_leaves_idle_port_untouched():
    from repro.sim.workspace import WorkspaceConfig, build_workspace

    config = WorkspaceConfig(base=ScenarioConfig(seed=6), tiles_x=2)
    ws = build_workspace(config)
    ref = build_workspace(config)
    idle_state = ws.mux.readers[1].rng.bit_generator.state
    logs = ws.collect_tiles(0.03)
    oracle_logs, oracle_stats = _per_slice_collect(ref.mux, 0.03, [None, None])
    assert len(logs[0]) > 0
    assert len(logs[1]) == 0
    assert ws.mux.readers[1].rng.bit_generator.state == idle_state
    _assert_ports_equal(ws.mux, ref.mux, logs, oracle_logs, oracle_stats)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"slices": []},
        {"slices": [(0.0, 0.1), (0.2, 0.2)]},
        {"slices": [(0.3, 0.1)]},
        {"duration": 1.0, "slices": [(0.0, 0.1)]},
        {},
    ],
)
def test_slice_plan_validated(kwargs):
    from repro.rfid.reader import Reader

    scenario = build_scenario(ScenarioConfig(seed=1))
    reader = Reader(scenario.antenna, scenario.array, environment=scenario.environment)
    with pytest.raises(ValueError):
        reader.collect(**kwargs)
