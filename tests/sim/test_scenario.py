import pytest

from repro.sim.scenario import ScenarioConfig, build_scenario


def test_default_scenario_matches_prototype():
    s = build_scenario()
    assert s.layout.rows == 5 and s.layout.cols == 5
    assert len(s.array) == 25
    assert s.config.mount == "nlos"
    assert s.antenna.position.z == pytest.approx(-0.32)


def test_nlos_antenna_behind_plane():
    s = build_scenario(ScenarioConfig(mount="nlos", reader_distance=0.5))
    assert s.antenna.position.z == pytest.approx(-0.5)
    assert s.antenna.boresight.z > 0


def test_los_antenna_overhead():
    s = build_scenario(ScenarioConfig(mount="los"))
    assert s.antenna.position.z > 0.5
    assert s.antenna.boresight.z < 0  # looking down at the pad


def test_angle_tilts_boresight():
    straight = build_scenario(ScenarioConfig(reader_angle_deg=0.0))
    tilted = build_scenario(ScenarioConfig(reader_angle_deg=45.0))
    assert abs(tilted.antenna.boresight.x) > abs(straight.antenna.boresight.x)


def test_reader_inherits_config():
    s = build_scenario(ScenarioConfig(tx_power_dbm=20.0, mount="los"))
    reader = s.make_reader()
    assert reader.config.tx_power_dbm == 20.0
    assert reader.config.los_occlusion is True


def test_seed_determinism():
    a = build_scenario(ScenarioConfig(seed=5))
    b = build_scenario(ScenarioConfig(seed=5))
    assert [t.theta_tag for t in a.array] == [t.theta_tag for t in b.array]


def test_different_seeds_differ():
    a = build_scenario(ScenarioConfig(seed=5))
    b = build_scenario(ScenarioConfig(seed=6))
    assert [t.theta_tag for t in a.array] != [t.theta_tag for t in b.array]


def test_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(mount="wall")
    with pytest.raises(ValueError):
        ScenarioConfig(reader_distance=0.0)


def test_location_preset_applied():
    s = build_scenario(ScenarioConfig(location=4))
    assert s.environment.name == "location-4"
