import numpy as np
import pytest

from repro.physics.geometry import Vec3
from repro.physics.multipath import (
    ALL_LOCATIONS,
    PlanarReflector,
    free_space,
    location_preset,
)


def test_reflector_image_position():
    wall = PlanarReflector(Vec3(0, 0, 3.0), Vec3(0, 0, -1.0))
    image = wall.image_of(Vec3(0, 0, -0.32))
    assert image.z == pytest.approx(6.32)


def test_reflector_validation():
    with pytest.raises(ValueError):
        PlanarReflector(Vec3(0, 0, 0), Vec3(0, 0, 0))
    with pytest.raises(ValueError):
        PlanarReflector(Vec3(0, 0, 0), Vec3(0, 0, 1), coefficient=1.5 + 0j)
    with pytest.raises(ValueError):
        PlanarReflector(Vec3(0, 0, 0), Vec3(0, 0, 1), flutter=-0.1)


def test_presets_ordered_by_richness():
    richness = [location_preset(i).richness for i in ALL_LOCATIONS]
    assert richness == sorted(richness)
    assert richness[0] > 0.0


def test_location_4_has_most_reflectors():
    assert len(location_preset(4).reflectors) > len(location_preset(1).reflectors)


def test_invalid_preset():
    with pytest.raises(ValueError):
        location_preset(5)


def test_free_space_has_no_images():
    env = free_space()
    assert env.image_antennas(Vec3(0, 0, -0.32)) == []
    assert env.richness == 0.0


def test_image_antennas_stable_without_rng():
    env = location_preset(2)
    a = env.image_antennas(Vec3(0, 0, -0.32))
    b = env.image_antennas(Vec3(0, 0, -0.32))
    assert a == b


def test_flutter_perturbs_coefficients():
    env = location_preset(4)
    rng = np.random.default_rng(1)
    base = env.image_antennas(Vec3(0, 0, -0.32))
    fluttered = env.image_antennas(Vec3(0, 0, -0.32), rng)
    assert any(abs(g1 - g2) > 1e-6 for (_, g1), (_, g2) in zip(base, fluttered))
    # Positions are unchanged by flutter.
    assert all(p1 == p2 for (p1, _), (p2, _) in zip(base, fluttered))
