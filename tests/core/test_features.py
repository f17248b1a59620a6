import math

import numpy as np

from repro.core.features import extract_features, opening_quadrant
from repro.core.imaging import BinaryMap, GreyMap
from repro.physics.geometry import GridLayout


def _maps(cells, weights=None, rows=5, cols=5):
    layout = GridLayout(rows=rows, cols=cols, pitch=0.06)
    values = np.zeros((rows, cols))
    mask = np.zeros((rows, cols), dtype=bool)
    for i, (r, c) in enumerate(cells):
        mask[r, c] = True
        values[r, c] = 1.0 if weights is None else weights[i]
    return GreyMap(values, layout), BinaryMap(mask, 0.5, layout)


def test_empty_map_returns_none():
    grey, binary = _maps([])
    assert extract_features(grey, binary) is None


def test_single_cell():
    grey, binary = _maps([(2, 3)])
    f = extract_features(grey, binary)
    assert f.count == 1
    assert f.centroid == (3.0, 2.0)  # x=col, y=rows-1-row
    assert f.major_extent == 0.0


def test_horizontal_line_angle():
    grey, binary = _maps([(2, c) for c in range(5)])
    f = extract_features(grey, binary)
    assert abs(f.angle_deg) < 5.0
    assert f.elongation > 5.0
    assert f.span_cells == (1, 5)


def test_vertical_line_angle():
    grey, binary = _maps([(r, 2) for r in range(5)])
    f = extract_features(grey, binary)
    assert abs(abs(f.angle_deg) - 90.0) < 5.0


def test_slash_has_positive_slope():
    grey, binary = _maps([(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)])
    f = extract_features(grey, binary)
    assert 30.0 < f.angle_deg < 60.0


def test_backslash_has_negative_slope():
    grey, binary = _maps([(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)])
    f = extract_features(grey, binary)
    assert -60.0 < f.angle_deg < -30.0


def test_c_arc_opens_right():
    # "⊂" ring: left half of a circle.
    cells = [(0, 1), (0, 2), (1, 0), (2, 0), (3, 0), (4, 1), (4, 2), (1, 3), (3, 3)]
    grey, binary = _maps(cells)
    f = extract_features(grey, binary)
    assert math.isfinite(f.circle_radius)
    assert f.coverage_deg > 180.0
    assert opening_quadrant(f.opening) == "right"


def test_d_arc_opens_left():
    cells = [(0, 2), (0, 3), (1, 4), (2, 4), (3, 4), (4, 3), (4, 2), (1, 1), (3, 1)]
    grey, binary = _maps(cells)
    f = extract_features(grey, binary)
    assert opening_quadrant(f.opening) == "left"


def test_line_fails_the_arc_gates():
    grey, binary = _maps([(2, c) for c in range(5)])
    f = extract_features(grey, binary)
    # A collinear set can fool the Kasa fit into a small degenerate circle,
    # but a line must always fail at least one of the classifier's arc
    # gates: off-axis thickness and angular coverage.
    thin = f.minor_std < 0.16 * f.major_extent
    low_coverage = f.coverage_deg < 110.0
    assert thin or low_coverage


def test_weights_shift_centroid():
    grey, binary = _maps([(2, 1), (2, 3)], weights=[3.0, 1.0])
    f = extract_features(grey, binary)
    assert f.centroid[0] < 2.0  # pulled towards the heavy cell


def test_opening_quadrant_zero_vector():
    assert opening_quadrant((0.0, 0.0)) is None
    assert opening_quadrant((1.0, 0.1)) == "right"
    assert opening_quadrant((0.1, -1.0)) == "down"
