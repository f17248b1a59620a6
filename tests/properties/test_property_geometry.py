"""Property tests for geometry primitives."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.physics.geometry import (
    GridLayout,
    Vec3,
    mirror_across_plane,
    path_length,
    resample_polyline,
)

coords = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
vectors = st.builds(Vec3, coords, coords, coords)


@given(vectors, vectors)
def test_distance_symmetry(a, b):
    assert a.distance_to(b) == pytest.approx(b.distance_to(a))


@given(vectors, vectors, vectors)
def test_triangle_inequality(a, b, c):
    assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-9


@given(vectors)
def test_double_mirror_is_identity(p):
    plane_point = Vec3(0.0, 0.0, 1.0)
    normal = Vec3(0.0, 0.0, 1.0)
    twice = mirror_across_plane(
        mirror_across_plane(p, plane_point, normal), plane_point, normal
    )
    assert twice.distance_to(p) < 1e-9


@given(vectors)
def test_mirror_preserves_distance_to_plane(p):
    plane_point = Vec3(0.0, 1.0, 0.0)
    normal = Vec3(0.0, 1.0, 0.0)
    image = mirror_across_plane(p, plane_point, normal)
    assert abs((p.y - 1.0) + (image.y - 1.0)) < 1e-9


@given(st.lists(vectors, min_size=2, max_size=12), st.integers(min_value=2, max_value=40))
def test_resample_preserves_endpoints_and_length(points, n):
    out = resample_polyline(points, n)
    assert len(out) == n
    assert out[0].distance_to(points[0]) < 1e-9
    assert out[-1].distance_to(points[-1]) < 1e-6
    # Resampling a polyline can only shorten it (chords of the original).
    assert path_length(out) <= path_length(points) + 1e-6


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.01, max_value=0.5),
)
def test_grid_index_bijection(rows, cols, pitch):
    g = GridLayout(rows=rows, cols=cols, pitch=pitch)
    seen = set()
    for r in range(rows):
        for c in range(cols):
            idx = g.index_of(r, c)
            assert g.row_col(idx) == (r, c)
            seen.add(idx)
    assert seen == set(range(g.count))


@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=2, max_value=8),
)
def test_grid_nearest_cell_of_cell_centres(rows, cols):
    g = GridLayout(rows=rows, cols=cols, pitch=0.06)
    for r in range(rows):
        for c in range(cols):
            assert g.nearest_cell(g.position(r, c)) == (r, c)
