"""Property tests for shape features: rotation/reflection equivariance.

Rotating a cell pattern by 90 degrees must rotate its classification:
"−" ↔ "|", "/" ↔ "\\", and arc openings advance one quadrant.  These
invariances catch sign errors in the y-up coordinate handling that unit
tests on single shapes can miss.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classifier import classify_shape
from repro.core.features import extract_features
from repro.core.imaging import BinaryMap, GreyMap
from repro.motion.strokes import ArcOpening, StrokeKind
from repro.physics.geometry import GridLayout

LAYOUT = GridLayout()

#: Base patterns with known classifications (no trough path: image only).
LINE_PATTERNS = {
    StrokeKind.HBAR: [(2, c) for c in range(5)],
    StrokeKind.VBAR: [(r, 2) for r in range(5)],
    StrokeKind.SLASH: [(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)],
    StrokeKind.BACKSLASH: [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)],
}

#: 90-degree clockwise rotation of grid cells: (r, c) -> (c, rows-1-r).
def _rot_cells(cells, times=1):
    out = list(cells)
    for _ in range(times % 4):
        out = [(c, LAYOUT.rows - 1 - r) for r, c in out]
    return out


#: How line kinds map under one clockwise rotation.
_ROTATED_KIND = {
    StrokeKind.HBAR: StrokeKind.VBAR,
    StrokeKind.VBAR: StrokeKind.HBAR,
    StrokeKind.SLASH: StrokeKind.BACKSLASH,
    StrokeKind.BACKSLASH: StrokeKind.SLASH,
}


def _maps(cells):
    values = np.zeros((5, 5))
    mask = np.zeros((5, 5), dtype=bool)
    for r, c in cells:
        mask[r, c] = True
        values[r, c] = 1.0
    return GreyMap(values, LAYOUT), BinaryMap(mask, 0.5, LAYOUT)


@given(st.sampled_from(sorted(LINE_PATTERNS, key=lambda k: k.name)),
       st.integers(min_value=0, max_value=3))
def test_line_classification_rotates_with_pattern(kind, quarter_turns):
    cells = _rot_cells(LINE_PATTERNS[kind], quarter_turns)
    grey, binary = _maps(cells)
    decision = classify_shape(grey, binary)
    expected = kind
    for _ in range(quarter_turns):
        expected = _ROTATED_KIND[expected]
    assert decision is not None
    assert decision.kind is expected


ARC_CELLS = [(0, 2), (0, 1), (1, 0), (2, 0), (3, 0), (4, 1), (4, 2)]  # "⊂"

#: Opening after k clockwise quarter turns of a RIGHT-opening arc.
_ROTATED_OPENING = [ArcOpening.RIGHT, ArcOpening.DOWN, ArcOpening.LEFT, ArcOpening.UP]


@given(st.integers(min_value=0, max_value=3))
def test_arc_opening_rotates_with_pattern(quarter_turns):
    cells = _rot_cells(ARC_CELLS, quarter_turns)
    grey, binary = _maps(cells)
    feats = extract_features(grey, binary)
    from repro.core.features import opening_quadrant

    quadrant = opening_quadrant(feats.opening)
    assert quadrant == _ROTATED_OPENING[quarter_turns].value


@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        min_size=1, max_size=15, unique=True,
    )
)
@settings(max_examples=60)
def test_features_total_count_and_bbox(cells):
    grey, binary = _maps(cells)
    feats = extract_features(grey, binary)
    assert feats.count == len(set(cells))
    rmin, rmax, cmin, cmax = feats.bbox
    rows = [r for r, _ in cells]
    cols = [c for _, c in cells]
    assert (rmin, rmax, cmin, cmax) == (min(rows), max(rows), min(cols), max(cols))


@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        min_size=1, max_size=15, unique=True,
    )
)
@settings(max_examples=60)
def test_classifier_total_on_arbitrary_masks(cells):
    """The classifier never crashes and always answers on any mask."""
    grey, binary = _maps(cells)
    decision = classify_shape(grey, binary)
    assert decision is not None
    assert 0.0 <= decision.confidence <= 1.0
