import numpy as np
import pytest

from repro.core.events import StrokeObservation
from repro.core.grammar import TreeGrammar
from repro.core.holistic import (
    HolisticRecognizer,
    HybridRecognizer,
    fuse_letter_image,
    render_template,
)
from repro.core.imaging import BinaryMap, GreyMap
from repro.motion.strokes import Direction, StrokeKind
from repro.physics.geometry import GridLayout

LAYOUT = GridLayout()


def _stroke_from_cells(cells, token="vbar"):
    values = np.zeros((5, 5))
    mask = np.zeros((5, 5), dtype=bool)
    for r, c in cells:
        mask[r, c] = True
        values[r, c] = 1.0
    grey = GreyMap(values, LAYOUT)
    return StrokeObservation(
        kind=StrokeKind.VBAR, direction=Direction.FORWARD, token=token,
        t0=0.0, t1=1.0, confidence=1.0, grey=grey,
        binary=BinaryMap(mask, 0.5, LAYOUT),
    )


class TestTemplates:
    def test_template_normalised(self):
        for letter in "AHOZ":
            t = render_template(letter, LAYOUT)
            assert t.shape == (5, 5)
            assert t.max() == pytest.approx(1.0)
            assert t.min() >= 0.0

    def test_templates_distinct(self):
        a = render_template("I", LAYOUT)
        b = render_template("O", LAYOUT)
        assert not np.allclose(a, b)

    def test_i_template_concentrated_on_centre_column(self):
        t = render_template("I", LAYOUT)
        assert t[:, 2].mean() > 2.0 * t[:, 0].mean()


class TestFuse:
    def test_fuse_sums_normalised_maps(self):
        a = _stroke_from_cells([(r, 1) for r in range(5)])
        b = _stroke_from_cells([(2, c) for c in range(5)])
        fused = fuse_letter_image([a, b], LAYOUT)
        assert fused.values[2, 1] == pytest.approx(2.0)
        assert fused.values[0, 1] == pytest.approx(1.0)

    def test_fuse_skips_strokes_without_maps(self):
        obs = StrokeObservation(
            kind=StrokeKind.CLICK, direction=Direction.FORWARD, token="click",
            t0=0.0, t1=1.0, confidence=1.0,
        )
        fused = fuse_letter_image([obs], LAYOUT)
        assert fused.values.sum() == 0.0


class TestHolisticRecognizer:
    def test_recognises_clean_h(self):
        rec = HolisticRecognizer(LAYOUT)
        strokes = [
            _stroke_from_cells([(r, 1) for r in range(5)]),
            _stroke_from_cells([(2, 1), (2, 2), (2, 3)]),
            _stroke_from_cells([(r, 3) for r in range(5)]),
        ]
        result = rec.recognize(strokes)
        assert result.letter == "H"

    def test_recognises_from_fused_image_despite_wrong_tokens(self):
        # Token corruption is irrelevant to the holistic path.
        rec = HolisticRecognizer(LAYOUT)
        strokes = [
            _stroke_from_cells([(r, 2) for r in range(5)], token="arc:left"),
        ]
        result = rec.recognize(strokes)
        assert result.letter == "I"

    def test_empty_rejected(self):
        rec = HolisticRecognizer(LAYOUT)
        result = rec.recognize([])
        assert result.letter is None

    def test_candidates_sorted_descending(self):
        rec = HolisticRecognizer(LAYOUT)
        strokes = [_stroke_from_cells([(r, 2) for r in range(5)])]
        result = rec.recognize(strokes)
        scores = [s for _, s in result.candidates]
        assert scores == sorted(scores, reverse=True)


class TestHybrid:
    def test_grammar_result_kept_when_accepted(self):
        grammar = TreeGrammar()
        rec = HybridRecognizer(grammar, HolisticRecognizer(LAYOUT))
        strokes = [_stroke_from_cells([(r, 2) for r in range(5)], token="vbar")]
        result = rec.recognize(strokes)
        assert result.letter == "I"

    def test_holistic_fallback_on_grammar_reject(self):
        # All tokens corrupted to clicks -> the grammar rejects, but the
        # fused image still reads as H.
        grammar = TreeGrammar(accept_threshold=0.05)
        rec = HybridRecognizer(grammar, HolisticRecognizer(LAYOUT))
        strokes = [
            _stroke_from_cells([(r, 1) for r in range(5)], token="click"),
            _stroke_from_cells([(2, 1), (2, 2), (2, 3)], token="click"),
            _stroke_from_cells([(r, 3) for r in range(5)], token="click"),
        ]
        result = rec.recognize(strokes)
        assert result.letter == "H"
