from repro.core.events import LetterResult, SegmentedWindow
from repro.core.words import (
    WordDecoder,
    WordRecognizer,
    cluster_windows_into_letters,
)


def _w(t0, t1):
    return SegmentedWindow(t0, t1, 1.0)


def _letter(letter, candidates):
    return LetterResult(letter=letter, strokes=(), candidates=tuple(candidates))


class TestClustering:
    def test_single_letter(self):
        groups = cluster_windows_into_letters([_w(0, 1), _w(1.8, 2.8)])
        assert len(groups) == 1

    def test_two_letters(self):
        groups = cluster_windows_into_letters([_w(0, 1), _w(3.0, 4.0)])
        assert len(groups) == 2

    def test_unsorted_input(self):
        groups = cluster_windows_into_letters([_w(3.0, 4.0), _w(0, 1)])
        assert len(groups) == 2
        assert groups[0][0].t0 == 0

    def test_empty(self):
        assert cluster_windows_into_letters([]) == []

    def test_threshold_respected(self):
        windows = [_w(0, 1), _w(2.2, 3.2)]
        assert len(cluster_windows_into_letters(windows, letter_gap_s=1.0)) == 2
        assert len(cluster_windows_into_letters(windows, letter_gap_s=1.5)) == 1


class TestDecoder:
    def test_no_lexicon_returns_raw(self):
        decoder = WordDecoder()
        result = decoder.decode([_letter("H", [("H", 0.1)]), _letter("I", [("I", 0.1)])])
        assert result.raw == "HI"
        assert result.corrected is None
        assert result.text == "HI"

    def test_lexicon_passthrough_for_clean_reading(self):
        decoder = WordDecoder(lexicon=["HI", "HO"])
        result = decoder.decode(
            [_letter("H", [("H", 0.1)]), _letter("I", [("I", 0.1), ("O", 0.9)])]
        )
        assert result.text == "HI"

    def test_lexicon_fixes_missing_letter(self):
        decoder = WordDecoder(lexicon=["GATE", "EXIT"])
        letters = [
            _letter(None, [("B", 0.7), ("G", 0.8)]),
            _letter("A", [("A", 0.1)]),
            _letter("T", [("T", 0.1)]),
            _letter("E", [("E", 0.1)]),
        ]
        result = decoder.decode(letters)
        assert result.raw == "?ATE"
        assert result.corrected == "GATE"

    def test_length_mismatch_keeps_raw(self):
        decoder = WordDecoder(lexicon=["LONGWORD"])
        result = decoder.decode([_letter("H", [("H", 0.1)])])
        assert result.corrected is None

    def test_miss_cost_punishes_absent_letters(self):
        decoder = WordDecoder(lexicon=["AB", "AZ"])
        letters = [
            _letter("A", [("A", 0.1)]),
            _letter("B", [("B", 0.2)]),  # Z never appears
        ]
        assert decoder.decode(letters).corrected == "AB"

    def test_empty_letters(self):
        result = WordDecoder(lexicon=["X"]).decode([])
        assert result.raw == ""
        assert result.corrected is None


class TestWordRecognizerEndToEnd:
    def test_two_letter_word(self, shared_runner):
        import numpy as np

        from repro.motion.script import script_for_word

        script = script_for_word("HI", shared_runner.rng)
        log = shared_runner.run_script(script)
        recognizer = WordRecognizer(
            shared_runner.pad, decoder=WordDecoder(lexicon=["HI", "LO"])
        )
        result = recognizer.recognize_word(log)
        assert len(result.letters) == 2
        assert result.text == "HI"
