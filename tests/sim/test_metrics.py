import pytest

from repro.core.events import SegmentedWindow
from repro.sim.metrics import (
    DetectionCounts,
    confusion_matrix,
    empirical_cdf,
    merge_segmentation_scores,
    per_label_accuracy,
    percentile,
    score_segmentation,
)


class TestDetectionCounts:
    def test_rates(self):
        counts = DetectionCounts(total=20, correct=16, false_positives=3, false_negatives=1)
        assert counts.accuracy == 0.8
        assert counts.fpr == 0.15
        assert counts.fnr == 0.05

    def test_empty(self):
        counts = DetectionCounts(0, 0, 0, 0)
        assert counts.accuracy == 0.0
        assert counts.fpr == 0.0


class TestConfusion:
    def test_matrix_counts(self):
        labels, m = confusion_matrix(["A", "A", "B"], ["A", "B", None])
        assert set(labels) == {"A", "B", "∅"}
        ia, ib, inone = labels.index("A"), labels.index("B"), labels.index("∅")
        assert m[ia, ia] == 1
        assert m[ia, ib] == 1
        assert m[ib, inone] == 1

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            confusion_matrix(["A"], [])

    def test_per_label_accuracy(self):
        acc = per_label_accuracy(["A", "A", "B"], ["A", None, "B"])
        assert acc == {"A": 0.5, "B": 1.0}


class TestSegmentationScore:
    def test_perfect_segmentation(self):
        truths = [(1.0, 2.0), (3.0, 4.0)]
        windows = [SegmentedWindow(1.0, 2.0, 1.0), SegmentedWindow(3.0, 4.0, 1.0)]
        score = score_segmentation(windows, truths)
        assert score.insertion_rate == 0.0
        assert score.underfill_rate == 0.0
        assert score.miss_rate == 0.0

    def test_insertion_detected(self):
        truths = [(1.0, 2.0)]
        windows = [SegmentedWindow(1.0, 2.0, 1.0), SegmentedWindow(2.4, 2.9, 1.0)]
        score = score_segmentation(windows, truths)
        assert score.insertions == 1
        assert score.insertion_rate == 0.5

    def test_underfill_detected(self):
        truths = [(1.0, 3.0)]
        windows = [SegmentedWindow(1.0, 1.5, 1.0)]  # 25% coverage
        score = score_segmentation(windows, truths)
        assert score.underfills == 1
        assert score.misses == 0

    def test_miss_counts_as_underfill(self):
        truths = [(1.0, 2.0)]
        score = score_segmentation([], truths)
        assert score.misses == 1
        assert score.underfills == 1

    def test_merge(self):
        a = score_segmentation([], [(0.0, 1.0)])
        b = score_segmentation([SegmentedWindow(0.0, 1.0, 1.0)], [(0.0, 1.0)])
        merged = merge_segmentation_scores([a, b])
        assert merged.true_strokes == 2
        assert merged.misses == 1


class TestDistributions:
    def test_empirical_cdf(self):
        values, fracs = empirical_cdf([3.0, 1.0, 2.0])
        assert list(values) == [1.0, 2.0, 3.0]
        assert fracs[-1] == 1.0

    def test_percentile(self):
        assert percentile(list(range(101)), 90.0) == pytest.approx(90.0)
        with pytest.raises(ValueError):
            percentile([], 50.0)
