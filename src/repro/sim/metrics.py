"""Evaluation metrics: the quantities the paper's tables and figures report.

* accuracy, false-positive rate, false-negative rate (section V-A);
* stroke-segmentation insertion and underfill rates (section V-C);
* confusion matrices and empirical CDFs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.events import SegmentedWindow


@dataclass(frozen=True)
class DetectionCounts:
    """Raw counts behind accuracy / FPR / FNR."""

    total: int
    correct: int
    false_positives: int   # detected but wrong (or detected in quiet air)
    false_negatives: int   # nothing detected where a motion happened

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0

    @property
    def fpr(self) -> float:
        """Fraction of trials where a motion was falsely reported."""
        return self.false_positives / self.total if self.total else 0.0

    @property
    def fnr(self) -> float:
        """Fraction of trials where the motion went undetected."""
        return self.false_negatives / self.total if self.total else 0.0


def score_motion_trials(trials: Sequence["MotionTrial"]) -> DetectionCounts:  # noqa: F821
    """Aggregate motion trials into accuracy/FPR/FNR.

    A trial is a false negative when no stroke was reported at all, a false
    positive when a stroke was reported but misidentified (the paper's FPR:
    "falsely detected motions"), and correct when shape and direction both
    match.
    """
    total = len(trials)
    correct = sum(1 for t in trials if t.fully_correct)
    fn = sum(1 for t in trials if not t.detected)
    fp = sum(1 for t in trials if t.detected and not t.fully_correct)
    return DetectionCounts(total=total, correct=correct, false_positives=fp, false_negatives=fn)


def confusion_matrix(
    truths: Sequence[str], predictions: Sequence[Optional[str]]
) -> Tuple[List[str], np.ndarray]:
    """Label-indexed confusion matrix; None predictions become '∅'."""
    if len(truths) != len(predictions):
        raise ValueError("truths and predictions must align")
    preds = [p if p is not None else "∅" for p in predictions]
    labels = sorted(set(truths) | set(preds))
    index = {lab: i for i, lab in enumerate(labels)}
    matrix = np.zeros((len(labels), len(labels)), dtype=int)
    for t, p in zip(truths, preds):
        matrix[index[t], index[p]] += 1
    return labels, matrix


def per_label_accuracy(
    truths: Sequence[str], predictions: Sequence[Optional[str]]
) -> Dict[str, float]:
    """Per-class accuracy: fraction of each truth label predicted exactly."""
    totals: Dict[str, int] = {}
    hits: Dict[str, int] = {}
    for t, p in zip(truths, predictions):
        totals[t] = totals.get(t, 0) + 1
        if p == t:
            hits[t] = hits.get(t, 0) + 1
    return {t: hits.get(t, 0) / n for t, n in totals.items()}


# ----------------------------------------------------------------------
# Segmentation metrics (Fig. 22)
# ----------------------------------------------------------------------


def _overlap(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    return max(0.0, hi - lo)


@dataclass(frozen=True)
class SegmentationScore:
    """Insertion/underfill accounting for one or more sessions."""

    true_strokes: int
    detected_windows: int
    insertions: int   # windows living mostly inside adjustment intervals
    underfills: int   # true strokes whose detected coverage is incomplete
    misses: int       # true strokes with no overlapping window at all

    @property
    def insertion_rate(self) -> float:
        return self.insertions / self.detected_windows if self.detected_windows else 0.0

    @property
    def underfill_rate(self) -> float:
        return self.underfills / self.true_strokes if self.true_strokes else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.true_strokes if self.true_strokes else 0.0


def score_segmentation(
    windows: Sequence[SegmentedWindow],
    true_intervals: Sequence[Tuple[float, float]],
    coverage_threshold: float = 0.7,
    insertion_overlap: float = 0.5,
) -> SegmentationScore:
    """Score detected windows against ground-truth stroke intervals.

    * a window is an **insertion** when less than ``insertion_overlap`` of
      it overlaps any true stroke — it fired on the repositioning period;
    * a true stroke is **underfilled** when the union of windows covers
      less than ``coverage_threshold`` of it;
    * a true stroke with zero coverage is a **miss** (counted separately
      and also as underfill, matching the paper's definition of underfill
      as incomplete excavation).
    """
    insertions = 0
    for w in windows:
        covered = sum(_overlap((w.t0, w.t1), ti) for ti in true_intervals)
        if w.duration > 0 and covered / w.duration < insertion_overlap:
            insertions += 1

    underfills = 0
    misses = 0
    for ti in true_intervals:
        duration = ti[1] - ti[0]
        covered = sum(_overlap((w.t0, w.t1), ti) for w in windows)
        covered = min(covered, duration)
        if covered <= 0.0:
            misses += 1
            underfills += 1
        elif covered / duration < coverage_threshold:
            underfills += 1

    return SegmentationScore(
        true_strokes=len(true_intervals),
        detected_windows=len(windows),
        insertions=insertions,
        underfills=underfills,
        misses=misses,
    )


def merge_segmentation_scores(scores: Sequence[SegmentationScore]) -> SegmentationScore:
    """Pool segmentation counts across sessions."""
    return SegmentationScore(
        true_strokes=sum(s.true_strokes for s in scores),
        detected_windows=sum(s.detected_windows for s in scores),
        insertions=sum(s.insertions for s in scores),
        underfills=sum(s.underfills for s in scores),
        misses=sum(s.misses for s in scores),
    )


# ----------------------------------------------------------------------
# Distributions
# ----------------------------------------------------------------------


def empirical_cdf(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """(sorted values, cumulative fractions) — the Fig. 21 presentation."""
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size == 0:
        return arr, arr
    fractions = np.arange(1, arr.size + 1) / arr.size
    return arr, fractions


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile of a non-empty value set."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("percentile of empty set")
    return float(np.percentile(arr, q))
