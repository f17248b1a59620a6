"""OTSU's clustering-based threshold (Otsu 1979), from scratch.

The paper binarises the grey map with OTSU's algorithm: pick the threshold
that maximises the between-class variance of foreground vs background.
Our implementation works directly on float values with a configurable
histogram resolution — at 25 pixels a 256-bin histogram is overkill but
harmless, and the same routine is reused on higher-resolution maps in the
extension experiments.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from .imaging import BinaryMap, GreyMap

#: Relative margin by which a later split's between-class variance must
#: exceed the best so far to replace it (near-ties keep the earlier split).
TIE_RTOL = 1e-9


def otsu_threshold(values: Sequence[float], bins: int = 64) -> float:
    """Return the OTSU threshold of a value set.

    The threshold is the *upper edge* of the chosen background bin, so
    ``value > threshold`` selects the foreground class.  Degenerate inputs
    (constant values) return that constant — the caller sees an empty
    foreground, which is the honest answer for a featureless image.
    """
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("cannot threshold an empty value set")
    lo, hi = float(arr.min()), float(arr.max())
    if hi <= lo:
        return hi
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
    # Guard against a denormal value range: if the span cannot be divided
    # into `bins` representable intervals the image is flat in practice.
    if (hi - lo) / bins == 0.0:
        return hi

    hist, edges = _histogram(arr, lo, hi, bins)
    total = arr.size
    probs = hist / total
    centres = (edges[:-1] + edges[1:]) / 2.0
    total_mean = float((probs * centres).sum())
    # Class weight and first moment below each candidate split: prefix sums
    # from 0.0 that add strictly left to right, bin by bin.
    w0s = np.add.accumulate(np.concatenate(([0.0], probs[:-1])))[1:].tolist()
    sum0s = np.add.accumulate(
        np.concatenate(([0.0], probs[:-1] * centres[:-1]))
    )[1:].tolist()
    uppers = edges[1:-1].tolist()

    best_between = -1.0
    best_threshold = (lo + hi) / 2.0
    for w0, sum0, upper in zip(w0s, sum0s, uppers):
        w1 = 1.0 - w0
        if w0 <= 0.0 or w1 <= 0.0:
            continue
        mu0 = sum0 / w0
        mu1 = (total_mean - sum0) / w1
        between = w0 * w1 * (mu0 - mu1) ** 2
        # A later split must beat the best by more than rounding: splits
        # that tie exactly in real arithmetic differ in the last bits, and
        # which one wins would otherwise flip under rescaling the values.
        if between > best_between * (1.0 + TIE_RTOL):
            best_between = between
            best_threshold = upper
    return float(best_threshold)


def _histogram(arr: np.ndarray, lo: float, hi: float, bins: int) -> Tuple[np.ndarray, np.ndarray]:
    """``np.histogram(arr, bins, range=(lo, hi))`` for ``lo = arr.min()``,
    ``hi = arr.max()``: numpy's equal-width path without its argument
    handling, which costs more than the binning on a 25-cell map.

    As in numpy, a value's bin is its scaled offset truncated, with the
    maximum folded into the last bin, then corrected by one against the
    ``linspace`` edges where rounding put it on the wrong side.  The
    kernel tests compare it with ``np.histogram``.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"supplied range of [{lo}, {hi}] is not finite")
    edges = np.linspace(lo, hi, bins + 1)
    idx = ((arr - lo) / (hi - lo) * bins).astype(np.intp)
    idx[idx == bins] -= 1
    idx[arr < edges[idx]] -= 1
    idx[(arr >= edges[idx + 1]) & (idx != bins - 1)] += 1
    return np.bincount(idx, minlength=bins), edges


def binarize(grey: GreyMap, bins: int = 64) -> BinaryMap:
    """Apply OTSU to a grey map and return the foreground mask."""
    threshold = otsu_threshold(grey.values.ravel(), bins=bins)
    mask = grey.values > threshold
    return BinaryMap(mask=mask, threshold=threshold, layout=grey.layout)


def binarize_fixed(grey: GreyMap, threshold: float) -> BinaryMap:
    """Fixed-threshold binarisation (the OTSU-ablation baseline)."""
    mask = grey.values > threshold
    return BinaryMap(mask=mask, threshold=threshold, layout=grey.layout)


def between_class_variance(values: Sequence[float], threshold: float) -> float:
    """Between-class variance at a given split (exposed for property tests)."""
    arr = np.asarray(values, dtype=float).ravel()
    fg = arr[arr > threshold]
    bg = arr[arr <= threshold]
    if fg.size == 0 or bg.size == 0:
        return 0.0
    w0 = bg.size / arr.size
    w1 = fg.size / arr.size
    return float(w0 * w1 * (bg.mean() - fg.mean()) ** 2)
