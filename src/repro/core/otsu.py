"""OTSU's clustering-based threshold (Otsu 1979), from scratch.

The paper binarises the grey map with OTSU's algorithm: pick the threshold
that maximises the between-class variance of foreground vs background.
Our implementation works directly on float values with a configurable
histogram resolution — at 25 pixels a 256-bin histogram is overkill but
harmless, and the same routine is reused on higher-resolution maps in the
extension experiments.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..physics.geometry import GridLayout
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

    hist, edges = np.histogram(arr, bins=bins, range=(lo, hi))
    total = arr.size
    probs = hist / total
    centres = (edges[:-1] + edges[1:]) / 2.0

    best_between = -1.0
    best_threshold = (lo + hi) / 2.0
    w0 = 0.0
    sum0 = 0.0
    total_mean = float((probs * centres).sum())
    for k in range(bins - 1):
        w0 += probs[k]
        sum0 += probs[k] * centres[k]
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
            best_threshold = edges[k + 1]
    return float(best_threshold)


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
