"""Phase de-periodicity (section III-A.3, Fig. 6).

Reader-reported phase lives in [0, 2*pi) and jumps across the boundary as
the channel drifts; accumulative phase differences computed on the wrapped
values would see spurious ~2*pi steps.  ``unwrap`` removes the periodicity
by folding successive differences into (-pi, pi] — the method of the CBID
system the paper adopts (reference [14]).

Implemented from scratch (not ``np.unwrap``) so the exact fold conventions
are pinned by our tests.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..units import TWO_PI
from .window import row_sums


def fold_to_pi(delta: float) -> float:
    """Fold a phase difference into the principal branch (-pi, pi]."""
    folded = math.fmod(delta + math.pi, TWO_PI)
    if folded <= 0.0:
        folded += TWO_PI
    return folded - math.pi


def fold_to_pi_many(deltas: "np.ndarray") -> np.ndarray:
    """Vectorized :func:`fold_to_pi` (bit-identical fold convention).

    ``np.fmod`` is the same C ``fmod`` as ``math.fmod``, so each element
    matches the scalar function exactly.
    """
    folded = np.fmod(np.asarray(deltas, dtype=float) + math.pi, TWO_PI)
    return np.where(folded <= 0.0, folded + TWO_PI, folded) - math.pi


def unwrap_rows(phases: np.ndarray) -> np.ndarray:
    """Row-wise :func:`unwrap` of a (rows, samples) block.

    Each row is ``np.add.accumulate`` over ``[p0, fold(p1 - p0),
    fold(p2 - p1), ...]``.  accumulate adds strictly left to right, so
    every sample gets the same sequential sums as unwrapping the row on
    its own: the first sample is kept and each later one moves by the
    folded step from its predecessor.  Columns past a row's own length
    (zero padding of a :class:`~repro.core.window.WindowBlock`) come out
    as meaningless values that callers must not read.
    """
    arr = np.asarray(phases, dtype=float)
    if arr.shape[1] < 2:
        return arr.copy()
    steps = np.empty_like(arr)
    steps[:, 0] = arr[:, 0]
    steps[:, 1:] = fold_to_pi_many(arr[:, 1:] - arr[:, :-1])
    return np.add.accumulate(steps, axis=1)


def unwrap(phases: Sequence[float]) -> np.ndarray:
    """Unwrap a wrapped phase sequence into a continuous trend.

    The first sample is kept as-is; every subsequent sample moves by the
    folded difference from its predecessor, so the output never jumps by
    more than pi between samples.  This is the one-row case of
    :func:`unwrap_rows`, which the window analysis runs on whole blocks.

    >>> import numpy as np
    >>> out = unwrap([6.2, 0.1, 0.3])
    >>> bool(abs(out[1] - out[0]) < np.pi)
    True
    """
    arr = np.asarray(phases, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D sequence, got shape {arr.shape}")
    return unwrap_rows(arr[None, :])[0]


def unwrap_residual(phases: Sequence[float], reference: float) -> np.ndarray:
    """Subtract a (circular) reference phase, then unwrap the residual.

    This is the calibration-then-unwrap order of the paper's Eq. 8: each
    sample is first reduced modulo 2*pi against the tag's static mean, so
    the residual trend vibrates around zero; the residual is then unwrapped
    so accumulative differences see no periodicity artefacts.
    """
    arr = np.asarray(phases, dtype=float)
    residual = fold_to_pi_many(arr - reference)
    return unwrap(residual)


def variation_rows(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Row-wise total variation: each row's sum of absolute successive
    differences over its first ``counts[r]`` values (0 below 2 values),
    added in numpy's ``sum`` order by :func:`~repro.core.window.row_sums`.
    """
    arr = np.asarray(values, dtype=float)
    steps = np.maximum(np.asarray(counts, dtype=np.int64) - 1, 0)
    if arr.shape[1] < 2:
        return np.zeros(arr.shape[0])
    return row_sums(np.abs(arr[:, 1:] - arr[:, :-1]), steps)


def total_variation(values: Sequence[float]) -> float:
    """Sum of absolute successive differences — the 'accumulative phase
    difference' primitive of Eq. 5/10 (one row of :func:`variation_rows`)."""
    arr = np.asarray(values, dtype=float).ravel()
    return float(variation_rows(arr[None, :], [arr.size])[0])


def largest_jump(phases: Sequence[float]) -> float:
    """Largest absolute successive difference of a raw (wrapped) series.

    Diagnostic used by tests: after unwrapping this should never exceed pi.
    """
    arr = np.asarray(phases, dtype=float)
    if arr.size < 2:
        return 0.0
    return float(np.abs(np.diff(arr)).max())
