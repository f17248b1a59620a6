"""Diversity suppression and the accumulative phase difference (Eqs. 8-10).

Given a motion-window report log and a static calibration, this module
computes the per-tag *suppressed accumulative phase difference*

    I'_i = w_i^{-1} * sum_j |theta'_{i,j+1} - theta'_{i,j}|      (Eq. 10)

where ``theta'`` is the calibrated, unwrapped residual (Eq. 8) and ``w_i``
the Deviation-bias weight (Eq. 9).  Two properties make this the right
statistic:

* subtracting the static central phase wipes ``theta_T + theta_R +
  theta_tag`` — tag diversity is gone;
* dividing by ``b_i`` equalises the *noise floor* across tags: a tag whose
  static phase flutters with std ``b_i`` accumulates ~``n * c * b_i`` of
  difference from noise alone, so after weighting every undisturbed tag
  sits near the same baseline, and OTSU can split disturbed from
  undisturbed cleanly — this is exactly why Fig. 7(b) looks so much better
  than Fig. 7(a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..obs.trace import get_tracer
from ..rfid.reports import ReportLog
from .calibration import StaticCalibration
from .unwrap import fold_to_pi_many, unwrap_rows, variation_rows
from .window import WindowBlock


@dataclass(frozen=True)
class SuppressionResult:
    """Per-tag accumulative phase differences for one analysis window."""

    raw: Dict[int, float]         # unweighted, uncalibrated (Fig. 7a style)
    suppressed: Dict[int, float]  # Eq. 10 output (Fig. 7b style)
    read_counts: Dict[int, int]


def suppression_rows(
    block: WindowBlock,
    per_sample: bool = True,
    bias_weighting: bool = True,
) -> np.ndarray:
    """Eq. 8-10 over a window block: the suppressed value of each row.

    The total variation of the calibrated, unwrapped residual, divided by
    the difference count (``per_sample``) and by the Eq. 9 weight
    (``bias_weighting``); rows with fewer than two reads score 0.  See
    :func:`accumulative_differences` for the two options.
    """
    table = block.table
    counts = block.counts
    # Eq. 8: calibrate + de-periodicise every row.  Its own span, so the
    # tracer sees unwrapping nested under the pipeline's `suppression`.
    with get_tracer().span("unwrap") as sp:
        residual = fold_to_pi_many(block.phase - table.centre[block.slots][:, None])
        unwrapped = unwrap_rows(residual)
        sp.set(tags=int(np.count_nonzero(counts >= 2)))
    tv = variation_rows(unwrapped, counts)
    if per_sample:
        tv = tv / np.maximum(1, counts - 1)
    return tv / table.weight[block.slots] if bias_weighting else tv


def raw_rows(block: WindowBlock) -> np.ndarray:
    """The naive Eq. 5 the paper starts from (Fig. 7a), per row: the
    accumulative difference of the *wrapped* reports, with uniform weights
    and no per-sample normalisation.

    Tags whose central phase sits near the 0/2*pi boundary flicker across
    it under noise and rack up spurious ~2*pi steps: the tag-diversity
    artefact that de-periodicity + calibration remove.
    """
    return variation_rows(block.phase, block.counts)


def accumulative_differences(
    log: ReportLog,
    calibration: StaticCalibration,
    t0: Optional[float] = None,
    t1: Optional[float] = None,
    per_sample: bool = True,
    bias_weighting: bool = True,
) -> SuppressionResult:
    """Compute raw and suppressed accumulative phase differences.

    Builds the window's :class:`~repro.core.window.WindowBlock` and runs
    :func:`raw_rows` and :func:`suppression_rows`, the kernels the
    streaming and batch pipelines run.  Keys follow the block's rows (first
    appearance in the window), then the calibrated tags the window never
    read, which score 0.

    Parameters
    ----------
    t0, t1:
        Optional analysis window; defaults to the whole log.
    per_sample:
        When True (default), each tag's accumulated difference is divided
        by its difference count before weighting.  The Gen2 MAC does not
        read all tags equally often; without this normalisation a
        frequently-read undisturbed tag out-accumulates a rarely-read
        disturbed one.  (The paper's fixed 5x5 deployment gives near-equal
        read rates so Eq. 10 omits it; with per-tag rates equal the two
        forms coincide up to a constant.)
    bias_weighting:
        When False, skip the Eq. 9/10 inverse-bias division (uniform
        weights) while keeping calibration + unwrapping.  This isolates
        the *location-diversity* half of the suppression for the ablation
        study; the paper's full algorithm corresponds to True.
    """
    block = WindowBlock.from_log(log, calibration.table, t0, t1)
    unread = np.setdiff1d(calibration.table.ids, block.ids)
    keys = np.concatenate((block.ids, unread)).tolist()
    zeros = np.zeros(unread.size)
    raw = np.concatenate((raw_rows(block), zeros))
    suppressed = np.concatenate((suppression_rows(block, per_sample, bias_weighting), zeros))
    counts = np.concatenate((block.counts, zeros.astype(np.int64)))
    return SuppressionResult(
        raw=dict(zip(keys, raw.tolist())),
        suppressed=dict(zip(keys, suppressed.tolist())),
        read_counts=dict(zip(keys, counts.tolist())),
    )


def disturbance_score(result: SuppressionResult) -> float:
    """A scalar 'how much is happening' score: the mean suppressed value.

    Useful as a cheap activity indicator and in tests; the segmentation
    module has its own RMS-based detector per the paper.
    """
    if not result.suppressed:
        return 0.0
    return float(np.mean(list(result.suppressed.values())))
