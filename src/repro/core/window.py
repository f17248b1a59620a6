"""The analysis window as one (tags × reads) block, and its row kernels.

Every stroke window is analysed by three stages that all work tag by tag:
suppression (Eq. 8-10), imaging and the RSS troughs of section III-B.
Instead of splitting the report log into per-tag series for each of them,
:class:`WindowBlock` groups a window's reads once: one row per calibrated
tag, the row's reads in time order, zero-padded to the longest row.  The
stages then run as row-wise numpy kernels over the block.

The kernels give the same bits as per-tag code, which the tests keep as
the reference (DESIGN.md §6a):

* **Row order** is first appearance in the window, the order
  ``ReportLog.per_tag`` yields; it also breaks ties between equal trough
  times after the stable time sort.
* **Sequential sums** (unwrapping) use ``np.add.accumulate`` along the
  row, which adds strictly left to right, as a per-sample loop does.
* **Reductions** (total variation, the trough centre) go through
  :func:`row_sums`, which adds each row in numpy's own ``sum`` order.  A
  zero-padded ``.sum(axis=1)`` is *not* that order: the padding changes
  each row's length, and numpy's summation tree depends on the length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:
    from ..rfid.reports import ReportLog
    from .calibration import CalibrationTable

__all__ = ["WindowBlock", "row_sums"]

#: numpy's pairwise summation adds blocks of up to this many values with
#: eight interleaved accumulators; longer sums recurse into halves.
_PAIRWISE_BLOCK = 128
_LANES = 8


def row_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum of ``values[r, :counts[r]]`` per row, bit-identical to numpy's
    ``values[r, :counts[r]].sum()``.

    For ``n <= 128`` values numpy's pairwise sum keeps eight lanes
    ``r_j = a[j] + a[j+8] + ...`` over the full 8-value blocks, combines
    them as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and adds the
    ``n mod 8`` tail one value at a time; below 8 values it is a plain left
    fold from 0.0.  Here the lanes run for all rows at once, as
    ``np.add.accumulate`` over the block axis, and the tail as an
    accumulate along each row's partial block.  Values past a row's count
    are replaced by 0.0 first: adding an exact zero changes no nonzero sum,
    only the sign of a zero one, and the reduction's own ``0.0 + sum``
    start makes that sign positive either way.  Rows of more than 128
    values, where numpy recurses into halves, fall back to numpy itself.
    """
    values = np.asarray(values, dtype=float)
    counts = np.asarray(counts, dtype=np.int64)
    rows, width = values.shape
    if rows == 0 or width == 0:
        return np.zeros(rows)
    # One block more than the longest row needs, so every row has a
    # (possibly all-zero) partial block after its full ones.
    n_blocks = width // _LANES + 1
    blocks = np.zeros((rows, n_blocks, _LANES))
    np.copyto(
        blocks.reshape(rows, n_blocks * _LANES)[:, :width], values,
        where=np.arange(width) < counts[:, None],
    )
    r = np.arange(rows)
    full = counts // _LANES
    most = int(full.max())
    if most > 1:
        lanes = np.add.accumulate(blocks[:, :most], axis=1)[r, np.maximum(full - 1, 0)]
    else:
        lanes = blocks[:, 0]
    pairs = lanes[:, 0::2] + lanes[:, 1::2]
    head = (pairs[:, 0] + pairs[:, 1]) + (pairs[:, 2] + pairs[:, 3])
    head[full == 0] = 0.0
    # The tail: the head, then the partial block's values one at a time.
    tail = np.empty((rows, _LANES + 1))
    tail[:, 0] = head
    tail[:, 1:] = blocks[r, full]
    out = np.add.accumulate(tail, axis=1)[:, -1] + 0.0
    if counts.max() > _PAIRWISE_BLOCK:
        for i in np.flatnonzero(counts > _PAIRWISE_BLOCK):
            out[i] = values[i, : counts[i]].sum()
    return out


@dataclass(frozen=True)
class WindowBlock:
    """One analysis window's reads of calibrated tags, grouped by tag.

    Row ``k`` holds the reads of tag ``ids[k]`` in time order in columns
    ``0 .. counts[k] - 1``; the rest of the row is zero padding.  Rows are
    in first-appearance order within the window, and tags the window never
    read, or that the calibration does not know, have no row.
    """

    table: "CalibrationTable"
    ids: np.ndarray      # (rows,) tag id
    slots: np.ndarray    # (rows,) the id's slot in ``table``
    counts: np.ndarray   # (rows,) reads in the row
    ts: np.ndarray       # (rows, width) timestamps
    phase: np.ndarray    # (rows, width) wrapped phases
    rss: np.ndarray      # (rows, width) RSS, dBm

    @property
    def valid(self) -> np.ndarray:
        """(rows, width) mask of the columns that hold a read."""
        return np.arange(self.ts.shape[1]) < self.counts[:, None]

    @property
    def reads(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def from_log(
        cls,
        log: "ReportLog",
        table: "CalibrationTable",
        t0: Optional[float] = None,
        t1: Optional[float] = None,
    ) -> "WindowBlock":
        """The block of ``log``'s reads in ``[t0, t1)`` (``None``: unbounded)."""
        window = log
        if t0 is not None or t1 is not None:
            window = log.slice_time(
                t0 if t0 is not None else float("-inf"),
                t1 if t1 is not None else float("inf"),
            )
        ts, tags, phase, rss = window.columns()[:4]
        return cls.from_columns(table, ts, tags, phase, rss)

    @classmethod
    def from_columns(
        cls,
        table: "CalibrationTable",
        ts: np.ndarray,
        tags: np.ndarray,
        phase: np.ndarray,
        rss: np.ndarray,
    ) -> "WindowBlock":
        """Group time-ordered read columns into rows."""
        slot = table.slots(tags)
        keep = table.known[slot]
        if not keep.all():
            slot, ts, phase, rss = slot[keep], ts[keep], phase[keep], rss[keep]
        n = slot.size
        if n == 0:
            empty = np.zeros((0, 0))
            none = np.zeros(0, dtype=np.int64)
            return cls(table, none, none, none, empty, empty, empty)
        # The stable sort groups reads by slot, slots ascending, and keeps
        # each group in time order, so a group's first read is its earliest.
        order = np.argsort(slot, kind="stable")
        per_slot = np.bincount(slot, minlength=table.top + 1)
        present = np.flatnonzero(per_slot)
        sizes = per_slot[present]
        starts = np.cumsum(sizes) - sizes
        rank = np.argsort(order[starts], kind="stable")
        row_of = np.empty(rank.size, dtype=np.int64)
        row_of[rank] = np.arange(rank.size)
        width = int(sizes.max())
        # Flat cell of each read: its row's start plus its place in the group.
        dest = np.empty(n, dtype=np.int64)
        dest[order] = np.repeat(row_of * width - starts, sizes) + np.arange(n)
        cells = np.zeros((3, rank.size * width))
        cells[0, dest] = ts
        cells[1, dest] = phase
        cells[2, dest] = rss
        ts_rows, phase_rows, rss_rows = cells.reshape(3, rank.size, width)
        slots = present[rank]
        return cls(
            table=table,
            ids=slots + table.lo,
            slots=slots,
            counts=sizes[rank],
            ts=ts_rows,
            phase=phase_rows,
            rss=rss_rows,
        )
