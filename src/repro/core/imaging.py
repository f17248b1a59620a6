"""Grey-map rendering: per-tag statistics as an image over the array grid.

The paper visualises the suppressed accumulative phase differences as a
grey-scale image whose pixels are the tags (Fig. 7), then binarises it with
OTSU's method.  We keep the same two-stage representation — it is not just
for show: the classifier operates on the (grey, binary) pair, and the
"image-assisted recognition" framing is the paper's stated future-work
path to whole-letter recognition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..physics.geometry import GridLayout


@dataclass(frozen=True)
class GreyMap:
    """A float image over the tag grid, plus its provenance."""

    values: np.ndarray  # shape (rows, cols), arbitrary non-negative scale
    layout: GridLayout

    def __post_init__(self) -> None:
        if self.values.shape != (self.layout.rows, self.layout.cols):
            raise ValueError(
                f"image shape {self.values.shape} does not match layout "
                f"{self.layout.rows}x{self.layout.cols}"
            )

    def normalized(self) -> np.ndarray:
        """Scale to [0, 1] (max-normalised; an all-zero map stays zero)."""
        v = self.values.astype(float)
        peak = v.max()
        if peak <= 0.0:
            return np.zeros_like(v)
        return v / peak

    def ascii_art(self, levels: str = " .:-=+*#%@") -> str:
        """Terminal rendering used by the examples and experiment reports."""
        norm = self.normalized()
        n = len(levels) - 1
        rows = []
        for r in range(self.layout.rows):
            rows.append("".join(levels[int(round(norm[r, c] * n))] for c in range(self.layout.cols)))
        return "\n".join(rows)


def render_grey_map(per_tag_values: Dict[int, float], layout: GridLayout) -> GreyMap:
    """Place per-tag scalars into their grid cells.

    Tags absent from ``per_tag_values`` (e.g. unreadable during the window)
    render as zero — the same thing a dropped tag looks like on the pad.
    """
    ids = np.fromiter(per_tag_values.keys(), dtype=np.int64, count=len(per_tag_values))
    values = np.fromiter(
        (float(v) for v in per_tag_values.values()), dtype=float, count=len(per_tag_values)
    )
    return grey_map_rows(ids, values, layout)


def grey_map_rows(ids: np.ndarray, values: np.ndarray, layout: GridLayout) -> GreyMap:
    """Place the value of each tag id into its cell, with one flat-index
    assignment (a tag's flat index is its row-major cell, ``row_col`` is
    ``divmod(idx, cols)``).

    Negative values clamp to 0, and loose tags outside the pad (negative
    ids) don't render; ids must be distinct.
    """
    on = ids >= 0
    ids, values = ids[on], values[on]
    if ids.size and int(ids.max()) >= layout.count:
        raise IndexError(f"index {int(ids.max())} outside 0..{layout.count - 1}")
    img = np.zeros(layout.count)
    img[ids] = np.where(values > 0.0, values, 0.0)
    return GreyMap(values=img.reshape(layout.rows, layout.cols), layout=layout)


@dataclass(frozen=True)
class BinaryMap:
    """OTSU output: foreground pixels are cells the hand moved over."""

    mask: np.ndarray  # shape (rows, cols), dtype bool
    threshold: float
    layout: GridLayout

    def foreground_cells(self) -> List[Tuple[int, int]]:
        rows, cols = np.nonzero(self.mask)
        return list(zip(rows.tolist(), cols.tolist()))

    def foreground_count(self) -> int:
        return int(self.mask.sum())

    def ascii_art(self) -> str:
        return "\n".join(
            "".join("#" if self.mask[r, c] else "." for c in range(self.layout.cols))
            for r in range(self.layout.rows)
        )
