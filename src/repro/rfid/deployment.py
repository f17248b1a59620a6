"""Tag array deployment: turning a grid layout into a population of tags.

Applies the deployment guidance of section IV-B: checkerboard antenna
facing to cut mutual coupling, per-tag manufacture diversity draws, and the
pre-computed static coupling loss each tag suffers from its neighbours
(corner tags have fewer neighbours than centre tags, which is one source of
the per-tag spread the calibration layer measures).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..physics.coupling import (
    TAG_DESIGN_B,
    TagAntennaProfile,
    aggregate_shadow_loss_db,
    alternating_facing_pattern,
)
from ..physics.geometry import GridLayout, Vec3
from .tag import (
    Tag,
    make_epc,
    sample_ic_sensitivity_dbm,
    sample_modulation_efficiency,
    sample_theta_tag,
)


@dataclass
class TagArray:
    """A deployed tag array: layout plus the per-tag population."""

    layout: GridLayout
    tags: List[Tag]

    def __post_init__(self) -> None:
        if len(self.tags) != self.layout.count:
            raise ValueError(
                f"layout has {self.layout.count} cells but {len(self.tags)} tags given"
            )

    def __len__(self) -> int:
        return len(self.tags)

    def __iter__(self):
        return iter(self.tags)

    def tag_at(self, row: int, col: int) -> Tag:
        return self.tags[self.layout.index_of(row, col)]

    def by_epc(self, epc: str) -> Tag:
        for t in self.tags:
            if t.epc == epc:
                return t
        raise KeyError(f"no tag with EPC {epc!r}")

    def positions(self) -> List[Vec3]:
        return [t.position for t in self.tags]


@dataclass(frozen=True)
class WorkspaceLayout:
    """Tile geometry of a tiled workspace (DESIGN.md §15).

    A workspace is a ``tiles_y x tiles_x`` grid of identical pad tiles
    that *continue* each other's tag lattice: adjacent tiles are spaced so
    the combined deployment is one uniform ``(rows*tiles_y) x
    (cols*tiles_x)`` grid at the same pitch.  Tile 0 is the top-left tile;
    tiles are numbered row-major, like tags inside a tile.

    Two coordinate frames coexist:

    * the **workspace frame** — the combined grid centred on the origin,
      in which scripts, trajectories, and the stitched pipeline operate;
    * each tile's **local frame** — the tile's own grid centred on *its*
      origin, in which the tile's antenna, channel engine, and
      ``static_base`` precompute live (bit-identical to a solo pad).

    ``tile_origin`` maps between them; ``global_index`` maps a tile's
    local tag index onto the combined layout's row-major index space.
    The 1x1 workspace degenerates to today's single pad: the origin is
    exactly ``(0, 0, 0)`` and ``global_index`` is the identity.
    """

    tiles_x: int = 1
    tiles_y: int = 1
    rows: int = 5
    cols: int = 5
    pitch: float = 0.06

    def __post_init__(self) -> None:
        if self.tiles_x < 1 or self.tiles_y < 1:
            raise ValueError(
                f"workspace needs at least 1x1 tiles, got "
                f"{self.tiles_x}x{self.tiles_y}"
            )
        if self.rows < 1 or self.cols < 1 or self.pitch <= 0.0:
            raise ValueError("tiles need a valid rows/cols/pitch grid")

    @property
    def tile_count(self) -> int:
        return self.tiles_x * self.tiles_y

    def tile_layout(self) -> GridLayout:
        """One tile's local grid (identical to a solo pad's layout)."""
        return GridLayout(rows=self.rows, cols=self.cols, pitch=self.pitch)

    def combined_layout(self) -> GridLayout:
        """The workspace-level grid the stitched pipeline runs on."""
        return GridLayout(
            rows=self.rows * self.tiles_y,
            cols=self.cols * self.tiles_x,
            pitch=self.pitch,
        )

    def tile_row_col(self, tile: int) -> "tuple[int, int]":
        if not 0 <= tile < self.tile_count:
            raise IndexError(f"tile {tile} outside 0..{self.tile_count - 1}")
        return divmod(tile, self.tiles_x)

    def tile_origin(self, tile: int) -> Vec3:
        """Centre of ``tile`` in the workspace frame (z = 0 plane).

        Derived so that ``combined.position(global row/col) == origin +
        tile.position(local row/col)`` for every tag; the 1x1 workspace
        yields exactly ``Vec3(0, 0, 0)``.
        """
        tr, tc = self.tile_row_col(tile)
        x = self.cols * self.pitch * (tc - (self.tiles_x - 1) / 2.0)
        y = self.rows * self.pitch * ((self.tiles_y - 1) / 2.0 - tr)
        return Vec3(x, y, 0.0)

    def global_index(self, tile: int, local_index: int) -> int:
        """Combined-layout row-major index of a tile's local tag index."""
        tr, tc = self.tile_row_col(tile)
        local = self.tile_layout()
        r, c = local.row_col(local_index)
        return (tr * self.rows + r) * (self.cols * self.tiles_x) + (
            tc * self.cols + c
        )

    def tile_of_global(self, global_index: int) -> int:
        """Which tile a combined-layout tag index belongs to."""
        gr, gc = self.combined_layout().row_col(global_index)
        return (gr // self.rows) * self.tiles_x + (gc // self.cols)

    def locate(self, x: float, y: float) -> int:
        """The tile whose area a workspace-frame xy point falls in.

        Points outside the workspace clamp to the nearest tile, so a
        trajectory's lead-in/lead-out always resolves somewhere.
        """
        tile_w = self.cols * self.pitch
        tile_h = self.rows * self.pitch
        tc = int((x + self.tiles_x * tile_w / 2.0) // tile_w)
        tr = int((self.tiles_y * tile_h / 2.0 - y) // tile_h)
        tc = min(max(tc, 0), self.tiles_x - 1)
        tr = min(max(tr, 0), self.tiles_y - 1)
        return tr * self.tiles_x + tc


def deploy_tile(
    rng: np.random.Generator,
    workspace: WorkspaceLayout,
    tile: int,
    design: TagAntennaProfile = TAG_DESIGN_B,
    alternate_facing: bool = True,
) -> TagArray:
    """Deploy one workspace tile: a solo pad carrying *global* identities.

    The physics of a tile is exactly a solo pad's — tag positions stay in
    the tile's local frame (so the per-tile channel engine and its
    ``static_base`` precompute are bit-identical to a solo deployment,
    and the RNG draw sequence matches :func:`deploy_array` exactly) —
    but each tag's ``index``/EPC are rewritten onto the combined layout's
    index space, so the reports the tile emits slot straight into the
    workspace-level pipeline with no remapping at merge time.  For the
    1x1 workspace the rewrite is the identity.
    """
    array = deploy_array(
        rng, workspace.tile_layout(), design=design,
        alternate_facing=alternate_facing,
    )
    tags = [
        dataclasses.replace(
            tag,
            index=workspace.global_index(tile, tag.index),
            epc=make_epc(workspace.global_index(tile, tag.index)),
        )
        for tag in array.tags
    ]
    return TagArray(layout=array.layout, tags=tags)


def deploy_array(
    rng: np.random.Generator,
    layout: Optional[GridLayout] = None,
    design: TagAntennaProfile = TAG_DESIGN_B,
    alternate_facing: bool = True,
) -> TagArray:
    """Build a seeded tag array following the paper's deployment rules.

    Default layout is the prototype's 5x5 grid at 6 cm spacing.  When
    ``alternate_facing`` is on, neighbours face opposite ways (section
    IV-B.1), which reduces the mutual coupling loss baked into each tag's
    ``static_shadow_db``.
    """
    if layout is None:
        layout = GridLayout(rows=5, cols=5, pitch=0.06)
    facing = alternating_facing_pattern(layout.rows, layout.cols)
    positions = layout.positions()

    tags: List[Tag] = []
    for r in range(layout.rows):
        for c in range(layout.cols):
            idx = layout.index_of(r, c)
            pos = positions[idx]
            faces_default = facing[r][c] if alternate_facing else True
            # Coupling from neighbours: neighbours facing the same way couple
            # fully; opposite-facing neighbours are strongly discounted
            # inside pair_shadow_loss_db via the same_facing flag.  We split
            # neighbours into the two groups and sum both contributions.
            same, opposite = [], []
            for rr in range(layout.rows):
                for cc in range(layout.cols):
                    if (rr, cc) == (r, c):
                        continue
                    other_faces = facing[rr][cc] if alternate_facing else True
                    bucket = same if other_faces == faces_default else opposite
                    bucket.append(positions[layout.index_of(rr, cc)])
            shadow = aggregate_shadow_loss_db(pos, same, design, same_facing=True)
            shadow += aggregate_shadow_loss_db(pos, opposite, design, same_facing=False)

            tags.append(
                Tag(
                    epc=make_epc(idx),
                    index=idx,
                    position=pos,
                    design=design,
                    theta_tag=sample_theta_tag(rng),
                    modulation_efficiency=sample_modulation_efficiency(rng),
                    ic_sensitivity_dbm=sample_ic_sensitivity_dbm(rng),
                    facing_default=faces_default,
                    static_shadow_db=shadow,
                )
            )
    return TagArray(layout=layout, tags=tags)
