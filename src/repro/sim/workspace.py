"""Tiled workspaces: several pad tiles behind one duty-cycled reader.

The paper's cost argument (section I) scales spatially as well as per
tenant: one commodity reader can cover a desk- or wall-sized writing
surface by multiplexing antenna ports over a grid of pad *tiles*.  A
:class:`Workspace` owns the tiled deployment — per-tile scenarios built
in each tile's local frame (so every tile's channel engine and
``static_base`` precompute is bit-identical to a solo pad's) plus one
:class:`~repro.rfid.multiplex.MultiplexedReader` whose dwell scheduler
round-robins the ports — and exposes merged, workspace-level report logs
that the unchanged single-pad pipeline consumes against the *combined*
layout.

Frames and identity (DESIGN.md §15):

* Scripts and trajectories live in the **workspace frame** (the combined
  grid centred on the origin).  Each tile sees the scene through a
  translated view (:class:`_TileScript`) that subtracts the tile origin,
  so the tile's physics runs in its own local frame.
* Tags carry **global** indices/EPCs (``deploy_tile``), so per-tile logs
  merge into a workspace log with no remapping, and trough → trajectory
  reconstruction against the combined layout lands in workspace
  coordinates automatically.
* The 1x1 workspace is **bit-identical** to the solo path: tile 0 keeps
  the base seed and a zero origin (the script object is used directly,
  not wrapped), and the single-port dwell plan is one contiguous slice,
  preserving the solo reader's inventory-round/RNG boundaries exactly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..physics.geometry import GridLayout, Vec3
from ..physics.hand import PoseTrack
from ..physics.noise import ReceiverNoise
from ..rfid.deployment import WorkspaceLayout
from ..rfid.multiplex import MultiplexedReader, ReaderPort
from ..rfid.reader import HandPoseFn, ReaderConfig
from ..rfid.reports import ReportLog, merge_logs
from .scenario import Scenario, ScenarioConfig, build_tile_scenario


@dataclass(frozen=True)
class WorkspaceConfig:
    """A tiled deployment: per-tile knobs plus the tile arrangement."""

    base: ScenarioConfig = ScenarioConfig()
    tiles_x: int = 1
    tiles_y: int = 1
    #: Antenna-port dwell.  Deliberately short (50 ms, versus the 250 ms
    #: commodity default) so every 100 ms segmentation frame mixes reads
    #: from all tiles — the stitching layer then sees a continuous
    #: workspace stream rather than tile-length bursts.
    dwell_s: float = 0.05

    def layout(self) -> WorkspaceLayout:
        return WorkspaceLayout(
            tiles_x=self.tiles_x,
            tiles_y=self.tiles_y,
            rows=self.base.rows,
            cols=self.base.cols,
            pitch=self.base.tag_pitch,
        )


class _TileScript:
    """A writing script seen from one tile's local frame.

    Wraps the workspace-frame script, subtracting the tile origin from
    every pose.  Exposes the same ``hand_pose_at`` / ``pose_at_many``
    surface, so the reader's vectorized pose-clock auto-detection (bound
    method → owner → ``pose_at_many``) keeps engaging.
    """

    def __init__(self, script, origin: Vec3) -> None:
        self._script = script
        self._origin = np.array([origin.x, origin.y, origin.z])
        if getattr(script, "pose_at_many", None) is None:
            # Shadow the class method so the reader's getattr probe sees
            # no vectorized clock and falls back to the scalar path.
            self.pose_at_many = None  # type: ignore[assignment]

    @property
    def duration(self) -> float:
        return self._script.duration

    def hand_pose_at(self, t: float):
        pose = self._script.hand_pose_at(t)
        if pose is None:
            return None
        p = pose.position
        return dataclasses.replace(
            pose,
            position=Vec3(
                p.x - self._origin[0],
                p.y - self._origin[1],
                p.z - self._origin[2],
            ),
        )

    def pose_at_many(self, times: np.ndarray) -> PoseTrack:
        track = self._script.pose_at_many(times)
        return PoseTrack(
            times=track.times,
            present=track.present,
            xyz=track.xyz - self._origin,
            templates=track.templates,
            template_idx=track.template_idx,
        )


class Workspace:
    """A built tiled deployment ready to run sessions against."""

    def __init__(
        self,
        config: WorkspaceConfig,
        tiles: Sequence[Scenario],
        layout: WorkspaceLayout,
        noise: Optional[ReceiverNoise] = None,
    ) -> None:
        if len(tiles) != layout.tile_count:
            raise ValueError(
                f"workspace needs {layout.tile_count} tile scenarios, "
                f"got {len(tiles)}"
            )
        self.config = config
        self.layout = layout
        self.tiles = list(tiles)
        self.origins = [layout.tile_origin(k) for k in range(layout.tile_count)]
        base = config.base
        self.mux = MultiplexedReader(
            [ReaderPort(sc.antenna, sc.array, sc.environment) for sc in tiles],
            ReaderConfig(
                tx_power_dbm=base.tx_power_dbm,
                los_occlusion=(base.mount == "los"),
                link_profile=base.link_profile,
            ),
            noise if noise is not None else ReceiverNoise(),
            dwell_s=config.dwell_s,
            rngs=[sc.rng for sc in tiles],
        )

    @property
    def tile_count(self) -> int:
        return self.layout.tile_count

    @property
    def combined_layout(self) -> GridLayout:
        return self.layout.combined_layout()

    @property
    def rng(self) -> np.random.Generator:
        """Session RNG: tile 0's stream, shared with its reader — the
        same script/reader coupling ``SessionRunner`` has for one pad."""
        return self.tiles[0].rng

    def tile_views(self, script) -> List[Optional[HandPoseFn]]:
        """Per-port pose callbacks for a workspace-frame script.

        Zero-origin tiles get the script's own bound method (exact
        bit-identity for the 1x1 case); other tiles get a translated
        view.
        """
        fns: List[Optional[HandPoseFn]] = []
        for origin in self.origins:
            if origin.x == 0.0 and origin.y == 0.0 and origin.z == 0.0:
                fns.append(script.hand_pose_at)
            else:
                fns.append(_TileScript(script, origin).hand_pose_at)
        return fns

    def collect_tiles(
        self, duration: float, script=None
    ) -> List[ReportLog]:
        """Duty-cycled collect; one log per tile on the shared clock."""
        if script is None:
            return self.mux.collect_static(duration)
        return self.mux.collect(duration, self.tile_views(script))

    def collect(self, duration: float, script=None) -> ReportLog:
        """Duty-cycled collect, merged into one workspace-level log."""
        return merge_logs(self.collect_tiles(duration, script))

    def collect_static(self, duration: float) -> ReportLog:
        return self.collect(duration)

    def collect_script(self, script) -> ReportLog:
        return self.collect(script.duration, script)


def build_workspace(config: WorkspaceConfig = WorkspaceConfig()) -> Workspace:
    """Construct the tiled deployment described by ``config`` (seeded)."""
    layout = config.layout()
    tiles = [
        build_tile_scenario(config.base, layout, k)
        for k in range(layout.tile_count)
    ]
    return Workspace(config, tiles, layout)
