"""Scenario builder: a deployed pad + reader + environment in one object.

Centralises the deployment defaults of the paper's prototype (section IV-A
/ V-A) so every experiment varies only the knob it studies:

* 5x5 array, 6 cm tag spacing, Impinj AZ-E53-class tags (design B);
* reader antenna 32 cm behind the plane (NLOS) or overhead (LOS);
* 922.38 MHz, 30 dBm TX;
* one of the four office-location multipath presets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..physics.antenna import ReaderAntenna
from ..physics.coupling import TAG_DESIGN_B, TagAntennaProfile
from ..physics.geometry import GridLayout, Vec3, rotate_about_y
from ..physics.multipath import Environment, location_preset
from ..physics.noise import ReceiverNoise
from ..rfid.deployment import TagArray, WorkspaceLayout, deploy_array, deploy_tile
from ..rfid.reader import Reader, ReaderConfig


@dataclass(frozen=True)
class ScenarioConfig:
    """All deployment knobs, with the paper's defaults."""

    seed: int = 7
    rows: int = 5
    cols: int = 5
    tag_pitch: float = 0.06
    tag_design: TagAntennaProfile = TAG_DESIGN_B
    alternate_facing: bool = True
    mount: str = "nlos"                 # "nlos" (behind the board) or "los" (ceiling)
    reader_distance: float = 0.32       # antenna-to-plane distance, metres
    reader_angle_deg: float = 0.0       # tilt between antenna panel and tag plane
    tx_power_dbm: float = 30.0
    location: int = 2                   # multipath preset 1..4
    antenna_gain_dbi: float = 8.0
    #: Gen2 air-interface profile (None = dense-reader default).  Part of
    #: the scenario so calibration and sessions share the same sampling
    #: statistics — a profile switched mid-deployment would invalidate the
    #: auto-tuned segmentation threshold.
    link_profile: "object | None" = None

    def __post_init__(self) -> None:
        if self.mount not in ("nlos", "los"):
            raise ValueError(f"mount must be 'nlos' or 'los', got {self.mount!r}")
        if self.reader_distance <= 0.0:
            raise ValueError("reader distance must be positive")


@dataclass
class Scenario:
    """A fully built deployment ready to run sessions against."""

    config: ScenarioConfig
    layout: GridLayout
    array: TagArray
    antenna: ReaderAntenna
    environment: Environment
    rng: np.random.Generator

    def make_reader(self, noise: Optional[ReceiverNoise] = None) -> Reader:
        reader_config = ReaderConfig(
            tx_power_dbm=self.config.tx_power_dbm,
            los_occlusion=(self.config.mount == "los"),
            link_profile=self.config.link_profile,
        )
        return Reader(
            self.antenna,
            self.array,
            reader_config,
            self.environment,
            noise if noise is not None else ReceiverNoise(),
            rng=self.rng,
        )


def _place_antenna(config: ScenarioConfig) -> ReaderAntenna:
    """The reader antenna's pose relative to a pad's own centre."""
    if config.mount == "nlos":
        # Behind the board, boresight through the plane towards the user.
        base_pos = Vec3(0.0, 0.0, -config.reader_distance)
        boresight = Vec3(0.0, 0.0, 1.0)
    else:
        # Ceiling mount: above and slightly in front, looking down at the pad.
        base_pos = Vec3(0.0, 0.3, 1.1)
        boresight = (Vec3(0.0, 0.0, 0.0) - base_pos).normalized()

    angle = math.radians(config.reader_angle_deg)
    if angle != 0.0:
        boresight = rotate_about_y(boresight, angle)

    return ReaderAntenna(
        position=base_pos, boresight=boresight, gain_dbi=config.antenna_gain_dbi
    )


def build_scenario(config: ScenarioConfig = ScenarioConfig()) -> Scenario:
    """Construct the deployment described by ``config`` (seeded)."""
    rng = np.random.default_rng(config.seed)
    layout = GridLayout(rows=config.rows, cols=config.cols, pitch=config.tag_pitch)
    array = deploy_array(
        rng, layout, design=config.tag_design, alternate_facing=config.alternate_facing
    )
    return Scenario(
        config=config,
        layout=layout,
        array=array,
        antenna=_place_antenna(config),
        environment=location_preset(config.location),
        rng=rng,
    )


def build_tile_scenario(
    config: ScenarioConfig,
    workspace: WorkspaceLayout,
    tile: int,
) -> Scenario:
    """Build one workspace tile's deployment, in the tile's local frame.

    Tile ``k`` is seeded ``config.seed + k`` so tiles carry independent
    manufacture diversity; tile 0 uses the base seed, which together with
    the local-frame antenna placement makes the 1x1 workspace's tile a
    bit-identical twin of ``build_scenario(config)`` (the only difference
    is the tags' global EPC/index rewrite, the identity for 1x1).
    """
    if (config.rows, config.cols) != (workspace.rows, workspace.cols) or \
            config.tag_pitch != workspace.pitch:
        raise ValueError("scenario grid must match the workspace tile grid")
    rng = np.random.default_rng(config.seed + tile)
    array = deploy_tile(
        rng, workspace, tile,
        design=config.tag_design, alternate_facing=config.alternate_facing,
    )
    return Scenario(
        config=config,
        layout=workspace.tile_layout(),
        array=array,
        antenna=_place_antenna(config),
        environment=location_preset(config.location),
        rng=rng,
    )
