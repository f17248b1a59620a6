"""RF physics substrate: geometry, antennas, backscatter channels, multipath,
hand scattering, tag coupling, and receiver noise.

This package is intentionally independent of the RFID protocol layer — it
deals only in positions, gains, and complex baseband signals.  The
:mod:`repro.rfid` package composes these pieces into a reader/tag system.
"""

from .antenna import ReaderAntenna, minimum_plane_distance, plane_side_for_grid
from .channel import ChannelModel, RayPath, Scatterer
from .coupling import (
    ALL_DESIGNS,
    TAG_DESIGN_A,
    TAG_DESIGN_B,
    TAG_DESIGN_C,
    TAG_DESIGN_D,
    TagAntennaProfile,
    aggregate_shadow_loss_db,
    alternating_facing_pattern,
    design_by_name,
    pair_shadow_loss_db,
)
from .geometry import (
    ORIGIN,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    GridLayout,
    Vec3,
    angle_between,
    centroid,
    mirror_across_plane,
    path_length,
    resample_polyline,
    rotate_about_y,
)
from .hand import (
    ARM_RCS_M2,
    HAND_RCS_M2,
    HAND_SHADOW_DEPTH_DB,
    HandPose,
    hand_height_profile,
)
from .multipath import (
    ALL_LOCATIONS,
    Environment,
    PlanarReflector,
    free_space,
    location_preset,
)
from .noise import DEFAULT_NOISE_FLOOR_DBM, ReceiverNoise

__all__ = [
    "ALL_DESIGNS",
    "ALL_LOCATIONS",
    "ARM_RCS_M2",
    "ChannelModel",
    "DEFAULT_NOISE_FLOOR_DBM",
    "Environment",
    "GridLayout",
    "HAND_RCS_M2",
    "HAND_SHADOW_DEPTH_DB",
    "HandPose",
    "ORIGIN",
    "PlanarReflector",
    "RayPath",
    "ReaderAntenna",
    "ReceiverNoise",
    "Scatterer",
    "TAG_DESIGN_A",
    "TAG_DESIGN_B",
    "TAG_DESIGN_C",
    "TAG_DESIGN_D",
    "TagAntennaProfile",
    "Vec3",
    "X_AXIS",
    "Y_AXIS",
    "Z_AXIS",
    "aggregate_shadow_loss_db",
    "alternating_facing_pattern",
    "angle_between",
    "centroid",
    "design_by_name",
    "free_space",
    "hand_height_profile",
    "location_preset",
    "minimum_plane_distance",
    "mirror_across_plane",
    "pair_shadow_loss_db",
    "path_length",
    "plane_side_for_grid",
    "resample_polyline",
    "rotate_about_y",
]
