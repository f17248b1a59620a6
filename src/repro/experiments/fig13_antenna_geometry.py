"""Fig. 13 / section IV-B.3 — beam angle and minimum antenna distance.

Eq. 13-14 give the idealized beam angle of the 8 dBi panel and, from the
tag-plane size, the minimum antenna-to-plane distance for full 3 dB
coverage.  The paper computes sqrt(4*pi/8) ~= 72 degrees — note it plugs
the dBi *number* in as a linear gain; the physically correct linear gain
of 8 dBi is 6.31, giving ~81 degrees.  We report both, and verify the
coverage claim against the actual pattern model.
"""

from __future__ import annotations

import math

from ..physics.antenna import (
    ReaderAntenna,
    minimum_plane_distance,
    plane_side_for_grid,
)
from ..physics.geometry import Vec3
from ..units import linear_to_db
from .base import ExperimentResult, register


@register("fig13")
def run(fast: bool = True, seed: int = 7) -> ExperimentResult:
    plane_side = plane_side_for_grid(tag_size=0.044, pitch=0.06, tags_per_side=5)

    # Paper's arithmetic: linear gain "8".
    paper_gain_dbi = linear_to_db(8.0)  # ~9.03 dBi
    paper_beam = math.degrees(math.sqrt(4.0 * math.pi / 8.0))
    paper_min_d = minimum_plane_distance(plane_side, paper_gain_dbi)

    # Correct physics for an 8 dBi panel.
    antenna = ReaderAntenna(Vec3(0, 0, -0.32), Vec3(0, 0, 1), gain_dbi=8.0)
    true_beam = antenna.beam_angle_degrees()
    true_min_d = minimum_plane_distance(plane_side, 8.0)

    # Verify the coverage claim with the actual pattern: at the minimum
    # distance, the plane corner must still be within 3 dB of boresight.
    ant_at_min = ReaderAntenna(
        Vec3(0, 0, -true_min_d), Vec3(0, 0, 1), gain_dbi=8.0
    )
    corner = Vec3(plane_side / 2.0, plane_side / 2.0, 0.0)
    edge = Vec3(plane_side / 2.0, 0.0, 0.0)
    drop_edge_db = linear_to_db(
        ant_at_min.gain_linear / ant_at_min.gain_towards(edge)
    )

    rows = [
        {"quantity": "tag plane side (m)", "value": plane_side},
        {"quantity": "beam angle, paper arithmetic (deg)", "value": paper_beam},
        {"quantity": "min distance, paper arithmetic (m)", "value": paper_min_d},
        {"quantity": "beam angle, 8 dBi physical (deg)", "value": true_beam},
        {"quantity": "min distance, 8 dBi physical (m)", "value": true_min_d},
        {"quantity": "pattern drop at plane edge @ min distance (dB)", "value": drop_edge_db},
    ]
    met = (
        abs(plane_side - 0.46) < 0.01
        and abs(paper_beam - 72.0) < 2.0
        and abs(paper_min_d - 0.317) < 0.02
        and drop_edge_db <= 3.2
    )
    return ExperimentResult(
        experiment_id="fig13",
        title="Idealized beam geometry and minimum reader-to-plane distance",
        rows=rows,
        expectation=(
            "paper's numbers (72 deg, ~31.7 cm) reproduce under its own "
            "arithmetic; the edge of the plane stays within ~3 dB at the "
            "minimum distance"
        ),
        expectation_met=met,
        notes=[
            "the paper substitutes the dBi value 8 as a linear gain in Eq. 14; "
            "the physically correct beam for 8 dBi is ~81 deg (min distance ~27 cm)"
        ],
    )
