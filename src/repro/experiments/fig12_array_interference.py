"""Fig. 12 — shadowing inside a growing tag array, for four tag designs.

A target tag behind the array loses received power with every added row
and column; the magnitude tracks the design's radar cross-section: the
big-antenna design D costs ~20 dB at three columns, the small AZ-E53-class
design B only ~2 dB.
"""

from __future__ import annotations

from ..physics.coupling import ALL_DESIGNS, TAG_DESIGN_D, aggregate_shadow_loss_db
from ..physics.geometry import GridLayout, Vec3
from .base import ExperimentResult, register


@register("fig12")
def run(fast: bool = True, seed: int = 7) -> ExperimentResult:
    # The target tag sits behind the array centre (as in Fig. 12a).
    target = Vec3(0.0, 0.0, -0.03)

    rows = []
    losses = {}
    for design in ALL_DESIGNS:
        for cols in (1, 2, 3):
            layout = GridLayout(rows=5, cols=cols, pitch=0.06)
            positions = layout.positions()
            loss = aggregate_shadow_loss_db(target, positions, design, same_facing=True)
            losses[(design.name, cols)] = loss
            rows.append(
                {
                    "design": design.name,
                    "columns_of_5_tags": cols,
                    "target_rss_drop_db": loss,
                }
            )

    # Row sweep for the monotone-with-count observation.
    for n in (1, 3, 5):
        layout = GridLayout(rows=n, cols=1, pitch=0.06)
        loss = aggregate_shadow_loss_db(target, layout.positions(), TAG_DESIGN_D)
        rows.append(
            {"design": "D (single column)", "columns_of_5_tags": f"{n} tags", "target_rss_drop_db": loss}
        )

    d3 = losses[("D", 3)]
    b3 = losses[("B", 3)]
    met = (
        d3 > 12.0                       # large-RCS design: tens of dB
        and b3 < 5.0                    # small-RCS design: a few dB
        and all(
            losses[(d.name, 1)] <= losses[(d.name, 2)] <= losses[(d.name, 3)]
            for d in ALL_DESIGNS
        )
    )
    return ExperimentResult(
        experiment_id="fig12",
        title="Array shadowing vs rows/columns for four tag designs",
        rows=rows,
        expectation=(
            "loss grows monotonically with tag count; design D ~20 dB at "
            "3 columns vs design B ~2 dB (RCS ordering)"
        ),
        expectation_met=met,
    )
