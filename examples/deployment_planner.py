#!/usr/bin/env python
"""Deployment planner: the paper's section IV engineering guidance as a tool.

Given a pad size and tag design, this walks the deployment questions an
integrator faces — tag spacing and facing (mutual coupling, Fig. 11/12),
antenna distance (beam coverage, Fig. 13 / Eq. 13-14), TX power margin —
then validates the chosen deployment end-to-end with a quick motion battery.

Run:  python examples/deployment_planner.py
"""

from repro import ScenarioConfig, SessionRunner, all_motions, build_scenario, score_motion_trials
from repro.physics.antenna import minimum_plane_distance, plane_side_for_grid
from repro.physics.coupling import ALL_DESIGNS, aggregate_shadow_loss_db, pair_shadow_loss_db
from repro.physics.geometry import GridLayout


def main() -> None:
    rows = cols = 5
    tag_size = 0.044
    spacing = 0.06
    gain_dbi = 8.0

    # --- 1. tag design selection: who pollutes the array least? --------
    print("== tag design selection (array self-interference) ==")
    layout = GridLayout(rows=rows, cols=cols, pitch=spacing)
    centre = layout.position(rows // 2, cols // 2)
    for design in ALL_DESIGNS:
        loss = aggregate_shadow_loss_db(centre, layout.positions(), design)
        print(f"  design {design.name}: centre-tag coupling loss "
              f"{loss:5.1f} dB  (RCS {design.rcs_m2 * 1e4:.1f} cm^2)")
    best = min(
        ALL_DESIGNS,
        key=lambda d: aggregate_shadow_loss_db(centre, layout.positions(), d),
    )
    print(f"  -> pick design {best.name} (smallest RCS, as the paper concludes)\n")

    # --- 2. spacing and facing ------------------------------------------
    print("== spacing & facing (pairwise coupling) ==")
    for sep in (0.03, 0.06, 0.12):
        same = pair_shadow_loss_db(sep, best, same_facing=True)
        opp = pair_shadow_loss_db(sep, best, same_facing=False)
        print(f"  {sep * 100:4.0f} cm: same-facing {same:4.2f} dB, "
              f"opposite-facing {opp:4.2f} dB")
    print("  -> 6 cm spacing with checkerboard facing keeps coupling negligible\n")

    # --- 3. antenna distance (Eq. 13-14 / Fig. 13) ----------------------
    side = plane_side_for_grid(tag_size, spacing, rows)
    d_min = minimum_plane_distance(side, gain_dbi)
    print("== antenna geometry ==")
    print(f"  pad side {side * 100:.0f} cm, {gain_dbi:.0f} dBi panel "
          f"-> minimum antenna distance {d_min * 100:.1f} cm for 3 dB coverage\n")

    # --- 4. validate the plan end-to-end --------------------------------
    print("== end-to-end validation (13-motion battery) ==")
    config = ScenarioConfig(
        seed=7,
        rows=rows,
        cols=cols,
        tag_pitch=spacing,
        tag_design=best,
        reader_distance=max(0.32, round(d_min + 0.02, 2)),
        antenna_gain_dbi=gain_dbi,
    )
    runner = SessionRunner(build_scenario(config))
    trials = runner.run_motion_battery(all_motions(), repeats=2)
    counts = score_motion_trials(trials)
    print(f"  deployment at {config.reader_distance * 100:.0f} cm, "
          f"{config.tx_power_dbm:.0f} dBm:")
    print(f"  accuracy {counts.accuracy:.1%}  FPR {counts.fpr:.1%}  FNR {counts.fnr:.1%}")
    verdict = "ship it" if counts.accuracy >= 0.85 else "revisit the plan"
    print(f"  -> {verdict}")


if __name__ == "__main__":
    main()
