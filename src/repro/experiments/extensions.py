"""Extension experiments: the paper's section-VI limitations and future
work, implemented and measured.

* ``ext_speed``    — accuracy vs hand speed under different Gen2 link
  profiles.  The paper blames fast-motion errors on undersampling and
  proposes shortening tag packets / speeding the link; the experiment
  shows the fast profile recovering accuracy at high speeds.
* ``ext_hover``    — accuracy vs hand-to-plane distance.  The paper's
  prototype is rated "within 5 cm"; we quantify the fall-off.
* ``ext_holistic`` — whole-letter (template) recognition vs the stroke
  grammar vs the hybrid, the paper's proposed compounding-error fix.
* ``ext_words``    — multi-letter input with pause-based letter
  clustering and lexicon decoding (future work in section III-C.2).
* ``ext_multipad`` — one reader serving two RFIPads by antenna
  multiplexing (the cost story of section I), vs a dedicated reader.
"""

from __future__ import annotations

import dataclasses
import time
from typing import List

import numpy as np

from ..core.holistic import HolisticRecognizer, HybridRecognizer
from ..core.pipeline import RFIPad
from ..core.words import WordDecoder, WordRecognizer
from ..motion.script import script_for_letter, script_for_motion, script_for_word
from ..motion.strokes import Motion, StrokeKind, all_motions
from ..motion.user import DEFAULT_USER
from ..rfid.multiplex import MultiplexedReader, ReaderPort
from ..rfid.protocol import PROFILE_DENSE, PROFILE_FAST_SHORT
from ..rfid.reader import ReaderConfig
from ..sim.metrics import score_motion_trials
from ..sim.runner import MotionTrial, SessionRunner, WorkspaceRunner
from ..sim.scenario import ScenarioConfig, build_scenario
from ..sim.workspace import WorkspaceConfig, build_workspace
from .base import ExperimentResult, register


@register("ext_speed")
def run_speed(fast: bool = True, seed: int = 7) -> ExperimentResult:
    repeats = 2 if fast else 15
    speeds = (0.2, 0.45, 0.7)
    profiles = (PROFILE_DENSE, PROFILE_FAST_SHORT)
    motions = all_motions()

    rows = []
    acc: dict = {}
    for profile in profiles:
        # The profile is part of the scenario so calibration and sessions
        # share the same sampling statistics.
        runner = SessionRunner(
            build_scenario(ScenarioConfig(seed=seed, link_profile=profile))
        )
        for speed in speeds:
            trials = []
            for motion in motions:
                for _ in range(repeats):
                    trials.append(runner.run_motion(motion, speed=speed))
            acc[(profile.name, speed)] = score_motion_trials(trials).accuracy
            rows.append(
                {
                    "profile": profile.name,
                    "hand_speed_mps": speed,
                    "accuracy": acc[(profile.name, speed)],
                }
            )

    dense, fast_p = profiles[0].name, profiles[1].name
    met = (
        acc[(dense, 0.2)] >= acc[(dense, 0.7)]          # undersampling bites
        and acc[(fast_p, 0.7)] >= acc[(dense, 0.7)]     # faster link recovers
    )
    return ExperimentResult(
        experiment_id="ext_speed",
        title="Extension: hand speed vs Gen2 link profile (undersampling)",
        rows=rows,
        expectation=(
            "slow hands beat fast hands on the dense profile; the fast/"
            "short-EPC profile recovers accuracy at high speed"
        ),
        expectation_met=met,
    )


@register("ext_hover")
def run_hover(fast: bool = True, seed: int = 7) -> ExperimentResult:
    repeats = 2 if fast else 15
    heights = (0.03, 0.05, 0.08, 0.12)
    motions = all_motions()
    runner = SessionRunner(build_scenario(ScenarioConfig(seed=seed)))

    rows = []
    acc = {}
    for height in heights:
        user = dataclasses.replace(
            DEFAULT_USER, hover_height=height, raised_height=max(0.2, height + 0.12)
        )
        trials = runner.run_motion_battery(motions, repeats, user=user)
        acc[height] = score_motion_trials(trials).accuracy
        rows.append({"hover_cm": height * 100, "accuracy": acc[height]})

    met = acc[0.03] >= 0.8 and acc[0.03] > acc[0.12] and acc[0.05] >= acc[0.12]
    return ExperimentResult(
        experiment_id="ext_hover",
        title="Extension: accuracy vs hand-to-plane distance",
        rows=rows,
        expectation=(
            "satisfactory accuracy within ~5 cm of the plane, degrading "
            "beyond (the paper's section-VI soft constraint)"
        ),
        expectation_met=met,
    )


@register("ext_holistic")
def run_holistic(fast: bool = True, seed: int = 7) -> ExperimentResult:
    repeats = 2 if fast else 8
    letters = "AEHLOSTZ"  # a mix of easy and hard letters
    runner = SessionRunner(build_scenario(ScenarioConfig(seed=seed)))
    holistic = HolisticRecognizer(runner.scenario.layout)
    hybrid = HybridRecognizer(runner.pad.grammar, holistic)

    hits = {"grammar": 0, "holistic": 0, "hybrid": 0}
    total = 0
    for letter in letters:
        for _ in range(repeats):
            script = script_for_letter(letter, runner.rng)
            result = runner.pad.recognize_letter(runner.run_script(script))
            strokes, windows = result.strokes, result.windows
            total += 1
            hits["grammar"] += result.letter == letter
            hits["holistic"] += holistic.recognize(strokes, windows).letter == letter
            hits["hybrid"] += hybrid.recognize(strokes, windows).letter == letter

    rows = [
        {"recogniser": name, "accuracy": count / max(1, total)}
        for name, count in hits.items()
    ]
    met = hits["hybrid"] >= hits["grammar"] and hits["holistic"] > 0
    return ExperimentResult(
        experiment_id="ext_holistic",
        title="Extension: stroke grammar vs holistic templates vs hybrid",
        rows=rows,
        expectation=(
            "the hybrid (grammar + holistic fallback) never loses to the "
            "grammar alone — holistic matching absorbs compounded stroke "
            "errors, the paper's section-VI proposal"
        ),
        expectation_met=met,
    )


@register("ext_words")
def run_words(fast: bool = True, seed: int = 7) -> ExperimentResult:
    words = ["HI", "LET"] if fast else ["HI", "LET", "HELP", "EXIT", "TEA"]
    lexicon = ["HI", "LET", "HELP", "EXIT", "TEA", "ILL", "HAT", "TILE"]
    runner = SessionRunner(build_scenario(ScenarioConfig(seed=seed)))
    recognizer = WordRecognizer(
        runner.pad, decoder=WordDecoder(lexicon=lexicon), letter_gap_s=1.3
    )

    rows = []
    letter_ok = 0
    letter_total = 0
    word_ok = 0
    for word in words:
        script = script_for_word(word, runner.rng)
        log = runner.run_script(script)
        result = recognizer.recognize_word(log)
        seg_ok = len(result.letters) == len(word)
        if seg_ok:
            letter_total += len(word)
            letter_ok += sum(
                1 for got, want in zip(result.raw, word) if got == want
            )
        word_ok += result.text == word
        rows.append(
            {
                "word": word,
                "letters_found": len(result.letters),
                "raw": result.raw,
                "decoded": result.text,
                "correct": result.text == word,
            }
        )

    rows.append(
        {
            "word": "summary",
            "letters_found": "",
            "raw": f"letter acc {letter_ok}/{max(1, letter_total)}",
            "decoded": f"word acc {word_ok}/{len(words)}",
            "correct": "",
        }
    )
    met = word_ok >= len(words) - 1
    return ExperimentResult(
        experiment_id="ext_words",
        title="Extension: multi-letter input with lexicon decoding",
        rows=rows,
        expectation="pause clustering separates letters; the lexicon decode fixes stragglers",
        expectation_met=met,
    )


@register("ext_multipad")
def run_multipad(fast: bool = True, seed: int = 7) -> ExperimentResult:
    repeats = 2 if fast else 10
    motions = [
        Motion(StrokeKind.HBAR),
        Motion(StrokeKind.VBAR),
        Motion(StrokeKind.SLASH),
        Motion(StrokeKind.BACKSLASH),
    ]

    # Two pads, side by side, one reader multiplexing between them.
    scen_a = build_scenario(ScenarioConfig(seed=seed))
    scen_b = build_scenario(ScenarioConfig(seed=seed + 1))
    ports = [
        ReaderPort(scen_a.antenna, scen_a.array, scen_a.environment),
        ReaderPort(scen_b.antenna, scen_b.array, scen_b.environment),
    ]
    # Short dwell: 100 ms gaps cost each pad little stroke continuity;
    # commodity readers support per-antenna dwell configuration.  Each
    # port carries its own RNG stream so pad A's draws are untouched by
    # how long pad B's script runs — the same decoupling that makes
    # battery results identical no matter how many REPRO_WORKERS run.
    mux = MultiplexedReader(
        ports,
        ReaderConfig(),
        dwell_s=0.1,
        rngs=[np.random.default_rng(seed), np.random.default_rng(seed + 1)],
    )
    script_rng = np.random.default_rng(seed)

    # Calibrate both pads from a shared quiet capture.
    static_logs = mux.collect_static(6.0)
    pads: List[RFIPad] = []
    for scen, static in zip((scen_a, scen_b), static_logs):
        pad = RFIPad(scen.layout)
        pad.calibrate_from(static)
        pads.append(pad)

    # Simultaneous writers on both pads, timed for the bench ledger.
    trials_mux: List[List[MotionTrial]] = [[], []]
    trial_count = 0
    t_start = time.perf_counter()
    for motion_a in motions:
        for motion_b in motions:
            for _ in range(repeats):
                script_a = script_for_motion(motion_a, script_rng)
                script_b = script_for_motion(motion_b, script_rng)
                duration = max(script_a.duration, script_b.duration)
                logs = mux.collect(
                    duration, [script_a.hand_pose_at, script_b.hand_pose_at]
                )
                for pad, log, motion, sink in (
                    (pads[0], logs[0], motion_a, trials_mux[0]),
                    (pads[1], logs[1], motion_b, trials_mux[1]),
                ):
                    obs = pad.detect_motion(log)
                    sink.append(MotionTrial(motion, obs, len(log)))
                trial_count += 2
    elapsed = time.perf_counter() - t_start
    trials_per_s = trial_count / elapsed if elapsed > 0 else float("inf")

    # Dwell accounting comes from the scheduler's closed form — a pure
    # function of (ports, dwell, duration), so the reported shares are
    # identical whether the battery ran serial or on N workers.
    shares = mux.dwell_totals(10.0)
    share_a, share_b = (s / sum(shares) for s in shares)

    # Dedicated-reader baseline on pad A.
    runner = SessionRunner(build_scenario(ScenarioConfig(seed=seed)))
    baseline = score_motion_trials(
        runner.run_motion_battery(motions, repeats * 2)
    ).accuracy

    # Workspace leg: the same two tiles as one 2x1 workspace, with a
    # boundary-crossing letter stitched across the seam (DESIGN.md §15).
    ws_runner = WorkspaceRunner(
        build_workspace(
            WorkspaceConfig(base=ScenarioConfig(seed=seed), tiles_x=2)
        )
    )
    letter = "L"
    ws_script = script_for_letter(letter, ws_runner.rng)
    ws_log = ws_runner.run_script(ws_script)
    ws_result = ws_runner.pad.recognize_letter(ws_log)
    stitch_err = ws_runner.stitched_trajectory_error(ws_log, ws_script)
    stitch_err_cm = stitch_err * 100 if stitch_err is not None else float("nan")

    acc_a = score_motion_trials(trials_mux[0]).accuracy
    acc_b = score_motion_trials(trials_mux[1]).accuracy
    rows = [
        {"configuration": "dedicated reader (1 pad)", "accuracy": baseline},
        {
            "configuration": f"multiplexed pad A ({share_a:.0%} dwell)",
            "accuracy": acc_a,
        },
        {
            "configuration": f"multiplexed pad B ({share_b:.0%} dwell)",
            "accuracy": acc_b,
        },
        {
            "configuration": "2x1 workspace, boundary letter "
            f"'{letter}' -> '{ws_result.letter}'",
            "accuracy": float(ws_result.letter == letter),
        },
    ]
    met = (
        min(acc_a, acc_b) >= 0.55
        and baseline >= min(acc_a, acc_b)
        and ws_result.letter == letter
    )
    result = ExperimentResult(
        experiment_id="ext_multipad",
        title="Extension: one reader serving two RFIPads (antenna multiplexing)",
        rows=rows,
        expectation=(
            "both multiplexed pads remain usable at 50% dwell, at some cost "
            "vs a dedicated reader (half the sampling rate); a 2x1 workspace "
            "stitches a boundary-crossing letter"
        ),
        expectation_met=met,
    )
    result.notes.append(
        f"multipad_trials_per_s {trials_per_s:.2f}; "
        f"stitch_trajectory_err_cm {stitch_err_cm:.2f}"
    )
    return result


@register("ext_tracking")
def run_tracking(fast: bool = True, seed: int = 7) -> ExperimentResult:
    """Trajectory reconstruction from trough anchors vs the Kinect.

    RFIPad's outputs are symbolic (strokes, letters); the same trough
    anchors also support a crude continuous tracker.  We reconstruct the
    hand path for each motion and measure the mean xy error against the
    ground-truth trajectory — tag-pitch-resolution tracking for free.
    """
    from ..core.direction import detect_troughs
    from ..core.trajectory import reconstruct_trajectory, trajectory_error

    repeats = 3 if fast else 15
    runner = SessionRunner(build_scenario(ScenarioConfig(seed=seed)))
    layout = runner.scenario.layout
    cal = runner.pad.calibration

    motions = {
        "−": Motion(StrokeKind.HBAR),
        "|": Motion(StrokeKind.VBAR),
        "/": Motion(StrokeKind.SLASH),
        "⊂": Motion(StrokeKind.ARC_C),
    }
    rows = []
    errors_all = []
    for name, motion in motions.items():
        errors = []
        for _ in range(repeats):
            script = script_for_motion(motion, runner.rng)
            log = runner.run_script(script)
            troughs = detect_troughs(log, cal)
            estimate = reconstruct_trajectory(troughs, layout)
            if estimate is None:
                continue
            reference = [(p.t, p.position) for p in script.true_trajectory(dt=0.05)]
            try:
                errors.append(trajectory_error(estimate, reference))
            except ValueError:
                continue
        if errors:
            errors_all.extend(errors)
            rows.append(
                {
                    "motion": name,
                    "mean_xy_error_cm": float(np.mean(errors)) * 100,
                    "samples": len(errors),
                }
            )
        else:
            rows.append({"motion": name, "mean_xy_error_cm": float("nan"), "samples": 0})

    overall = float(np.mean(errors_all)) if errors_all else float("inf")
    rows.append(
        {"motion": "overall", "mean_xy_error_cm": overall * 100, "samples": len(errors_all)}
    )

    # Workspace leg: the same metric across a 2x1 tile seam.  The letter
    # script spans both tiles, so trough anchors from the two halves must
    # stitch into one coherent workspace-frame trajectory (DESIGN.md §15).
    ws_runner = WorkspaceRunner(
        build_workspace(
            WorkspaceConfig(base=ScenarioConfig(seed=seed), tiles_x=2)
        )
    )
    stitch_errors = []
    for _ in range(repeats):
        ws_script = script_for_letter("L", ws_runner.rng)
        err = ws_runner.stitched_trajectory_error(
            ws_runner.run_script(ws_script), ws_script
        )
        if err is not None:
            stitch_errors.append(err)
    stitch_err = float(np.mean(stitch_errors)) if stitch_errors else float("inf")
    rows.append(
        {
            "motion": "2x1 workspace stitch (letter L)",
            "mean_xy_error_cm": stitch_err * 100,
            "samples": len(stitch_errors),
        }
    )

    met = (
        bool(errors_all)
        and overall < 0.08  # ~ one tag pitch (6 cm) + slack
        and bool(stitch_errors)
        and stitch_err < 0.08
    )
    result = ExperimentResult(
        experiment_id="ext_tracking",
        title="Extension: trough-anchor trajectory reconstruction accuracy",
        rows=rows,
        expectation=(
            "mean xy tracking error within ~a tag pitch for line and arc "
            "strokes, including stitched trajectories across a 2x1 seam"
        ),
        expectation_met=met,
    )
    result.notes.append(f"stitch_trajectory_err_cm {stitch_err * 100:.2f}")
    return result
