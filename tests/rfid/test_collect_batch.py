"""Trial-axis collection: batched batteries must be bitwise solo-equal.

The tentpole contract of the trial-axis path: grouping trials into one
lockstep :meth:`Reader.collect_batch` evaluation — whatever the grouping
— changes *nothing* observable.  Every trial's ReportLog is byte-for-byte
the log its solo ``reseed + run_motion`` counterpart collects, because
each lane keeps its own RNG stream and every shared numpy evaluation is
bit-identical per lane (see DESIGN.md §13).
"""

from __future__ import annotations

import numpy as np

from repro.motion.strokes import all_motions
from repro.motion.user import DEFAULT_USER
from repro.sim.parallel import trial_rng
from repro.sim.runner import SessionRunner
from repro.sim.scenario import ScenarioConfig, build_scenario


def _columns_equal(a, b) -> bool:
    ca, cb = a.columns(), b.columns()
    for va, vb in zip(ca, cb):
        if isinstance(va, np.ndarray):
            if not np.array_equal(va, vb):
                return False
        elif list(va) != list(vb):
            return False
    return True


def _motion_items(seed: int, n_each: int):
    motions = all_motions()[:3]
    return [
        (m, DEFAULT_USER, None, trial_rng(seed, i * n_each + j))
        for i, m in enumerate(motions)
        for j in range(n_each)
    ]


class TestMotionBatchBitIdentity:
    def test_batch_logs_equal_solo_logs(self):
        runner = SessionRunner(build_scenario(ScenarioConfig(seed=19)))
        batched = runner.run_motion_batch(_motion_items(19, 2), keep_logs=True)

        solo = []
        for motion, user, speed, rng in _motion_items(19, 2):
            runner.reseed(rng)
            solo.append(
                runner.run_motion(motion, user=user, speed=speed, keep_log=True)
            )

        assert len(batched) == len(solo) == 6
        for tb, ts in zip(batched, solo):
            assert tb.truth == ts.truth
            assert (tb.observed is None) == (ts.observed is None)
            if tb.observed is not None:
                assert tb.observed.label == ts.observed.label
            assert tb.log_size == ts.log_size > 0
            assert _columns_equal(tb.log, ts.log)

    def test_batch_composition_does_not_change_results(self):
        # One fat batch vs two sub-batches over the same items: lanes are
        # independent, so the grouping is pure scheduling.
        runner = SessionRunner(build_scenario(ScenarioConfig(seed=19)))
        whole = runner.run_motion_batch(_motion_items(19, 2), keep_logs=True)
        items = _motion_items(19, 2)
        split = runner.run_motion_batch(
            items[:2], keep_logs=True
        ) + runner.run_motion_batch(items[2:], keep_logs=True)
        for tw, tsp in zip(whole, split):
            assert tw.log_size == tsp.log_size
            assert _columns_equal(tw.log, tsp.log)


class TestLetterBatchBitIdentity:
    def test_batch_logs_equal_solo_logs(self):
        runner = SessionRunner(build_scenario(ScenarioConfig(seed=23)))
        items = [
            (letter, DEFAULT_USER, trial_rng(23, i))
            for i, letter in enumerate(["T", "H", "L"])
        ]
        batched = runner.run_letter_batch(items, keep_logs=True)

        solo = []
        for letter, user, rng in [
            (letter, DEFAULT_USER, trial_rng(23, i))
            for i, letter in enumerate(["T", "H", "L"])
        ]:
            runner.reseed(rng)
            solo.append(runner.run_letter(letter, user=user, keep_log=True))

        for tb, ts in zip(batched, solo):
            assert tb.truth == ts.truth
            assert tb.result.letter == ts.result.letter
            assert _columns_equal(tb.log, ts.log)


class TestLosBatchBitIdentity:
    """LOS lanes join the template groups with their own occluded bases;
    every lane must still equal its solo collect."""

    def test_motion_batch_logs_equal_solo_logs(self):
        runner = SessionRunner(build_scenario(ScenarioConfig(seed=31, mount="los")))
        items = _motion_items(31, 2)
        batched = runner.run_motion_batch(items, keep_logs=True)
        solo = []
        for motion, user, speed, rng in _motion_items(31, 2):
            runner.reseed(rng)
            solo.append(runner.run_motion(motion, user=user, speed=speed, keep_log=True))
        assert len(batched) == len(solo) == 6
        for tb, ts in zip(batched, solo):
            assert tb.log_size == ts.log_size > 0
            assert _columns_equal(tb.log, ts.log)

    def test_letter_batch_logs_equal_solo_logs(self):
        runner = SessionRunner(
            build_scenario(ScenarioConfig(seed=37, mount="los", location=4))
        )

        def items():
            return [
                (letter, DEFAULT_USER, trial_rng(37, i))
                for i, letter in enumerate(["T", "H", "L", "X", "E"])
            ]

        batched = runner.run_letter_batch(items(), keep_logs=True)
        solo = []
        for letter, user, rng in items():
            runner.reseed(rng)
            solo.append(runner.run_letter(letter, user=user, keep_log=True))
        for tb, ts in zip(batched, solo):
            assert tb.result.letter == ts.result.letter
            assert len(tb.log) > 0
            assert _columns_equal(tb.log, ts.log)

    def test_lanes_with_mixed_arm_templates(self):
        # Plain pose callables (no pose_at_many) whose arm template differs
        # by lane and switches mid-window: rounds group lanes by template,
        # and emit groups each lane's reads by template.
        from repro.physics.geometry import Vec3
        from repro.physics.hand import HandPose
        from repro.rfid.reader import CollectSpec

        arms = [
            {},
            dict(arm_direction=Vec3(0.35, -0.7, 0.6), arm_length=0.22),
            dict(arm_direction=Vec3(-0.2, -0.3, 1.0), arm_length=0.35),
        ]

        def pose_fn(lane: int):
            def pose_at(t: float):
                if t < 0.1 * lane:
                    return None
                position = Vec3(
                    0.05 * np.cos(2.5 * t + lane), 0.05 * np.sin(1.5 * t), 0.04
                )
                arm = arms[lane % 3] if t < 0.6 else arms[(lane + 1) % 3]
                return HandPose(position=position, **arm)

            return pose_at

        n_lanes = 5
        scenario = build_scenario(ScenarioConfig(seed=41, mount="los", location=1))
        reader = scenario.make_reader()
        specs = [
            CollectSpec(duration=1.1, hand_pose_at=pose_fn(i), rng=trial_rng(41, i))
            for i in range(n_lanes)
        ]
        batched = [reader.emit_lane(lane) for lane in reader.collect_batch(specs)]
        for i in range(n_lanes):
            reader.rng = trial_rng(41, i)
            reader.reset_read_history()
            solo = reader.collect(1.1, pose_fn(i))
            assert len(solo) > 0
            assert _columns_equal(batched[i], solo)
