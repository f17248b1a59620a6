"""Pool batteries: every trial's log is bitwise its reseeded solo trial's.

A pool worker runs trial ``i`` of a battery as ``reseed(trial_rng(seed,
i))`` followed by the solo :meth:`SessionRunner.run_motion` or
:meth:`~SessionRunner.run_letter`.  So at any worker count, every trial's
ReportLog must equal, column by column, the log those two steps collect in
this process.  ``test_lanes_with_mixed_arm_templates`` holds
``Reader.collect_batch``/``emit_lane`` to the solo collect for as long as
they remain (DESIGN.md §13).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.motion.strokes import all_motions
from repro.sim.parallel import shutdown_pools, trial_rng
from repro.sim.runner import SessionRunner
from repro.sim.scenario import ScenarioConfig, build_scenario


@pytest.fixture(autouse=True)
def _fresh_pools():
    yield
    shutdown_pools()


def _columns_equal(a, b) -> bool:
    ca, cb = a.columns(), b.columns()
    for va, vb in zip(ca, cb):
        if isinstance(va, np.ndarray):
            if not np.array_equal(va, vb):
                return False
        elif list(va) != list(vb):
            return False
    return True


def _pool_and_solo(config: ScenarioConfig, kind: str, items, repeats: int = 1):
    """The pool battery at ``workers`` 1 and 2, and the reseeded solo loop
    over the same trials, all on one runner."""
    runner = SessionRunner(build_scenario(config))
    if kind == "motion":
        battery, run = runner.run_motion_battery, runner.run_motion
    else:
        battery, run = runner.run_letter_battery, runner.run_letter
    pooled = [battery(items, repeats, workers=w, collect_logs=True) for w in (1, 2)]
    solo = []
    for i, item in enumerate(item for item in items for _ in range(repeats)):
        runner.reseed(trial_rng(config.seed, i))
        solo.append(run(item, keep_log=True))
    return pooled, solo


def _assert_motions_equal(pooled, solo) -> None:
    for trials in pooled:
        assert len(trials) == len(solo) == 6
        for tp, ts in zip(trials, solo):
            assert tp.truth == ts.truth
            assert (tp.observed is None) == (ts.observed is None)
            if tp.observed is not None:
                assert tp.observed.label == ts.observed.label
            assert tp.log_size == ts.log_size > 0
            assert _columns_equal(tp.log, ts.log)


def _assert_letters_equal(pooled, solo) -> None:
    for trials in pooled:
        assert len(trials) == len(solo)
        for tp, ts in zip(trials, solo):
            assert tp.truth == ts.truth
            assert tp.result.letter == ts.result.letter
            assert len(tp.log) > 0
            assert _columns_equal(tp.log, ts.log)


class TestMotionBatchBitIdentity:
    def test_batch_logs_equal_solo_logs(self):
        pooled, solo = _pool_and_solo(ScenarioConfig(seed=19), "motion", all_motions()[:3], 2)
        _assert_motions_equal(pooled, solo)


class TestLetterBatchBitIdentity:
    def test_batch_logs_equal_solo_logs(self):
        pooled, solo = _pool_and_solo(ScenarioConfig(seed=23), "letter", ["T", "H", "L"])
        _assert_letters_equal(pooled, solo)


class TestLosBatchBitIdentity:
    """LOS trials run under arm occlusion; every pool trial must still
    equal its solo trial."""

    def test_motion_batch_logs_equal_solo_logs(self):
        pooled, solo = _pool_and_solo(
            ScenarioConfig(seed=31, mount="los"), "motion", all_motions()[:3], 2
        )
        _assert_motions_equal(pooled, solo)

    def test_letter_batch_logs_equal_solo_logs(self):
        pooled, solo = _pool_and_solo(
            ScenarioConfig(seed=37, mount="los", location=4), "letter",
            ["T", "H", "L", "X", "E"],
        )
        _assert_letters_equal(pooled, solo)

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
