"""Block-verified readability: rounds run ahead, checked per block.

``Reader.collect`` runs inventory rounds ahead on the last readable set it
knows and checks each block of them with one pose query and one channel
evaluation, rolling back exactly to the first round whose set differed
(DESIGN.md §10).  Every log must still equal the scalar reference collect
(``collect_oracles.scalar_collect``), which queries readability before
every round, with the generator left in the same state:

* on the deployments where the set churns most (LOS at 20 dBm, NLOS with
  the antenna tilted 80°), so rollbacks really happen;
* with scripted poses that change the set at a chosen row of a chosen
  check: a block's first ahead round, a middle one, its last one, the
  round after the block, and across a dwell-slice boundary;
* for a hand-free collect, which makes no pose query and no check.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.motion.script import script_for_letter, script_for_motion
from repro.motion.strokes import all_motions
from repro.obs.metrics import scoped_metrics
from repro.physics.geometry import Vec3
from repro.physics.hand import HandPose, PoseTrack
from repro.rfid.multiplex import DwellScheduler
from repro.sim.scenario import ScenarioConfig, build_scenario

from .collect_oracles import scalar_collect


def _columns(log):
    return [np.asarray(c).tolist() for c in log.columns()]


def _collect_both(config, seed, pose_at, duration=None, slices=None):
    """The reader's collect and the scalar reference on equal generators:
    (log, oracle log, reader generator state, oracle state, discarded)."""
    scenario = build_scenario(config)
    reader = scenario.make_reader()
    reader.rng = np.random.default_rng(seed)
    with scoped_metrics() as metrics:
        log = reader.collect(duration, pose_at, slices=slices)
        discarded = metrics.counter_value("reader.rounds_discarded")
    oracle = build_scenario(config).make_reader()
    oracle.rng = np.random.default_rng(seed)
    want = scalar_collect(oracle, duration, pose_at, slices=slices)
    return (
        log, want, reader.rng.bit_generator.state, oracle.rng.bit_generator.state,
        discarded,
    )


_CHURN = {
    "los-20dBm": ScenarioConfig(seed=3, mount="los", tx_power_dbm=20.0),
    "nlos-tilt80": ScenarioConfig(seed=3, mount="nlos", reader_angle_deg=80.0),
}


class TestChurnDeployments:
    @pytest.mark.parametrize("name", sorted(_CHURN))
    def test_motions_and_letter_equal_scalar_oracle(self, name):
        config = _CHURN[name]
        rng = np.random.default_rng(5)
        scripts = [script_for_motion(m, rng) for m in all_motions()[:2]]
        scripts.append(script_for_letter("H", rng))
        total_discarded = 0
        for k, script in enumerate(scripts):
            log, want, state, want_state, discarded = _collect_both(
                config, 40 + k, script.hand_pose_at, duration=script.duration
            )
            assert len(log) > 0
            assert _columns(log) == _columns(want)
            assert state == want_state
            total_discarded += discarded
        # The set churns here, so blocks really were rolled back.
        assert total_discarded > 0


class _RecordingSource:
    """A pose source whose set changes at ``t_on``: no hand before it, then
    a hand parked over tag 12 with a shadow deep enough to silence it.
    Records the times of every batch query."""

    def __init__(self, array, t_on=float("inf")):
        tag = array.tags[12].position
        self._pose = HandPose(
            position=Vec3(tag.x, tag.y, tag.z + 0.02), shadow_depth_db=80.0
        )
        self.t_on = t_on
        self.batches = []

    def hand_pose_at(self, t):
        return self._pose if t >= self.t_on else None

    def pose_at_many(self, times):
        self.batches.append(np.asarray(times).tolist())
        return PoseTrack.from_poses(times, [self.hand_pose_at(t) for t in times.tolist()])


def _checks(config, seed, duration=None, slices=None):
    """The readability checks a collect makes while the set holds: each
    batch of query times (the emit's batch dropped)."""
    scenario = build_scenario(config)
    reader = scenario.make_reader()
    reader.rng = np.random.default_rng(seed)
    src = _RecordingSource(scenario.array)
    reader.collect(duration, src.hand_pose_at, slices=slices)
    return src.batches[:-1]


def _forced(config, seed, t_on, duration=None, slices=None):
    src = _RecordingSource(build_scenario(config).array, t_on)
    return _collect_both(config, seed, src.hand_pose_at, duration, slices) + (src,)


_QUIET = ScenarioConfig(seed=11, mount="nlos")


class TestForcedMismatch:
    """A set change placed exactly on a checked row of one block."""

    def _block(self):
        checks = _checks(_QUIET, 7, duration=1.5)
        # The first query is the first round's own clock; then one batch
        # per block: its ahead rounds' start clocks, then the next round's.
        assert len(checks[0]) == 1
        return next(batch for batch in checks if len(batch) >= 6)

    @pytest.mark.parametrize("row", ["first", "middle", "last", "after"])
    def test_equals_oracle(self, row):
        block = self._block()
        n_ahead = len(block) - 1
        index = {"first": 0, "middle": n_ahead // 2, "last": n_ahead - 1, "after": n_ahead}[row]
        log, want, state, want_state, discarded, src = _forced(
            _QUIET, 7, block[index], duration=1.5
        )
        assert _columns(log) == _columns(want)
        assert state == want_state
        # Rounds from the changed one to the block's end are rolled back;
        # a change at the round after the block costs nothing.
        assert discarded == n_ahead - index
        # The set really changed: tag 12 is never read after the change.
        tags = np.asarray(log.columns()[1])
        times = np.asarray(log.columns()[0])
        assert (tags[times >= block[index]] != 12).all()
        assert (tags[times < block[index]] == 12).any()
        # No clock is queried twice, rolled-back rows included.
        queried = [t for batch in src.batches[:-1] for t in batch]
        assert len(queried) == len(set(queried))


class TestDwellSliceBoundary:
    """Blocks span slices: a change on either side of a slice boundary
    inside one block rolls back exactly, past the next slice's start."""

    def _plan(self):
        plan = DwellScheduler(2, 0.05).plan(1.2)
        return [(s.t0, s.t1) for s in plan if s.port == 0]

    def _spanning_block(self, plan):
        starts = [t0 for t0, _ in plan]
        for batch in _checks(_QUIET, 9, slices=plan):
            for i in range(1, len(batch) - 1):
                # An ahead round that opens a slice, after one that did not.
                if batch[i] in starts and batch[i - 1] not in starts:
                    return batch, i
        raise AssertionError("no check spans a slice boundary")

    @pytest.mark.parametrize("side", ["before", "after"])
    def test_equals_oracle(self, side):
        plan = self._plan()
        batch, i = self._spanning_block(plan)
        index = i - 1 if side == "before" else i
        log, want, state, want_state, discarded, _ = _forced(
            _QUIET, 9, batch[index], slices=plan
        )
        assert _columns(log) == _columns(want)
        assert state == want_state
        assert discarded == len(batch) - 1 - index


class TestHandFree:
    def test_no_query_and_no_check(self, monkeypatch):
        scenario = build_scenario(_QUIET)
        reader = scenario.make_reader()
        reader.rng = np.random.default_rng(3)

        def fail(*args, **kwargs):
            raise AssertionError("a hand-free collect checked readability")

        monkeypatch.setattr(reader, "_readable_masks", fail)
        with scoped_metrics() as metrics:
            log = reader.collect_static(0.8)
            assert metrics.counter_value("reader.rounds_ahead") == 0
        oracle = build_scenario(_QUIET).make_reader()
        oracle.rng = np.random.default_rng(3)
        want = scalar_collect(oracle, 0.8)
        assert len(log) > 0
        assert _columns(log) == _columns(want)
        assert reader.rng.bit_generator.state == oracle.rng.bit_generator.state
