"""Round-batched inventory engine: RNG-stream and golden-stream identity.

Three contracts pin :class:`RoundBatchInventory` to the scalar reference:

* **MAC stream identity** — fed the same RNG, the round-batched engine
  produces the exact success ``(time, winner)`` sequence, statistics,
  clock, Q state, *and leaves the RNG generator in the same state* as
  the scalar reference ``Gen2Inventory``.  Everything downstream (channel
  draws, noise draws) then consumes an identical stream by construction.
* **Golden report streams** — full reader sessions and the scalar
  reference collect (``collect_oracles.scalar_collect``) emit
  byte-for-byte equal :class:`ReportLog` rows, across seeds, link
  profiles, and hand scripts.
* **Single pose evaluation** — the batched collect path evaluates the
  hand pose exactly once per distinct timestamp (once per checked round
  for readability, once per success slot for the channel), verified by
  call counting.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.motion.script import script_for_letter, script_for_motion
from repro.motion.strokes import Direction, Motion, StrokeKind
from repro.rfid.inventory_vec import RoundBatchInventory
from repro.rfid.protocol import PROFILE_DENSE, PROFILE_FAST, PROFILE_FAST_SHORT
from repro.sim.scenario import ScenarioConfig, build_scenario

from .collect_oracles import Gen2Inventory, scalar_collect


def _scalar_events(inv: Gen2Inventory, end: float, readable):
    out = []
    for slot in inv.run_until(end, readable, successes_only=True):
        if slot.winner is not None:
            out.append((slot.time, slot.winner))
    return out


def _batched_events(inv: RoundBatchInventory, end: float, readable):
    out = []
    while inv.clock < end:
        rr = inv.run_round_batch(readable(inv.clock))
        out.extend(zip(rr.times.tolist(), rr.winners.tolist()))
    return out


class TestMacStreamIdentity:
    @pytest.mark.parametrize("seed", [0, 3, 91])
    def test_success_stream_and_rng_state_match(self, seed):
        readable = list(range(25))
        rng_s = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        scalar = Gen2Inventory(rng_s)
        batched = RoundBatchInventory(rng_b)

        ev_s = _scalar_events(scalar, 0.6, lambda t: readable)
        ev_b = _batched_events(batched, 0.6, lambda t: readable)

        assert len(ev_s) > 0
        assert ev_s == ev_b  # exact floats: same timing fold
        assert scalar.stats == batched.stats
        assert scalar.clock == batched.clock
        assert scalar.current_q == batched.current_q
        assert scalar._qalg.qfp == batched._qalg.qfp
        # The decisive check: not one extra/missing/misordered draw.
        assert rng_s.bit_generator.state == rng_b.bit_generator.state

    def test_varying_population_matches(self):
        # Readability that changes between rounds (tags dropping in/out)
        # exercises the per-round draw-size dependence of the stream.
        def readable(t):
            n = 5 + int(t * 40.0) % 20
            return list(range(n))

        rng_s = np.random.default_rng(17)
        rng_b = np.random.default_rng(17)
        scalar = Gen2Inventory(rng_s)
        batched = RoundBatchInventory(rng_b)
        assert _scalar_events(scalar, 0.5, readable) == _batched_events(
            batched, 0.5, readable
        )
        assert rng_s.bit_generator.state == rng_b.bit_generator.state

    def test_empty_population_rounds_match(self):
        rng_s = np.random.default_rng(2)
        rng_b = np.random.default_rng(2)
        scalar = Gen2Inventory(rng_s)
        batched = RoundBatchInventory(rng_b)
        # No readable tags: rounds still advance the clock and drift Q down.
        assert _scalar_events(scalar, 0.05, lambda t: []) == []
        assert _batched_events(batched, 0.05, lambda t: []) == []
        assert scalar.clock == batched.clock
        assert scalar._qalg.qfp == batched._qalg.qfp

    def test_qfp_clamp_binding_replays_scalar(self):
        # Pin q_max low over a large population: the unclamped qfp path
        # escapes the band, forcing the batched engine onto its scalar
        # clamp replay — which must still match the reference exactly.
        readable = list(range(60))
        rng_s = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        scalar = Gen2Inventory(rng_s, q_initial=4.0)
        batched = RoundBatchInventory(rng_b, q_initial=4.0)
        scalar._qalg.q_max = 4.0
        batched._qalg.q_max = 4.0

        ev_s = _scalar_events(scalar, 0.4, lambda t: readable)
        ev_b = _batched_events(batched, 0.4, lambda t: readable)
        assert ev_s == ev_b
        # The clamp genuinely bound (otherwise this test checks nothing).
        assert scalar._qalg.qfp == scalar._qalg.q_max
        assert batched._qalg.qfp == batched._qalg.q_max
        assert rng_s.bit_generator.state == rng_b.bit_generator.state

    def test_mutated_q_weights_rebuild_lut(self):
        readable = list(range(20))
        rng_s = np.random.default_rng(8)
        rng_b = np.random.default_rng(8)
        scalar = Gen2Inventory(rng_s)
        batched = RoundBatchInventory(rng_b)
        assert _scalar_events(scalar, 0.1, lambda t: readable) == _batched_events(
            batched, 0.1, lambda t: readable
        )
        scalar._qalg.idle_weight = 0.25
        batched._qalg.idle_weight = 0.25
        scalar._qalg.collision_weight = 0.4
        batched._qalg.collision_weight = 0.4
        assert _scalar_events(scalar, 0.2, lambda t: readable) == _batched_events(
            batched, 0.2, lambda t: readable
        )
        assert scalar._qalg.qfp == batched._qalg.qfp


# ---------------------------------------------------------------------------


_PROFILES = {
    "dense": PROFILE_DENSE,
    "fast": PROFILE_FAST,
    "fast_short": PROFILE_FAST_SHORT,
}


def _session_tuples(seed: int, profile_name: str, script_kind: str, scalar: bool):
    """One full session's report rows, as exact-value tuples: the reader's
    collect, or the scalar reference collect when ``scalar``."""
    scenario = build_scenario(
        ScenarioConfig(seed=seed, mount="nlos", location=2,
                       link_profile=_PROFILES[profile_name])
    )
    reader = scenario.make_reader()
    if script_kind == "motion":
        script = script_for_motion(
            Motion(StrokeKind.ARC_C, Direction.FORWARD), scenario.rng
        )
    else:
        script = script_for_letter("T", scenario.rng)
    if scalar:
        log = scalar_collect(reader, script.duration, script.hand_pose_at)
    else:
        log = reader.collect(script.duration, script.hand_pose_at)
    return [
        (r.epc, r.tag_index, r.timestamp, r.phase_rad, r.rss_dbm,
         r.doppler_hz, r.antenna_port)
        for r in log
    ]


class TestGoldenStreams:
    @pytest.mark.parametrize("script_kind", ["motion", "letter"])
    @pytest.mark.parametrize("profile_name", ["dense", "fast", "fast_short"])
    @pytest.mark.parametrize("seed", [7, 23])
    def test_batched_matches_scalar_inventory(self, seed, profile_name, script_kind):
        batched = _session_tuples(seed, profile_name, script_kind, scalar=False)
        scalar = _session_tuples(seed, profile_name, script_kind, scalar=True)
        assert len(batched) > 0
        assert batched == scalar  # byte-for-byte (exact floats + strings)


# ---------------------------------------------------------------------------


class _CountingPoseSource:
    """Wraps a script; records every scalar pose query and the times of
    every batch call."""

    def __init__(self, script):
        self._script = script
        self.scalar_times = []
        self.many_times = []

    def hand_pose_at(self, t):
        self.scalar_times.append(t)
        return self._script.hand_pose_at(t)

    def pose_at_many(self, times):
        self.many_times.append(np.asarray(times).tolist())
        return self._script.pose_at_many(times)


class TestSinglePoseEvaluation:
    def _collect(self, with_many: bool):
        scenario = build_scenario(ScenarioConfig(seed=13, mount="nlos", location=2))
        reader = scenario.make_reader()
        script = script_for_motion(
            Motion(StrokeKind.VBAR, Direction.FORWARD), scenario.rng
        )
        if with_many:
            src = _CountingPoseSource(script)
            log = reader.collect(script.duration, src.hand_pose_at)
            return src, log
        calls = []

        def pose_at(t):
            calls.append(t)
            return script.hand_pose_at(t)

        log = reader.collect(script.duration, pose_at)
        return calls, log

    def test_vectorized_clock_called_once_per_window(self):
        src, log = self._collect(with_many=True)
        assert len(log) > 0
        # The whole window's success poses resolve through one batch call;
        # the readability checks ask the same vectorized clock for blocks
        # of round-start times.  The scalar clock is never called, and no
        # time is asked twice.
        stamps = [r.timestamp for r in log]
        emits = [times for times in src.many_times if stamps[0] in times]
        assert emits == [stamps]
        assert src.scalar_times == []
        queried = [t for times in src.many_times for t in times]
        assert len(queried) == len(set(queried))

    def test_fallback_evaluates_each_timestamp_exactly_once(self):
        calls, log = self._collect(with_many=False)
        assert len(log) > 0
        # No duplicate evaluation anywhere: rounds and success slots all
        # carry distinct timestamps, and each is queried exactly once.
        assert len(calls) == len(set(calls))
        from collections import Counter

        counts = Counter(calls)
        for r in log:
            assert counts[r.timestamp] == 1
