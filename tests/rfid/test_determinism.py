"""Determinism regression tests for the reader's collection path.

Two bit-identity contracts guard it:

* **Seed determinism** — the same scenario seed produces a byte-for-byte
  identical :class:`ReportLog` on every run (the simulator consumes one
  deterministic RNG stream; no hidden ordering or wall-clock state).
* **Engine transparency** — the reader and the scalar reference collect
  (:func:`~tests.rfid.collect_oracles.scalar_collect`: slot-by-slot MAC,
  per-tag ``ChannelModel`` readability, one ``ChannelModel`` per read)
  yield *bit-identical* logs: all random draws happen in the same order
  and every reported value is the same float.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
import pytest

from repro.motion.script import script_for_letter
from repro.physics.geometry import Vec3
from repro.physics.hand import HandPose
from repro.rfid.reports import ReportLog
from repro.sim.scenario import ScenarioConfig, build_scenario

from .collect_oracles import scalar_collect


def _writing_pose(t: float) -> HandPose:
    return HandPose(
        position=Vec3(0.06 * math.cos(3.0 * t), 0.05 * math.sin(2.0 * t), 0.04)
    )


def _collect_log(seed: int, mount: str, use_engine: bool) -> ReportLog:
    scenario = build_scenario(ScenarioConfig(seed=seed, mount=mount, location=2))
    reader = scenario.make_reader()
    if use_engine:
        return reader.collect(1.2, _writing_pose)
    return scalar_collect(reader, 1.2, _writing_pose)


def _as_tuples(log: ReportLog):
    return [
        (r.epc, r.tag_index, r.timestamp, r.phase_rad, r.rss_dbm, r.doppler_hz)
        for r in log
    ]


class TestSeedDeterminism:
    def test_same_seed_same_log(self):
        a = _as_tuples(_collect_log(11, "nlos", use_engine=True))
        b = _as_tuples(_collect_log(11, "nlos", use_engine=True))
        assert len(a) > 0
        assert a == b

    def test_different_seed_different_log(self):
        a = _as_tuples(_collect_log(11, "nlos", use_engine=True))
        b = _as_tuples(_collect_log(12, "nlos", use_engine=True))
        assert a != b


class TestEngineTransparency:
    def test_engine_vs_scalar_bit_identical_nlos(self):
        engine = _as_tuples(_collect_log(11, "nlos", use_engine=True))
        scalar = _as_tuples(_collect_log(11, "nlos", use_engine=False))
        assert len(engine) > 0
        assert engine == scalar

    def test_engine_vs_scalar_bit_identical_los(self):
        # LOS mount adds the per-pose occlusion term to readability — the
        # one dynamic input of the batched power evaluation.
        engine = _as_tuples(_collect_log(11, "los", use_engine=True))
        scalar = _as_tuples(_collect_log(11, "los", use_engine=False))
        assert len(engine) > 0
        assert engine == scalar

    def test_static_collection_bit_identical(self):
        sc_e = build_scenario(ScenarioConfig(seed=5, mount="nlos", location=3))
        sc_s = build_scenario(ScenarioConfig(seed=5, mount="nlos", location=3))
        log_e = sc_e.make_reader().collect_static(1.0)
        log_s = scalar_collect(sc_s.make_reader(), 1.0)
        assert _as_tuples(log_e) == _as_tuples(log_s)


def _letter_log(seed: int, location: int, letter: str, use_engine: bool) -> ReportLog:
    """One LOS letter session driven by a real WritingScript: the reader
    resolves its poses through ``pose_at_many``, the scalar reference
    calls ``hand_pose_at`` per slot."""
    scenario = build_scenario(ScenarioConfig(seed=seed, mount="los", location=location))
    reader = scenario.make_reader()
    script = script_for_letter(letter, np.random.default_rng(1000 + seed))
    if use_engine:
        return reader.collect(script.duration, script.hand_pose_at)
    return scalar_collect(reader, script.duration, script.hand_pose_at)


#: Two arm geometries (the default, and a lower, sideways forearm).
_TILTED_ARM = dict(arm_direction=Vec3(0.35, -0.7, 0.6), arm_length=0.22)


def _switching_pose(t: float) -> Optional[HandPose]:
    """Absent, then the default arm template, then another one: a plain
    callable (no ``pose_at_many``) whose window holds two templates."""
    if t < 0.2:
        return None
    position = _writing_pose(t).position
    if t < 0.7:
        return HandPose(position=position)
    return HandPose(position=position, **_TILTED_ARM)


class TestLosEngineTransparency:
    @pytest.mark.parametrize("location", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_letter_script_engine_vs_scalar(self, seed, location):
        letter = "TLHE"[location - 1]
        engine = _as_tuples(_letter_log(seed, location, letter, use_engine=True))
        scalar = _as_tuples(_letter_log(seed, location, letter, use_engine=False))
        assert len(engine) > 0
        assert engine == scalar

    def test_template_switch_mid_window_engine_vs_scalar(self):
        logs = []
        for use_engine in (True, False):
            scenario = build_scenario(ScenarioConfig(seed=13, mount="los", location=3))
            reader = scenario.make_reader()
            log = (
                reader.collect(1.2, _switching_pose)
                if use_engine
                else scalar_collect(reader, 1.2, _switching_pose)
            )
            logs.append(_as_tuples(log))
        engine, scalar = logs
        times = [row[2] for row in engine]
        # Reads land in all three phases of the window.
        assert min(times) < 0.2 and any(0.2 <= t < 0.7 for t in times) and max(times) >= 0.7
        assert engine == scalar
