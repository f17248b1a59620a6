"""Tests for the process-pool battery runner (repro.sim.parallel)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.motion.strokes import all_motions
from repro.sim.parallel import resolve_workers, trial_rng, workers_override
from repro.sim.runner import SessionRunner
from repro.sim.scenario import ScenarioConfig, build_scenario


def _motion_sig(trials):
    return [
        (
            t.truth.label,
            None if t.observed is None else t.observed.label,
            t.log_size,
        )
        for t in trials
    ]


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() == 0

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "8")
        assert resolve_workers(2) == 2

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers() == 3

    def test_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError):
            resolve_workers()

    def test_override_context(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        with workers_override(4):
            assert resolve_workers() == 4
            with workers_override(None):  # None leaves the setting alone
                assert resolve_workers() == 4
        assert resolve_workers() == 0


class TestTrialRng:
    def test_deterministic_per_index(self):
        a = trial_rng(11, 3).standard_normal(4)
        b = trial_rng(11, 3).standard_normal(4)
        assert np.array_equal(a, b)

    def test_independent_across_indices(self):
        a = trial_rng(11, 0).standard_normal(4)
        b = trial_rng(11, 1).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_negative_seed_accepted(self):
        # Scenario seeds are arbitrary ints; SeedSequence entropy must not
        # blow up on negatives (folded mod 2**63).
        trial_rng(-7, 0).standard_normal(1)


class TestParallelBattery:
    def test_worker_count_does_not_change_results(self):
        motions = all_motions()[:3]
        r1 = SessionRunner(build_scenario(ScenarioConfig(seed=11)))
        t1 = r1.run_motion_battery(motions, 1, workers=1)
        r4 = SessionRunner(build_scenario(ScenarioConfig(seed=11)))
        t4 = r4.run_motion_battery(motions, 1, workers=4)
        assert len(t1) == len(motions)
        assert _motion_sig(t1) == _motion_sig(t4)

    def test_parallel_battery_is_rerun_stable(self):
        motions = all_motions()[:2]
        runner = SessionRunner(build_scenario(ScenarioConfig(seed=11)))
        a = runner.run_motion_battery(motions, 1, workers=2)
        b = runner.run_motion_battery(motions, 1, workers=2)
        assert _motion_sig(a) == _motion_sig(b)

    def test_letter_battery_parallel(self):
        runner = SessionRunner(build_scenario(ScenarioConfig(seed=11)))
        a = runner.run_letter_battery(["T"], 1, workers=1)
        b = runner.run_letter_battery(["T"], 1, workers=2)
        assert [(t.truth, t.result.letter) for t in a] == [
            (t.truth, t.result.letter) for t in b
        ]

    def test_serial_default_unchanged(self, monkeypatch):
        # workers unset + no env -> the legacy shared-RNG serial loop.
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        motions = all_motions()[:2]
        a = SessionRunner(build_scenario(ScenarioConfig(seed=11)))
        b = SessionRunner(build_scenario(ScenarioConfig(seed=11)))
        assert _motion_sig(a.run_motion_battery(motions, 1)) == _motion_sig(
            b.run_motion_battery(motions, 1)
        )


class TestChunkLayoutInvariance:
    def test_chunk_count_does_not_change_logs(self, monkeypatch):
        # Chunking is pure scheduling: 1 fat chunk vs 3 narrow ones must
        # produce byte-for-byte the same battery.
        motions = all_motions()[:3]
        monkeypatch.setenv("REPRO_PARALLEL_CHUNKS", "1")
        r1 = SessionRunner(build_scenario(ScenarioConfig(seed=11)))
        t1 = r1.run_motion_battery(motions, 1, workers=4, collect_logs=True)
        monkeypatch.setenv("REPRO_PARALLEL_CHUNKS", "3")
        r3 = SessionRunner(build_scenario(ScenarioConfig(seed=11)))
        t3 = r3.run_motion_battery(motions, 1, workers=4, collect_logs=True)
        assert _motion_sig(t1) == _motion_sig(t3)
        for a, b in zip(t1, t3):
            assert a.log is not None and b.log is not None
            for va, vb in zip(a.log.columns(), b.log.columns()):
                if isinstance(va, np.ndarray):
                    assert np.array_equal(va, vb)
                else:
                    assert list(va) == list(vb)

    def test_chunks_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_CHUNKS", "lots")
        runner = SessionRunner(build_scenario(ScenarioConfig(seed=11)))
        with pytest.raises(ValueError):
            runner.run_motion_battery(all_motions()[:1], 1, workers=2)

    def test_timeout_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRIAL_TIMEOUT_S", "forever")
        runner = SessionRunner(build_scenario(ScenarioConfig(seed=11)))
        with pytest.raises(ValueError):
            runner.run_motion_battery(all_motions()[:1], 1, workers=2)


def _assert_logs_equal(a, b) -> None:
    ca, cb = a.columns(), b.columns()
    for va, vb in zip(ca, cb):
        if isinstance(va, np.ndarray):
            assert np.array_equal(va, vb)
            assert va.dtype == vb.dtype
        else:
            assert list(va) == list(vb)


class TestBatteryLogTransport:
    def test_parallel_collect_logs_equal_workers1(self):
        from repro.motion.strokes import all_motions
        from repro.sim.runner import SessionRunner
        from repro.sim.scenario import ScenarioConfig, build_scenario

        motions = all_motions()[:2]
        r1 = SessionRunner(build_scenario(ScenarioConfig(seed=29)))
        t1 = r1.run_motion_battery(motions, 1, workers=1, collect_logs=True)
        r2 = SessionRunner(build_scenario(ScenarioConfig(seed=29)))
        t2 = r2.run_motion_battery(motions, 1, workers=2, collect_logs=True)
        assert all(t.log is not None and len(t.log) > 0 for t in t1)
        for a, b in zip(t1, t2):
            _assert_logs_equal(a.log, b.log)
