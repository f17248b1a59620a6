"""Worker fault containment: crash/hang recovery must be invisible.

``REPRO_PARALLEL_FAULT`` injects a worker crash or hang into the chunk
holding a target trial; the parent must evict the pool, retry each lost
chunk alone, re-execute the faulty chunk serially with the *same*
per-trial seeds, and deliver a battery bit-identical to an undisturbed
run (plus a ``parallel.trials_recovered`` counter that counts the faulty
chunk's trials only, on any core count).

Faults are read from the environment inside the worker, and workers fork
lazily on first submit — so each test uses its own scenario seed (its
own pool key) and tears every pool down afterwards.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.motion.strokes import all_motions
from repro.obs.metrics import MetricsRegistry, scoped_metrics
from repro.sim.parallel import shutdown_pools
from repro.sim.runner import SessionRunner
from repro.sim.scenario import ScenarioConfig, build_scenario


@pytest.fixture(autouse=True)
def _fresh_pools():
    shutdown_pools()
    yield
    shutdown_pools()


def _sig(trials):
    return [
        (
            t.truth.label,
            None if t.observed is None else t.observed.label,
            t.log_size,
        )
        for t in trials
    ]


def _battery(seed: int, monkeypatch, fault: str | None, timeout_s: str | None):
    motions = all_motions()[:2]
    if fault is None:
        monkeypatch.delenv("REPRO_PARALLEL_FAULT", raising=False)
    else:
        monkeypatch.setenv("REPRO_PARALLEL_FAULT", fault)
    if timeout_s is None:
        monkeypatch.delenv("REPRO_TRIAL_TIMEOUT_S", raising=False)
    else:
        monkeypatch.setenv("REPRO_TRIAL_TIMEOUT_S", timeout_s)
    monkeypatch.setenv("REPRO_PARALLEL_CHUNKS", "2")
    with scoped_metrics(MetricsRegistry(enabled=True)) as metrics:
        runner = SessionRunner(build_scenario(ScenarioConfig(seed=seed)))
        trials = runner.run_motion_battery(motions, 1, workers=2)
        counters = dict(metrics.state()["counters"])
    shutdown_pools()
    return trials, counters


class TestCrashRecovery:
    def test_crashed_chunk_is_reexecuted_bit_identically(self, monkeypatch):
        faulted, counters = _battery(
            31, monkeypatch, fault="crash:1", timeout_s=None
        )
        clean, clean_counters = _battery(31, monkeypatch, fault=None, timeout_s=None)
        assert _sig(faulted) == _sig(clean)
        assert counters["parallel.trials_recovered"] == 1.0
        assert "parallel.trials_recovered" not in clean_counters
        # Trial totals stay exact despite the re-execution.
        assert counters["runner.motion_trials"] == 2.0
        assert clean_counters["runner.motion_trials"] == 2.0


class TestHangRecovery:
    def test_hung_chunk_times_out_and_is_reexecuted(self, monkeypatch):
        # Chunk 0 ([trial 0]) sleeps far past the 1 s/trial budget.  The
        # eviction may also cancel or kill chunk 1; that chunk succeeds
        # when retried alone, so only chunk 0 recovers serially.
        faulted, counters = _battery(
            37, monkeypatch, fault="hang:0:30", timeout_s="1.0"
        )
        clean, _ = _battery(37, monkeypatch, fault=None, timeout_s=None)
        assert _sig(faulted) == _sig(clean)
        assert counters["parallel.trials_recovered"] == 1.0
        assert counters["runner.motion_trials"] == 2.0


class TestRecoveredLogs:
    def test_collect_logs_survive_recovery(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_FAULT", "crash:0")
        monkeypatch.setenv("REPRO_PARALLEL_CHUNKS", "1")
        motions = all_motions()[:2]
        runner = SessionRunner(build_scenario(ScenarioConfig(seed=41)))
        faulted = runner.run_motion_battery(
            motions, 1, workers=2, collect_logs=True
        )
        shutdown_pools()
        monkeypatch.delenv("REPRO_PARALLEL_FAULT")
        runner2 = SessionRunner(build_scenario(ScenarioConfig(seed=41)))
        clean = runner2.run_motion_battery(
            motions, 1, workers=2, collect_logs=True
        )
        assert _sig(faulted) == _sig(clean)
        for a, b in zip(faulted, clean):
            assert a.log is not None and b.log is not None
            for va, vb in zip(a.log.columns(), b.log.columns()):
                if isinstance(va, np.ndarray):
                    assert np.array_equal(va, vb)


class TestFallbackKeepsParentStream:
    def test_next_serial_trial_ignores_a_recovery(self, monkeypatch):
        # The serial fallback reseeds the parent runner for each trial it
        # recovers.  Afterwards the runner must be back on its own stream,
        # with its own Doppler history, so its next trial is the one an
        # undisturbed battery leaves it to run.
        monkeypatch.setenv("REPRO_PARALLEL_CHUNKS", "1")
        motions = all_motions()
        after = []
        for fault in ("crash:0", None):
            if fault is None:
                monkeypatch.delenv("REPRO_PARALLEL_FAULT")
            else:
                monkeypatch.setenv("REPRO_PARALLEL_FAULT", fault)
            runner = SessionRunner(build_scenario(ScenarioConfig(seed=43)))
            runner.run_motion_battery(motions[:2], 1, workers=1)
            shutdown_pools()
            after.append(runner.run_motion(motions[3], keep_log=True))
        faulted, clean = after
        assert _sig([faulted]) == _sig([clean])
        for va, vb in zip(faulted.log.columns(), clean.log.columns()):
            if isinstance(va, np.ndarray):
                assert np.array_equal(va, vb)
            else:
                assert list(va) == list(vb)
