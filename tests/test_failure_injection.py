"""Failure injection: the pipeline must degrade gracefully, not crash.

Real deployments lose tags (detuned by a metal object, torn off, IC
death), see partial streams, and get clock-skewed reports.  Each test
breaks one assumption and checks the system stays sane.
"""

import numpy as np
import pytest

from repro.core.pipeline import RFIPad
from repro.motion.script import script_for_motion
from repro.motion.strokes import Motion, StrokeKind
from repro.rfid.reports import ReportLog, TagReadReport
from repro.sim.metrics import score_motion_trials
from repro.sim.runner import SessionRunner
from repro.sim.scenario import ScenarioConfig, build_scenario


@pytest.fixture(scope="module")
def injected():
    """A runner whose array has two dead tags (IC never powers up)."""
    runner = SessionRunner(build_scenario(ScenarioConfig(seed=13)))
    # Kill two tags *after* construction, then recalibrate as a deployment
    # would: the dead tags simply vanish from the report stream.
    for idx in (7, 18):
        runner.reader.array.tags[idx].ic_sensitivity_dbm = 50.0
    static = runner.reader.collect_static(3.0)
    runner.pad = RFIPad(runner.scenario.layout)
    runner.pad.calibrate_from(static)
    runner.static_log = static
    return runner


class TestDeadTags:
    def test_dead_tags_absent_from_stream(self, injected):
        log = injected.reader.collect_static(1.0)
        assert 7 not in log.tag_indices()
        assert 18 not in log.tag_indices()

    def test_calibration_covers_survivors(self, injected):
        assert len(injected.pad.calibration.tags) == 23

    def test_recognition_still_works(self, injected):
        trials = [
            injected.run_motion(m)
            for m in (Motion(StrokeKind.HBAR), Motion(StrokeKind.VBAR))
            for _ in range(3)
        ]
        counts = score_motion_trials(trials)
        assert counts.accuracy >= 0.5  # degraded is fine; dead is not


class TestCorruptStreams:
    def test_truncated_log(self, shared_runner):
        script = script_for_motion(Motion(StrokeKind.VBAR), shared_runner.rng)
        log = shared_runner.run_script(script)
        t0, _ = script.stroke_intervals()[0]
        # Keep only the first half of the stroke.
        truncated = log.slice_time(0.0, t0 + 0.4)
        result = shared_runner.pad.detect_motion(truncated)  # must not raise
        assert result is None or result.kind is not None

    def test_single_tag_log(self, shared_runner):
        full = shared_runner.reader.collect_static(1.0)
        only_one = ReportLog([r for r in full if r.tag_index == 0])
        assert shared_runner.pad.segment(only_one) == []

    def test_duplicate_timestamps(self, shared_runner):
        log = ReportLog()
        for i in range(40):
            log.append(
                TagReadReport(
                    epc="E-0", tag_index=0, timestamp=1.0,  # all identical
                    phase_rad=1.0, rss_dbm=-40.0,
                )
            )
        # Degenerate time axis: segmentation must not crash or loop.
        assert shared_runner.pad.segment(log) == []

    def test_out_of_order_reports(self, shared_runner):
        script = script_for_motion(Motion(StrokeKind.HBAR), shared_runner.rng)
        ordered = shared_runner.run_script(script)
        shuffled = list(ordered)
        np.random.default_rng(0).shuffle(shuffled)
        log = ReportLog(shuffled)  # ReportLog re-sorts lazily
        obs = shared_runner.pad.detect_motion(log)
        assert obs is not None

    def test_stray_uncalibrated_tag(self, shared_runner):
        script = script_for_motion(Motion(StrokeKind.VBAR), shared_runner.rng)
        log = shared_runner.run_script(script)
        # A passer-by's badge tag shows up mid-session.
        log.append(
            TagReadReport(
                epc="STRAY", tag_index=-1, timestamp=1.0,
                phase_rad=0.5, rss_dbm=-55.0,
            )
        )
        obs = shared_runner.pad.detect_motion(log)
        assert obs is not None
        assert obs.kind is StrokeKind.VBAR
