"""End-to-end instrumentation tests: the pipeline, reader, and runner all
report through the global tracer / metrics registry."""

import numpy as np
import pytest

from repro.experiments.base import ExperimentResult, REGISTRY, register, run_experiment
from repro.motion.script import script_for_letter, script_for_motion
from repro.motion.strokes import Motion, StrokeKind
from repro.obs.metrics import Histogram, get_metrics
from repro.obs.trace import get_tracer
from repro.rfid.reader import CollectSpec
from repro.rfid.reports import ReportLog
from repro.sim.scenario import ScenarioConfig, build_scenario

#: The pipeline stage spans of one detect_motion call (paper Eq. 6-12
#: order); grammar is the eighth stage, exercised by recognize_letter.
MOTION_STAGES = (
    "segmentation",
    "suppression",
    "unwrap",
    "imaging",
    "otsu",
    "direction",
    "classify",
)


@pytest.fixture()
def tracer():
    t = get_tracer()
    was_enabled = t.enabled
    t.reset()
    t.enable()
    yield t
    t.reset()
    if not was_enabled:
        t.disable()


@pytest.fixture()
def metrics():
    m = get_metrics()
    was_enabled = m.enabled
    m.reset()
    m.enable()
    yield m
    m.reset()
    if not was_enabled:
        m.disable()


def _names(spans):
    out = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0) + 1
    return out


class TestPipelineSpans:
    def test_detect_motion_emits_each_stage_exactly_once(self, shared_runner, tracer):
        script = script_for_motion(Motion(StrokeKind.VBAR), shared_runner.rng)
        log = shared_runner.run_script(script)
        mark = tracer.mark()
        shared_runner.pad.detect_motion(log)
        counts = _names(tracer.spans_since(mark))
        assert counts["detect_motion"] == 1
        for stage in MOTION_STAGES:
            assert counts.get(stage, 0) == 1, f"stage {stage}: {counts}"

    def test_recognize_letter_emits_grammar_once(self, shared_runner, tracer):
        script = script_for_letter("T", shared_runner.rng)
        log = shared_runner.run_script(script)
        mark = tracer.mark()
        shared_runner.pad.recognize_letter(log)
        counts = _names(tracer.spans_since(mark))
        assert counts["recognize_letter"] == 1
        assert counts["grammar"] == 1
        assert counts["segmentation"] == 1
        # A letter is one or more strokes: the per-window stages repeat.
        assert counts["analyze_window"] >= 1
        assert counts["suppression"] == counts["analyze_window"]

    def test_stage_spans_nest_under_detect_motion(self, shared_runner, tracer):
        script = script_for_motion(Motion(StrokeKind.HBAR), shared_runner.rng)
        log = shared_runner.run_script(script)
        mark = tracer.mark()
        shared_runner.pad.detect_motion(log)
        paths = {s.name: s.path for s in tracer.spans_since(mark)}
        assert paths["unwrap"].endswith("detect_motion/analyze_window/suppression/unwrap")
        assert paths["segmentation"].endswith("detect_motion/segmentation")

    def test_detect_motion_untraced_when_disabled(self, shared_runner):
        tracer = get_tracer()
        assert not tracer.enabled  # suite default
        script = script_for_motion(Motion(StrokeKind.VBAR), shared_runner.rng)
        log = shared_runner.run_script(script)
        mark = tracer.mark()
        obs = shared_runner.pad.detect_motion(log)
        assert obs is not None
        assert tracer.spans_since(mark) == []


class TestReaderMetrics:
    def test_collect_records_read_and_slot_counters(self, shared_runner, metrics):
        shared_runner.reader.collect_static(1.0)
        assert metrics.counter_value("reader.reads") > 0
        assert metrics.counter_value("reader.windows") == 1
        stats = shared_runner.reader.last_inventory_stats
        assert metrics.counter_value("reader.reads") == stats.successes
        assert metrics.counter_value("reader.collision_slots") == stats.collisions
        assert metrics.counter_value("reader.idle_slots") == stats.idles

    def test_collect_records_per_tag_histogram(self, shared_runner, metrics):
        shared_runner.reader.collect_static(1.0)
        summary = metrics.snapshot()["histograms"]["reader.reads_per_tag_window"]
        # A 1 s static capture reads every one of the 25 tags several times.
        assert summary["count"] == 25
        assert summary["min"] >= 1

    def test_collect_traced_with_attrs(self, shared_runner, tracer):
        mark = tracer.mark()
        shared_runner.reader.collect_static(0.5)
        (span,) = [s for s in tracer.spans_since(mark) if s.name == "reader.collect"]
        assert span.attrs["reads"] > 0
        assert span.attrs["duration_s"] == 0.5


@pytest.mark.parametrize("path", ["collect", "emit_lane"])
def test_per_tag_metrics_count_only_the_collects_rows(metrics, path):
    # The caller's log already holds later reads (tag 0 at t = 100 s), so
    # the collect's rows sort in front of them: the log's tail past its
    # old length is not this collect's rows.
    reader = build_scenario(ScenarioConfig(seed=7)).make_reader()
    n_old = 50
    log = ReportLog()
    log.extend_columns(
        np.full(n_old, 100.0), np.zeros(n_old, dtype=np.int64), np.zeros(n_old),
        np.full(n_old, -60.0), np.zeros(n_old), ["EPC0000"] * n_old,
    )
    if path == "collect":
        reader.collect(1.0, log=log)
    else:
        (lane,) = reader.collect_batch([CollectSpec(duration=1.0)])
        reader.emit_lane(lane, log=log)
    ts, tags = log.columns()[:2]
    read, counts = np.unique(tags[ts < 100.0], return_counts=True)
    expected = Histogram()
    for count in counts.tolist():
        expected.observe(float(count))
    got = metrics.state()["histograms"]["reader.reads_per_tag_window"]
    assert got == expected.state()
    assert metrics.counter_value("reader.unread_tags") == len(reader.array.tags) - read.size


class TestRunnerMetrics:
    def test_motion_trial_counters(self, shared_runner, metrics):
        trial = shared_runner.run_motion(Motion(StrokeKind.VBAR))
        assert metrics.counter_value("runner.motion_trials") == 1
        assert metrics.counter_value("runner.motion_detected") == float(trial.detected)

    def test_motion_trial_span_attrs(self, shared_runner, tracer):
        mark = tracer.mark()
        motion = Motion(StrokeKind.HBAR)
        shared_runner.run_motion(motion)
        (span,) = [s for s in tracer.spans_since(mark) if s.name == "trial.motion"]
        assert span.attrs["truth"] == motion.label
        assert "correct" in span.attrs


class TestExperimentNotes:
    def test_runtime_note_attached(self):
        @register("_obs_tmp")
        def runner(fast=True, seed=0):
            return ExperimentResult(experiment_id="_obs_tmp", title="t", rows=[])

        try:
            result = run_experiment("_obs_tmp")
            assert any(note.startswith("runtime ") for note in result.notes)
        finally:
            del REGISTRY["_obs_tmp"]

    def test_metrics_snapshot_note_when_enabled(self, metrics):
        @register("_obs_tmp2")
        def runner(fast=True, seed=0):
            metrics.inc("fake.counter", 3)
            return ExperimentResult(experiment_id="_obs_tmp2", title="t", rows=[])

        try:
            result = run_experiment("_obs_tmp2")
            assert any(note.startswith("metrics: ") and "fake.counter=3" in note
                       for note in result.notes)
        finally:
            del REGISTRY["_obs_tmp2"]


class TestSpanLatency:
    def test_detect_motion_latency_via_spans(self, shared_runner, tracer):
        # Span durations are the supported way to measure pipeline latency
        # (the removed timed_detect_motion shim used to wrap this).
        script = script_for_motion(Motion(StrokeKind.SLASH), shared_runner.rng)
        log = shared_runner.run_script(script)
        obs = shared_runner.pad.detect_motion(log)
        assert obs is not None
        durations = tracer.durations("detect_motion")
        assert len(durations) == 1
        assert 0.0 < durations[0] < 2.0

    def test_disabled_tracer_records_nothing(self, shared_runner):
        tracer = get_tracer()
        assert not tracer.enabled
        script = script_for_motion(Motion(StrokeKind.SLASH), shared_runner.rng)
        log = shared_runner.run_script(script)
        mark = tracer.mark()
        shared_runner.pad.detect_motion(log)
        assert tracer.spans_since(mark) == []
