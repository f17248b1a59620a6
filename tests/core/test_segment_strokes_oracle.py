"""``segment_strokes`` — one ``StreamSegmenter`` chunk — against the whole-log
batch reference, on simulated logs and on the logs with nothing to segment."""

import numpy as np
import pytest

from repro.core.segmentation import segment_strokes
from repro.motion.script import script_for_letter, script_for_motion
from repro.motion.strokes import all_motions
from repro.rfid.reports import ReportLog
from repro.sim.runner import SessionRunner
from repro.sim.scenario import ScenarioConfig, build_scenario

from .segmentation_oracles import batch_segment_strokes

#: One- to four-stroke letters.
LETTERS = "ACEHKMTZ"


@pytest.fixture(scope="module", params=["nlos", "los"])
def mount_runner(request):
    # The shared runner's deployment on each mount, built fresh so the
    # suite's shared RNG stream is left as it was.
    return SessionRunner(build_scenario(ScenarioConfig(seed=7, mount=request.param)))


def test_one_chunk_equals_batch_reference_on_simulated_logs(mount_runner):
    pad = mount_runner.pad
    config = pad.config.segmentation
    scripts = [script_for_motion(m, mount_runner.rng) for m in all_motions()]
    scripts += [script_for_letter(c, mount_runner.rng) for c in LETTERS]
    segmented = 0
    for script in scripts:
        log = mount_runner.run_script(script)
        got = segment_strokes(log, pad.calibration, config)
        assert got == batch_segment_strokes(log, pad.calibration, config)
        segmented += bool(got)
    assert segmented >= len(scripts) - 2  # the logs really hold strokes


def test_empty_log_segments_to_nothing(shared_runner):
    pad = shared_runner.pad
    config = pad.config.segmentation
    assert segment_strokes(ReportLog(), pad.calibration, config) == []
    assert batch_segment_strokes(ReportLog(), pad.calibration, config) == []


def test_uncalibrated_reads_segment_to_nothing(shared_runner):
    pad = shared_runner.pad
    config = pad.config.segmentation
    ids = sorted(pad.calibration.tags)
    rng = np.random.default_rng(3)
    n = 600
    ts = np.sort(rng.uniform(0.0, 3.0, size=n))
    tags = rng.choice([-1, ids[-1] + 1, ids[-1] + 9], size=n)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n)  # wild: a stroke if counted
    log = ReportLog()
    log.extend_columns(
        ts, tags, phases, np.full(n, -60.0), np.zeros(n),
        [f"EPC{int(t):04d}" for t in tags],
    )
    assert segment_strokes(log, pad.calibration, config) == []
    assert batch_segment_strokes(log, pad.calibration, config) == []
