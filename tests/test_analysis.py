import pytest

from repro import analysis
from repro.motion.script import script_for_motion
from repro.motion.strokes import Motion, StrokeKind
from repro.rfid.reports import ReportLog


class TestSparkline:
    def test_monotone_series(self):
        assert analysis.sparkline([0, 1, 2, 3]) == "▁▃▆█"

    def test_constant_series(self):
        out = analysis.sparkline([5.0] * 4)
        assert out == "▁▁▁▁"

    def test_empty(self):
        assert analysis.sparkline([]) == ""

    def test_width_downsampling(self):
        out = analysis.sparkline(list(range(100)), width=10)
        assert len(out) == 10
        # Still monotone after downsampling.
        assert out == "".join(sorted(out))


class TestSessionViews:
    @pytest.fixture()
    def session(self, shared_runner):
        script = script_for_motion(Motion(StrokeKind.HBAR), shared_runner.rng)
        return shared_runner.run_script(script)

    def test_summary_has_rates(self, shared_runner, session):
        text = analysis.session_summary(session, shared_runner.pad.calibration)
        assert "reads/s" in text
        assert "rms" in text

    def test_summary_empty_log(self):
        assert analysis.session_summary(ReportLog()) == "empty session"

    def test_phase_sparklines_one_per_tag(self, shared_runner, session):
        lines = analysis.phase_sparklines(session, shared_runner.pad.calibration)
        assert len(lines) == len(session.tag_indices())
        assert all(line.startswith("tag") for line in lines)

    def test_rss_sparklines_subset(self, shared_runner, session):
        lines = analysis.rss_sparklines(
            session, shared_runner.pad.calibration, tag_indices=[0, 12]
        )
        assert len(lines) == 2

    def test_activity_trace_two_rows(self, shared_runner, session):
        trace = analysis.activity_trace(session, shared_runner.pad.calibration)
        assert trace.count("\n") == 1

    def test_activity_trace_empty(self, shared_runner):
        assert "empty" in analysis.activity_trace(
            ReportLog(), shared_runner.pad.calibration
        )

    def test_read_rate_table(self, session):
        rows = analysis.read_rate_table(session)
        assert all(rate > 0 for _, _, rate in rows)
        assert sum(n for _, n, _ in rows) == len(session)
