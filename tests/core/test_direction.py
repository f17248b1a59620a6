import numpy as np
import pytest

from repro.core.calibration import calibrate
from repro.core.direction import (
    DirectionConfig,
    Trough,
    detect_troughs,
    estimate_direction,
    passage_order,
    trough_path,
)
from repro.motion.strokes import ArcOpening, Direction, StrokeKind
from repro.physics.geometry import GridLayout
from repro.rfid.reports import ReportLog, TagReadReport

LAYOUT = GridLayout()


def _log_with_dips(dip_times_by_tag, duration=2.0, baseline=-40.0, depth=8.0):
    """Static RSS with a gaussian dip at the given time per tag."""
    log = ReportLog()
    for tag, dip_t in dip_times_by_tag.items():
        for i in range(int(duration / 0.06)):
            t = i * 0.06 + tag * 1e-4
            rss = baseline - depth * np.exp(-0.5 * ((t - dip_t) / 0.12) ** 2)
            log.append(
                TagReadReport(
                    epc=f"E-{tag}", tag_index=tag, timestamp=t,
                    phase_rad=1.0, rss_dbm=float(rss),
                )
            )
    return log


def _calibration(tags):
    log = ReportLog()
    for tag in tags:
        for i in range(30):
            log.append(
                TagReadReport(
                    epc=f"E-{tag}", tag_index=tag, timestamp=i * 0.05,
                    phase_rad=1.0, rss_dbm=-40.0,
                )
            )
    return calibrate(log)


class TestDetectTroughs:
    def test_orders_by_time(self):
        tags = [LAYOUT.index_of(2, c) for c in range(5)]
        cal = _calibration(tags)
        log = _log_with_dips({t: 0.3 + 0.3 * i for i, t in enumerate(tags)})
        troughs = detect_troughs(log, cal)
        assert passage_order(troughs) == tuple(tags)

    def test_trough_time_accuracy(self):
        tag = LAYOUT.index_of(2, 2)
        cal = _calibration([tag])
        log = _log_with_dips({tag: 1.0})
        troughs = detect_troughs(log, cal)
        assert len(troughs) == 1
        assert troughs[0].time == pytest.approx(1.0, abs=0.15)
        assert troughs[0].depth_db > 5.0

    def test_shallow_dips_rejected(self):
        tag = 0
        cal = _calibration([tag])
        log = _log_with_dips({tag: 1.0}, depth=1.0)
        assert detect_troughs(log, cal) == []

    def test_restrict_to(self):
        tags = [0, 1]
        cal = _calibration(tags)
        log = _log_with_dips({0: 0.5, 1: 1.0})
        troughs = detect_troughs(log, cal, restrict_to=[1])
        assert [t.tag_index for t in troughs] == [1]


class TestEstimateDirection:
    def _troughs(self, cells_times):
        return [
            Trough(LAYOUT.index_of(r, c), t, 8.0) for (r, c), t in cells_times
        ]

    def test_hbar_forward(self):
        troughs = self._troughs([((2, c), 0.2 * c) for c in range(5)])
        d, conf = estimate_direction(StrokeKind.HBAR, troughs, LAYOUT)
        assert d is Direction.FORWARD
        assert conf > 0.9

    def test_hbar_reverse(self):
        troughs = self._troughs([((2, 4 - c), 0.2 * c) for c in range(5)])
        d, _ = estimate_direction(StrokeKind.HBAR, troughs, LAYOUT)
        assert d is Direction.REVERSE

    def test_vbar_forward_is_downward(self):
        troughs = self._troughs([((r, 2), 0.2 * r) for r in range(5)])
        d, _ = estimate_direction(StrokeKind.VBAR, troughs, LAYOUT)
        assert d is Direction.FORWARD

    def test_click_has_no_direction(self):
        d, conf = estimate_direction(StrokeKind.CLICK, [], LAYOUT)
        assert d is Direction.FORWARD
        assert conf == 0.0

    def test_too_few_troughs(self):
        troughs = self._troughs([((2, 0), 0.0)])
        _, conf = estimate_direction(StrokeKind.HBAR, troughs, LAYOUT)
        assert conf == 0.0

    def test_arc_c_forward_matches_skeleton(self):
        # ⊂ drawn FORWARD: upper tip -> left side -> lower tip.
        cells = [((0, 2), 0.0), ((1, 0), 0.3), ((2, 0), 0.5), ((3, 0), 0.7), ((4, 2), 1.0)]
        d, _ = estimate_direction(
            StrokeKind.ARC_C, self._troughs(cells), LAYOUT, ArcOpening.RIGHT
        )
        assert d is Direction.FORWARD

    def test_arc_d_forward_matches_skeleton(self):
        # ⊃ FORWARD starts at its *lower* tip per the skeleton generator.
        cells = [((4, 2), 0.0), ((3, 4), 0.3), ((2, 4), 0.5), ((1, 4), 0.7), ((0, 2), 1.0)]
        d, _ = estimate_direction(
            StrokeKind.ARC_D, self._troughs(cells), LAYOUT, ArcOpening.LEFT
        )
        assert d is Direction.FORWARD


class TestTroughPath:
    def test_line_path_straight(self):
        troughs = [Trough(LAYOUT.index_of(2, c), 0.2 * c, 8.0) for c in range(5)]
        path = trough_path(troughs, LAYOUT)
        assert path.straightness == pytest.approx(1.0)
        assert path.chord == (4.0, 0.0)

    def test_arc_path_curved(self):
        cells = [(0, 2), (1, 0), (2, 0), (3, 0), (4, 2)]
        troughs = [Trough(LAYOUT.index_of(r, c), 0.3 * i, 8.0) for i, (r, c) in enumerate(cells)]
        path = trough_path(troughs, LAYOUT)
        assert path.straightness < 0.8
        # ⊂ opens right.
        assert path.opening[0] > 0.3

    def test_too_few_points(self):
        assert trough_path([], LAYOUT) is None
        assert trough_path([Trough(0, 0.0, 8.0)], LAYOUT) is None

    def test_two_point_path(self):
        troughs = [Trough(LAYOUT.index_of(2, 0), 0.0, 8.0), Trough(LAYOUT.index_of(2, 3), 0.6, 8.0)]
        path = trough_path(troughs, LAYOUT)
        assert path.n == 2
        assert path.chord == (3.0, 0.0)
        assert path.time_spread == pytest.approx(0.6)

    def test_weak_troughs_excluded_from_geometry(self):
        strong = [Trough(LAYOUT.index_of(2, c), 0.2 * c, 10.0) for c in range(4)]
        weak = [Trough(LAYOUT.index_of(0, 0), 0.35, 2.9)]
        path = trough_path(strong + weak, LAYOUT, DirectionConfig())
        assert path.n == 4  # the weak outlier didn't zigzag the path
        # ...but it still counts towards the overall spatial footprint.
        assert path.spatial_extent >= 3.0
