import numpy as np
import pytest

from repro.rfid.protocol import QAlgorithm, expected_round_efficiency

from .collect_oracles import Gen2Inventory


class TestQAlgorithm:
    def test_collision_raises_q(self):
        q = QAlgorithm(qfp=4.0)
        for _ in range(4):
            q.on_collision()
        assert q.qfp > 4.0

    def test_idle_lowers_q(self):
        q = QAlgorithm(qfp=4.0)
        for _ in range(10):
            q.on_idle()
        assert q.qfp < 4.0

    def test_clamping(self):
        q = QAlgorithm(qfp=0.1)
        for _ in range(20):
            q.on_idle()
        assert q.qfp == 0.0
        q = QAlgorithm(qfp=14.9)
        for _ in range(20):
            q.on_collision()
        assert q.qfp == 15.0


class TestInventoryRound:
    def test_every_tag_reads_at_most_once_per_round(self, rng):
        inv = Gen2Inventory(rng, q_initial=4.0)
        winners = [
            s.winner for s in inv.run_round(list(range(20))) if s.kind == "success"
        ]
        assert len(winners) == len(set(winners))

    def test_empty_population(self, rng):
        inv = Gen2Inventory(rng)
        outcomes = list(inv.run_round([]))
        assert outcomes == []
        assert inv.clock > 0.0  # round overhead still charged

    def test_clock_monotonic(self, rng):
        inv = Gen2Inventory(rng)
        times = [s.time for s in inv.run_round(list(range(10)))]
        assert times == sorted(times)

    def test_slot_accounting(self, rng):
        inv = Gen2Inventory(rng, q_initial=4.0)
        outcomes = list(inv.run_round(list(range(10))))
        assert len(outcomes) == 16  # 2^4 slots
        kinds = {o.kind for o in outcomes}
        assert kinds <= {"success", "collision", "idle"}
        assert inv.stats.slots == 16


class TestContinuousInventory:
    def test_run_until_respects_deadline(self, rng):
        inv = Gen2Inventory(rng)
        list(inv.run_until(1.0, lambda t: list(range(25))))
        assert 1.0 <= inv.clock < 1.3  # finishes the round in flight

    def test_realistic_read_rate(self, rng):
        inv = Gen2Inventory(rng)
        successes = sum(
            1 for s in inv.run_until(5.0, lambda t: list(range(25))) if s.kind == "success"
        )
        rate = successes / inv.stats.elapsed
        # An Impinj-class reader on a 25-tag population reads ~100-400/s.
        assert 80.0 <= rate <= 450.0

    def test_q_adapts_to_population(self, rng):
        inv = Gen2Inventory(rng, q_initial=8.0)
        list(inv.run_until(3.0, lambda t: list(range(4))))
        assert inv.current_q <= 4  # Q drifts down towards log2(population)

    def test_readability_callback_consulted(self, rng):
        inv = Gen2Inventory(rng)
        seen = set()

        def readable(t):
            # tag 5 drops out after t = 0.5 (hand shadowing).
            pop = list(range(10))
            if t > 0.5:
                pop.remove(5)
            return pop

        for s in inv.run_until(2.0, readable):
            if s.kind == "success" and s.time > 0.6:
                seen.add(s.winner)
        assert 5 not in seen

    def test_zero_duration_noop(self, rng):
        inv = Gen2Inventory(rng, start_time=1.0)
        assert list(inv.run_until(0.5, lambda t: [1])) == []


def test_expected_round_efficiency_peaks_near_matching_q():
    # Framed ALOHA: efficiency per slot is maximal when slots ~= tags.
    effs = {q: expected_round_efficiency(16, q) for q in range(1, 9)}
    assert max(effs, key=effs.get) == 4  # 2^4 = 16 slots
    assert effs[4] == pytest.approx(1.0 / np.e, rel=0.15)


def test_expected_round_efficiency_validates():
    with pytest.raises(ValueError):
        expected_round_efficiency(-1, 4)
    assert expected_round_efficiency(0, 4) == 0.0
