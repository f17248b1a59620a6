"""Property tests for the Gen2 inventory MAC."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rfid.protocol import QAlgorithm

from ..rfid.collect_oracles import Gen2Inventory


@given(
    st.integers(min_value=0, max_value=60),
    st.floats(min_value=0.0, max_value=15.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40)
def test_round_invariants(population, q_initial, seed):
    rng = np.random.default_rng(seed)
    inv = Gen2Inventory(rng, q_initial=q_initial)
    outcomes = list(inv.run_round(list(range(population))))

    # Slot count is exactly 2^Q for a non-empty population.
    if population:
        assert len(outcomes) == 2 ** int(round(min(15.0, max(0.0, q_initial))))

    # Each tag wins at most one slot; winners come from the population.
    winners = [o.winner for o in outcomes if o.kind == "success"]
    assert len(winners) == len(set(winners))
    assert all(0 <= w < population for w in winners)

    # Success+collision+idle partition the slots; time is monotone.
    times = [o.time for o in outcomes]
    assert times == sorted(times)
    assert inv.stats.slots == len(outcomes)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20)
def test_inventory_conserves_time(seed):
    rng = np.random.default_rng(seed)
    inv = Gen2Inventory(rng)
    outcomes = list(inv.run_until(1.0, lambda t: list(range(12))))
    total = sum(o.duration for o in outcomes)
    # Elapsed = slot durations + per-round overheads; must cover the span.
    assert inv.stats.elapsed >= total
    assert inv.clock >= 1.0


@given(
    st.floats(min_value=0.0, max_value=15.0),
    st.lists(st.sampled_from(["idle", "collision"]), max_size=60),
)
def test_q_always_clamped(q0, events):
    q = QAlgorithm(qfp=q0)
    for e in events:
        if e == "idle":
            q.on_idle()
        else:
            q.on_collision()
        assert 0.0 <= q.qfp <= 15.0
        assert 0 <= q.q <= 15
