import numpy as np
import pytest

from repro.rfid.protocol import (
    LinkProfile,
    PROFILE_DENSE,
    PROFILE_FAST,
    PROFILE_FAST_SHORT,
    PROFILE_ROBUST,
)

from .collect_oracles import Gen2Inventory


def test_profile_validation():
    with pytest.raises(ValueError):
        LinkProfile(tari_s=0.0)
    with pytest.raises(ValueError):
        LinkProfile(miller=3)
    with pytest.raises(ValueError):
        LinkProfile(epc_bits=8)


def test_slot_duration_ordering():
    for p in (PROFILE_DENSE, PROFILE_FAST, PROFILE_ROBUST):
        assert p.idle_slot_s < p.collision_slot_s < p.success_slot_s


def test_faster_link_shorter_slots():
    assert PROFILE_FAST.success_slot_s < PROFILE_DENSE.success_slot_s
    assert PROFILE_ROBUST.success_slot_s > PROFILE_DENSE.success_slot_s


def test_short_epc_shortens_success_slot_only():
    assert PROFILE_FAST_SHORT.success_slot_s < PROFILE_FAST.success_slot_s
    assert PROFILE_FAST_SHORT.idle_slot_s == PROFILE_FAST.idle_slot_s


def test_dense_profile_realistic_timing():
    # An Impinj-style dense-reader profile singulates a tag in ~2-4 ms.
    assert 1.5e-3 < PROFILE_DENSE.success_slot_s < 5e-3


@pytest.mark.parametrize(
    "profile", [PROFILE_DENSE, PROFILE_FAST, PROFILE_FAST_SHORT, PROFILE_ROBUST]
)
def test_read_rate_scales_with_profile(profile):
    inv = Gen2Inventory(np.random.default_rng(0), profile=profile)
    n = sum(1 for s in inv.run_until(2.0, lambda t: list(range(25))) if s.kind == "success")
    rate = n / inv.stats.elapsed
    assert rate > 0
    # Sanity bands: robust ~100/s, dense ~200/s, fast >500/s.
    if profile is PROFILE_ROBUST:
        assert rate < 200
    if profile is PROFILE_FAST_SHORT:
        assert rate > 400


def test_inventory_defaults_to_dense():
    inv = Gen2Inventory(np.random.default_rng(0))
    assert inv.profile is PROFILE_DENSE
