"""EPC Class-1 Generation-2 inventory MAC: framed slotted ALOHA with the
Q-algorithm.

RFIPad inherits its sampling process from the Gen2 air protocol: the reader
can only observe a tag when that tag wins a singulation slot, so per-tag
read timestamps are irregular and the aggregate read rate is bounded by
slot timing.  This is the mechanism behind the paper's *undersampling*
discussion (fast hand motions lose accuracy, section V-B.7 / VI): the MAC,
not the hand, sets the temporal resolution.

The implementation follows the standard's inventory round structure:

* the reader issues ``Query(Q)``; every participating tag draws a slot
  counter uniformly from ``[0, 2^Q - 1]``;
* slots advance with ``QueryRep``; a tag at zero backscatters an RN16;
* a clean RN16 is ACKed and the tag replies EPC (a *successful* slot);
* two or more tags at zero collide (collision slot); no tag is an idle slot;
* the reader adapts Q between rounds with the floating-point Q-algorithm
  (Impinj-style, C = 0.35 down / 0.65 up... we use the common symmetric
  variant with separate collision/idle weights).

Timing constants follow Gen2 Miller-4 at 250 kbps backscatter link
frequency — the profile commodity readers pick in dense-reader mode — and
give an aggregate throughput of roughly 200-350 reads/s, matching what an
Impinj R420 delivers on a 25-tag population.

This module holds the protocol's parameters and bookkeeping: link
profiles and their slot timings, the Q-algorithm and the inventory
statistics.  The rounds themselves run in
:class:`~repro.rfid.inventory_vec.RoundBatchInventory`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LinkProfile:
    """A Gen2 air-interface profile: modulation and rate parameters.

    Slot durations are derived from the standard's timing structure:
    reader commands go out at ~1/(1.5 * Tari) symbols/s, tag replies at
    BLF / M bits/s (M the Miller subcarrier factor), with the T1/T2/T3
    turnaround gaps scaled off the backscatter link period.

    The paper's throughput discussion (section VI) proposes shrinking the
    per-tag packet / speeding the link to fight undersampling at fast hand
    speeds — that is exactly a profile change, so the profile is a first-
    class knob here (see the `ext_speed` experiment).
    """

    name: str = "dense-reader-M4"
    tari_s: float = 12.5e-6
    blf_hz: float = 250e3
    miller: int = 4
    epc_bits: int = 128          # PC + EPC-96 + CRC

    def __post_init__(self) -> None:
        if self.tari_s <= 0 or self.blf_hz <= 0:
            raise ValueError("tari and BLF must be positive")
        if self.miller not in (1, 2, 4, 8):
            raise ValueError("miller factor must be 1, 2, 4, or 8")
        if self.epc_bits < 16:
            raise ValueError("EPC reply cannot be shorter than 16 bits")

    @property
    def reader_bit_s(self) -> float:
        """Average reader-to-tag bit duration (PIE, ~1.5 Tari/bit)."""
        return 1.5 * self.tari_s

    @property
    def tag_bit_s(self) -> float:
        """Tag-to-reader bit duration."""
        return self.miller / self.blf_hz

    @property
    def t1_s(self) -> float:
        """Reader-to-tag turnaround (max(RTcal, 10/BLF) ~ 10 link periods)."""
        return 10.0 / self.blf_hz

    @property
    def success_slot_s(self) -> float:
        """QueryRep + RN16 + ACK + EPC reply, with turnarounds."""
        query_rep = 4 * self.reader_bit_s
        rn16 = (6 + 16) * self.tag_bit_s          # preamble + RN16
        ack = 18 * self.reader_bit_s
        epc = (6 + self.epc_bits) * self.tag_bit_s
        return query_rep + self.t1_s + rn16 + self.t1_s + ack + self.t1_s + epc + self.t1_s

    @property
    def collision_slot_s(self) -> float:
        """QueryRep + garbled RN16 + timeout."""
        return 4 * self.reader_bit_s + self.t1_s + (6 + 16) * self.tag_bit_s + self.t1_s

    @property
    def idle_slot_s(self) -> float:
        """QueryRep + the T3 no-reply timeout."""
        return 4 * self.reader_bit_s + 2.0 * self.t1_s

    @property
    def round_overhead_s(self) -> float:
        """Full Query (22 bits) + Select at round start."""
        return (22 + 45) * self.reader_bit_s + 2.0 * self.t1_s


#: The commodity default: dense-reader mode, Miller-4 at BLF 250 kHz.
PROFILE_DENSE = LinkProfile()

#: High-throughput profile (Miller-2, BLF 640 kHz, Tari 6.25 us) — the
#: kind of link a deployment would pick to fight undersampling.
PROFILE_FAST = LinkProfile(name="fast-M2", tari_s=6.25e-6, blf_hz=640e3, miller=2)

#: Interference-robust profile (Miller-8, BLF 160 kHz) — slowest.
PROFILE_ROBUST = LinkProfile(name="robust-M8", tari_s=25e-6, blf_hz=160e3, miller=8)

#: Short-EPC variant of the fast profile: the paper's "reducing the tag
#: packet length" suggestion (TID-less 16-bit handle replies).
PROFILE_FAST_SHORT = LinkProfile(
    name="fast-M2-short", tari_s=6.25e-6, blf_hz=640e3, miller=2, epc_bits=48
)

# Back-compatible module-level constants (the dense profile's timings).
SUCCESS_SLOT_S = PROFILE_DENSE.success_slot_s
COLLISION_SLOT_S = PROFILE_DENSE.collision_slot_s
IDLE_SLOT_S = PROFILE_DENSE.idle_slot_s
ROUND_OVERHEAD_S = PROFILE_DENSE.round_overhead_s


@dataclass
class QAlgorithm:
    """Floating-point Q adaptation (Gen2 Annex D style).

    ``qfp`` drifts up on collisions and down on idles; the integer Q used
    for the next round is ``round(qfp)`` clamped to [0, 15].
    """

    qfp: float = 4.0
    collision_weight: float = 0.5
    idle_weight: float = 0.15
    q_min: float = 0.0
    q_max: float = 15.0

    def on_collision(self) -> None:
        self.qfp = min(self.q_max, self.qfp + self.collision_weight)

    def on_idle(self) -> None:
        self.qfp = max(self.q_min, self.qfp - self.idle_weight)

    @property
    def q(self) -> int:
        return int(round(self.qfp))


@dataclass
class InventoryStats:
    """Aggregate MAC statistics for a simulated stretch of inventory."""

    successes: int = 0
    collisions: int = 0
    idles: int = 0
    elapsed: float = 0.0

    @property
    def slots(self) -> int:
        return self.successes + self.collisions + self.idles

    @property
    def read_rate(self) -> float:
        """Successful reads per second."""
        if self.elapsed <= 0.0:
            return 0.0
        return self.successes / self.elapsed

    @property
    def efficiency(self) -> float:
        """Fraction of slots that carried an EPC."""
        if self.slots == 0:
            return 0.0
        return self.successes / self.slots


def expected_round_efficiency(n_tags: int, q: int) -> float:
    """Analytic slot-success probability for n tags in 2^Q slots.

    Used by protocol tests: with n tags and N = 2^Q slots the expected
    fraction of successful slots is n * (1/N) * (1 - 1/N)^(n-1) per slot.
    Maximal near N ~= n (the classic framed-ALOHA 1/e bound).
    """
    if n_tags < 0 or q < 0:
        raise ValueError("n_tags and q must be non-negative")
    n_slots = 2**q
    if n_tags == 0:
        return 0.0
    p = 1.0 / n_slots
    return n_tags * p * (1.0 - p) ** (n_tags - 1)
