"""Round-batched Gen2 inventory engine: the reader's MAC.

The scalar reference MAC, kept with the tests in
``tests/rfid/collect_oracles.py``, walks every slot of every round in
Python and yields one outcome object per slot — faithful, but ~90% of a
trial's wall time once the channel is vectorized.
:class:`RoundBatchInventory` resolves an entire inventory round at once
while consuming the RNG stream *identically* to the scalar loop, so the
emitted report stream is bit-identical for the same seed:

* the per-round slot-counter draw is the very same
  ``rng.integers(0, 2**Q, size=len(readable))`` call (the stream consumed
  by ``Generator.integers`` depends only on the bound and the size, not on
  how the results are later grouped);
* slot outcomes come from ``bincount`` over the draws; the winner of each
  count-1 slot is recovered with one fancy-indexed scatter
  (``slot_to_tag[draws] = readable`` — a count-1 slot has exactly one
  writer, so "last writer wins" is exact);
* slot start times and the elapsed-time statistic are sequential left-fold
  float sums in the scalar loop; ``np.add.accumulate`` performs the same
  left fold element-by-element, so every success timestamp matches to the
  bit;
* the floating-point Q-algorithm update (clamped ``qfp`` drift on idles
  and collisions) is order-dependent through its clamps and stays as the
  only per-round scalar work — a short Python loop over the slot codes.

A round's whole effect — generator, clock, ``qfp`` and statistics — is
one :meth:`RoundBatchInventory.checkpoint`, so the reader can run rounds
ahead on the last readable set it knows, check their round-start clocks
afterwards, and :meth:`~RoundBatchInventory.rollback` exactly to the first
round whose set differed (DESIGN.md §10).

The scalar loop remains the reference: the MAC tests pin every success,
statistic and generator state to it, and the golden-stream tests assert
byte-for-byte :class:`~repro.rfid.reports.ReportLog` equality between
:class:`~repro.rfid.reader.Reader` and the scalar reference collect,
across seeds, link profiles, and hand scripts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .protocol import (
    InventoryStats,
    LinkProfile,
    PROFILE_DENSE,
    QAlgorithm,
)


@dataclass(frozen=True)
class RoundResult:
    """One resolved inventory round: the successes, column-wise.

    ``times[i]`` is the start time of the slot that tag ``winners[i]`` won;
    both arrays are in slot (= time) order.  Idle/collision slots only
    show up through the inventory statistics and the Q adaptation, exactly
    as with ``successes_only=True`` on the scalar engine.
    """

    times: np.ndarray    # (k,) success-slot start times, seconds
    winners: np.ndarray  # (k,) winning tag indices (population indices)

    @property
    def n_success(self) -> int:
        return int(self.winners.size)


class RoundBatchInventory:
    """Round-level counterpart of the scalar reference MAC.

    Same constructor, same clock/Q/stats surface, same RNG consumption —
    but each round is resolved with a handful of numpy operations instead
    of a per-slot Python loop, and successes come back as arrays ready for
    batched channel evaluation.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        q_initial: float = 3.0,
        start_time: float = 0.0,
        profile: "LinkProfile | None" = None,
    ) -> None:
        self._rng = rng
        self._qalg = QAlgorithm(qfp=q_initial)
        self._clock = start_time
        self.profile = profile if profile is not None else PROFILE_DENSE
        self.stats = InventoryStats()
        self._round_overhead_s = self.profile.round_overhead_s
        # Duration lookup by slot code (0 = idle, 1 = success, 2+ = collision).
        self._dur_lut = np.array(
            [
                self.profile.idle_slot_s,
                self.profile.success_slot_s,
                self.profile.collision_slot_s,
            ]
        )
        # qfp drift per slot code; rebuilt if the Q weights are mutated.
        self._q_lut: "np.ndarray | None" = None
        self._q_lut_key: "tuple[float, float] | None" = None

    @property
    def clock(self) -> float:
        return self._clock

    @property
    def current_q(self) -> int:
        return self._qalg.q

    def run_round_batch(self, readable: "Sequence[int] | np.ndarray") -> RoundResult:
        """Resolve one full inventory round over the readable population.

        Mirrors one round of the scalar reference MAC operation for
        operation on everything that feeds the emitted stream: the RNG
        draw, the slot timing folds, the statistics, and the clamped
        ``qfp`` updates.
        """
        # Scalar reference: clock += overhead; elapsed += overhead.
        self._clock += self._round_overhead_s
        stats = self.stats
        stats.elapsed += self._round_overhead_s
        qalg = self._qalg
        n_slots = 2 ** qalg.q
        n_readable = len(readable)
        if n_readable == 0:
            qalg.on_idle()
            return _EMPTY_ROUND

        draws = self._rng.integers(0, n_slots, size=n_readable)
        counts = np.bincount(draws, minlength=n_slots)
        codes = np.minimum(counts, 2)

        # Winner recovery: a count-1 slot has exactly one writer, so the
        # scatter below leaves that tag's index in the slot's cell.
        slot_to_tag = np.full(n_slots, -1, dtype=np.int64)
        slot_to_tag[draws] = readable
        success_mask = counts == 1

        # Slot start times / elapsed / qfp: the scalar loop computes
        # ``clock = clock + duration`` (and the Q drift) slot by slot — a
        # sequential left fold, which is exactly what np.add.accumulate
        # performs.  All three folds run as one three-row accumulate;
        # axis-1 accumulation is the same element-by-element left fold per
        # row as the 1-D form.  Success slots contribute a ``+0.0`` qfp
        # step the scalar loop skips — bit-neutral, since qfp can never be
        # ``-0.0`` (it is only ever produced by adds/subtracts of
        # non-negative values).
        idle_w, coll_w = qalg.idle_weight, qalg.collision_weight
        if (idle_w, coll_w) != self._q_lut_key:
            self._q_lut_key = (idle_w, coll_w)
            self._q_lut = np.array([-idle_w, 0.0, coll_w])
        durs = self._dur_lut[codes]
        folds = np.empty((3, n_slots + 1))
        folds[0, 0] = self._clock
        folds[1, 0] = stats.elapsed
        folds[2, 0] = qalg.qfp
        folds[0, 1:] = durs
        folds[1, 1:] = durs
        folds[2, 1:] = self._q_lut[codes]
        cum = np.add.accumulate(folds, axis=1)
        times = cum[0, :-1][success_mask]
        winners = slot_to_tag[success_mask]
        self._clock = float(cum[0, -1])
        stats.elapsed = float(cum[1, -1])

        n_success = int(winners.size)
        n_idle = int(np.count_nonzero(counts == 0))
        n_coll = n_slots - n_success - n_idle
        stats.successes += n_success
        stats.collisions += n_coll
        stats.idles += n_idle

        # The clamped floating-point Q drift is order-dependent through
        # its min/max saturation — but while the unclamped path stays
        # inside [q_min, q_max] no clamp ever alters a value (equality at
        # a bound returns the same float), so the accumulated row IS the
        # scalar sequence.  Only when the path escapes the band does the
        # order-dependent scalar replay run.
        if n_idle or n_coll:
            qpath = cum[2]
            if qpath.min() >= qalg.q_min and qpath.max() <= qalg.q_max:
                qalg.qfp = float(qpath[-1])
            else:
                q_min, q_max = qalg.q_min, qalg.q_max
                qfp = qalg.qfp
                for c in codes.tolist():
                    if c == 0:
                        qfp = max(q_min, qfp - idle_w)
                    elif c == 2:
                        qfp = min(q_max, qfp + coll_w)
                qalg.qfp = qfp

        return RoundResult(times=times, winners=winners)

    def checkpoint(self) -> tuple:
        """Everything a round changes: the generator state, clock, ``qfp``
        and statistics.  :meth:`rollback` to it puts the inventory back
        exactly where it was, so a round run ahead on a guessed readable
        set can be discarded and rerun on the true one."""
        stats = self.stats
        return (
            self._rng.bit_generator.state,
            self._clock,
            self._qalg.qfp,
            stats.successes,
            stats.collisions,
            stats.idles,
            stats.elapsed,
        )

    def rollback(self, checkpoint: tuple) -> None:
        """Restore a :meth:`checkpoint` (generator included)."""
        stats = self.stats
        (
            self._rng.bit_generator.state,
            self._clock,
            self._qalg.qfp,
            stats.successes,
            stats.collisions,
            stats.idles,
            stats.elapsed,
        ) = checkpoint


_EMPTY_ROUND = RoundResult(
    times=np.empty(0, dtype=float), winners=np.empty(0, dtype=np.int64)
)
