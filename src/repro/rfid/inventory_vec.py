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

The scalar loop remains the reference: the MAC tests pin every success,
statistic and generator state to it, and the golden-stream tests assert
byte-for-byte :class:`~repro.rfid.reports.ReportLog` equality between
:class:`~repro.rfid.reader.Reader` and the scalar reference collect,
across seeds, link profiles, and hand scripts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

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
        return self._resolve_round(n_slots, draws, readable)

    def _resolve_round(
        self, n_slots: int, draws: np.ndarray, readable: "Sequence[int] | np.ndarray"
    ) -> RoundResult:
        """Resolve a round whose slot-counter draw already happened.

        Split out of :meth:`run_round_batch` so the trial-axis driver can
        phase the (per-lane) RNG draws separately from the (batchable)
        outcome resolution while keeping the single-lane tail byte-for-byte
        the code the solo path runs.
        """
        stats = self.stats
        qalg = self._qalg
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

    def run_until_batch(
        self,
        end_time: float,
        readable_at: Callable[[float], "Sequence[int] | np.ndarray"],
    ) -> Iterator[RoundResult]:
        """Yield one :class:`RoundResult` per round until the clock passes
        ``end_time`` — the round-level mirror of the scalar reference
        MAC's ``run_until``.

        Because this is a generator, a caller that draws from the shared
        RNG between rounds (the reader's per-round observation-noise
        block) interleaves with the slot-counter draws in exactly the
        scalar order: round N's draw happens only when the caller asks
        for round N's result.
        """
        if end_time <= self._clock:
            return
        while self._clock < end_time:
            yield self.run_round_batch(readable_at(self._clock))


_EMPTY_ROUND = RoundResult(
    times=np.empty(0, dtype=float), winners=np.empty(0, dtype=np.int64)
)


class TrialAxisInventory:
    """Lockstep driver advancing many independent inventory lanes at once.

    Each lane is a full :class:`RoundBatchInventory` — its own RNG, clock,
    Q state, and statistics — and :meth:`step` advances every active lane
    by exactly one round.  The per-lane RNG draws stay per-lane (lane
    streams must match their solo counterparts bit-for-bit), but the
    outcome resolution — slot bincounts, winner scatters, the three timing
    /Q folds — runs once per same-slot-count group over a dense
    ``(lanes, slots)`` trial axis.

    Grouping by slot count (rather than padding every lane to the widest
    Q) matters because lanes' Q trajectories desynchronize completely a
    few rounds in: a widest-lane layout measures >80% zero padding on the
    13-motion battery.  Dense rows also make bit-identity trivial — every
    lane's cumulative timing/qfp row is exactly the fold the solo path
    computes, with no pad-neutrality argument needed.

    Lanes may use heterogeneous link profiles or Q weights; such a group
    (and single-lane groups) falls back to the per-lane resolution tail,
    which is the identical code path either way.
    """

    def __init__(self, lanes: Sequence[RoundBatchInventory]) -> None:
        if not lanes:
            raise ValueError("need at least one lane")
        self.lanes = list(lanes)
        first = self.lanes[0]
        self._uniform = all(
            inv.profile == first.profile for inv in self.lanes[1:]
        )
        self._dur_lut = first._dur_lut
        self._q_lut: "np.ndarray | None" = None
        self._q_lut_key: "tuple[float, float] | None" = None

    def step(
        self,
        active: Sequence[int],
        readables: Sequence[np.ndarray],
    ) -> "list[RoundResult]":
        """Advance each lane in ``active`` by one round.

        ``readables[k]`` is the readable tag population for lane
        ``active[k]`` at that lane's current clock.  Returns one
        :class:`RoundResult` per active lane, aligned with ``active``.
        """
        lanes = self.lanes
        results: "list[RoundResult | None]" = [None] * len(active)
        # Phase 1 — per-lane scalar prologue and RNG draw, in lane order.
        # Exactly the run_round_batch prologue: overhead advance, idle
        # shortcut, and the lane's own integers() draw.
        metas: "list[tuple[int, RoundBatchInventory, int, np.ndarray, np.ndarray]]" = []
        for k, (li, readable) in enumerate(zip(active, readables)):
            inv = lanes[li]
            inv._clock += inv._round_overhead_s
            inv.stats.elapsed += inv._round_overhead_s
            qalg = inv._qalg
            n_readable = len(readable)
            if n_readable == 0:
                qalg.on_idle()
                results[k] = _EMPTY_ROUND
                continue
            n_slots = 2 ** qalg.q
            draws = inv._rng.integers(0, n_slots, size=n_readable)
            metas.append((k, inv, n_slots, draws, readable))
        if not metas:
            return results

        q_key = (metas[0][1]._qalg.idle_weight, metas[0][1]._qalg.collision_weight)
        uniform = self._uniform and all(
            (inv._qalg.idle_weight, inv._qalg.collision_weight) == q_key
            for _, inv, _, _, _ in metas[1:]
        )
        if len(metas) == 1 or not uniform:
            for k, inv, n_slots, draws, readable in metas:
                results[k] = inv._resolve_round(n_slots, draws, readable)
            return results

        # Phase 2 — batched resolution, one sub-batch per slot count.
        # Lanes' Q values desynchronize completely a few rounds in (the
        # Q oscillation phase depends on each lane's private draws), so a
        # single widest-lane layout would be >80% zero padding; grouping
        # by ``n_slots`` keeps every row fully dense and makes the
        # accumulated rows trivially the solo folds (no pad-neutrality
        # argument needed).
        if q_key != self._q_lut_key:
            self._q_lut_key = q_key
            self._q_lut = np.array([-q_key[0], 0.0, q_key[1]])
        by_slots: "dict[int, list] " = {}
        for meta in metas:
            group = by_slots.get(meta[2])
            if group is None:
                by_slots[meta[2]] = [meta]
            else:
                group.append(meta)
        for n_slots, group in by_slots.items():
            if len(group) == 1:
                k, inv, n_slots, draws, readable = group[0]
                results[k] = inv._resolve_round(n_slots, draws, readable)
            else:
                self._resolve_group(n_slots, group, q_key, results)
        return results

    def _resolve_group(
        self,
        n_slots: int,
        group: "list[tuple[int, RoundBatchInventory, int, np.ndarray, np.ndarray]]",
        q_key: "tuple[float, float]",
        results: "list[RoundResult | None]",
    ) -> None:
        """Resolve one round for every lane in a same-``n_slots`` group."""
        n_lanes = len(group)
        offsets = n_slots * np.arange(n_lanes)
        flat_draws = np.concatenate(
            [m[3] + off for m, off in zip(group, offsets.tolist())]
        )
        counts = np.bincount(flat_draws, minlength=n_lanes * n_slots).reshape(
            n_lanes, n_slots
        )
        codes = np.minimum(counts, 2)
        slot_to_tag = np.full(n_lanes * n_slots, -1, dtype=np.int64)
        slot_to_tag[flat_draws] = np.concatenate(
            [np.asarray(m[4], dtype=np.int64) for m in group]
        )
        slot_to_tag = slot_to_tag.reshape(n_lanes, n_slots)

        durs = self._dur_lut[codes]
        folds = np.empty((n_lanes, 3, n_slots + 1))
        for j, (_, inv, _, _, _) in enumerate(group):
            folds[j, 0, 0] = inv._clock
            folds[j, 1, 0] = inv.stats.elapsed
            folds[j, 2, 0] = inv._qalg.qfp
        folds[:, 0, 1:] = durs
        folds[:, 1, 1:] = durs
        folds[:, 2, 1:] = self._q_lut[codes]
        cum = np.add.accumulate(folds, axis=2)

        # Successes in (lane, slot) C-order = per-lane time order.
        succ_mask = counts == 1
        rows, cols = np.nonzero(succ_mask)
        times_flat = cum[rows, 0, cols]
        winners_flat = slot_to_tag[rows, cols]
        bounds = np.searchsorted(rows, np.arange(1, n_lanes)).tolist()
        bounds = [0] + bounds + [rows.size]

        succ_counts = succ_mask.sum(axis=1)
        idle_counts = (counts == 0).sum(axis=1)
        q_mins = cum[:, 2, :].min(axis=1)
        q_maxs = cum[:, 2, :].max(axis=1)
        idle_w, coll_w = q_key
        for j, (k, inv, _, _, _) in enumerate(group):
            inv._clock = float(cum[j, 0, n_slots])
            stats = inv.stats
            stats.elapsed = float(cum[j, 1, n_slots])
            n_success = int(succ_counts[j])
            n_idle = int(idle_counts[j])
            n_coll = n_slots - n_success - n_idle
            stats.successes += n_success
            stats.collisions += n_coll
            stats.idles += n_idle
            qalg = inv._qalg
            if n_idle or n_coll:
                if q_mins[j] >= qalg.q_min and q_maxs[j] <= qalg.q_max:
                    qalg.qfp = float(cum[j, 2, n_slots])
                else:
                    q_min, q_max = qalg.q_min, qalg.q_max
                    qfp = qalg.qfp
                    for c in codes[j].tolist():
                        if c == 0:
                            qfp = max(q_min, qfp - idle_w)
                        elif c == 2:
                            qfp = min(q_max, qfp + coll_w)
                    qalg.qfp = qfp
            results[k] = RoundResult(
                times=times_flat[bounds[j] : bounds[j + 1]],
                winners=winners_flat[bounds[j] : bounds[j + 1]],
            )
