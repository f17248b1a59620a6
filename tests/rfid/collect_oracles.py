"""Scalar reference of the reader's collection path.

These are the bodies the reader ran beside its engine before the engine
became its only collection path: the slot-by-slot Gen2 MAC, per-tag
``ChannelModel`` readability, and one ``ChannelModel`` per read on that
read's fluttered image antennas.  ``Reader`` must reproduce them bit for
bit, and the tests compare the two with ``==`` (never approx):

* :class:`Gen2Inventory` walks every slot of every framed-slotted-ALOHA
  round in Python, with the Q-algorithm adapting between slots, and
  yields one :class:`SlotOutcome` per slot;
* :func:`scalar_collect` is a collect over a reader's public state
  (``antenna``, ``array``, ``config``, ``environment``, ``noise``,
  ``rng``) that keeps its own Doppler history.

Nothing in ``src/`` may import this module.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.physics.channel import ChannelModel, Scatterer
from repro.physics.hand import HandPose, occlusion_loss_db
from repro.physics.noise import doppler_estimate_hz
from repro.rfid.protocol import (
    PROFILE_DENSE,
    InventoryStats,
    LinkProfile,
    QAlgorithm,
)
from repro.rfid.reports import ReportLog, TagReadReport
from repro.units import db_to_linear


@dataclass(frozen=True)
class SlotOutcome:
    """Result of one MAC slot."""

    time: float            # slot start time, seconds since session start
    duration: float        # slot length, seconds
    kind: str              # "success" | "collision" | "idle"
    winner: Optional[int]  # index into the participating population


class Gen2Inventory:
    """A streaming Gen2 inventory engine.

    Drives inventory rounds over a population whose *readability* can change
    between slots (the caller supplies, per round, which tags currently
    power up).  Yields :class:`SlotOutcome` events in time order; the reader
    layer converts successes into channel observations.
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
        # Slot durations are pure functions of the (frozen) profile; resolve
        # them once instead of re-deriving the timing tree every slot.
        self._idle_s = self.profile.idle_slot_s
        self._success_s = self.profile.success_slot_s
        self._collision_s = self.profile.collision_slot_s
        self._round_overhead_s = self.profile.round_overhead_s

    @property
    def clock(self) -> float:
        return self._clock

    @property
    def current_q(self) -> int:
        return self._qalg.q

    def run_round(
        self, readable: Sequence[int], successes_only: bool = False
    ) -> Iterator[SlotOutcome]:
        """Run one inventory round over the currently-readable tag indices.

        Gen2 semantics: each readable tag draws a slot in [0, 2^Q - 1]; the
        reader steps through all slots.  Tags singulated in this round stay
        quiet for its remainder (session flag), so each tag is read at most
        once per round.

        ``successes_only`` suppresses the idle/collision outcome objects
        (clock, stats, and Q adaptation still advance identically) — the
        reader's collect loop only consumes successes, and most slots in a
        tuned round are not.
        """
        self._clock += self._round_overhead_s
        self.stats.elapsed += self._round_overhead_s
        q = self._qalg.q
        n_slots = 2**q
        if not readable:
            # An empty round still burns the Query overhead; Q drifts down.
            self._qalg.on_idle()
            return

        draws = self._rng.integers(0, n_slots, size=len(readable))
        slot_map: Dict[int, List[int]] = {}
        for tag_idx, slot in zip(readable, draws):
            slot_map.setdefault(int(slot), []).append(tag_idx)

        stats = self.stats
        qalg = self._qalg
        q_min, q_max = qalg.q_min, qalg.q_max
        idle_w, coll_w = qalg.idle_weight, qalg.collision_weight
        for slot in range(n_slots):
            start = self._clock
            contenders = slot_map.get(slot)
            if contenders is None:
                duration, kind, winner = self._idle_s, "idle", None
                # Inlined QAlgorithm.on_idle / on_collision: the adaptation
                # runs once per slot, and the method-call overhead shows up
                # in the battery profile.
                qalg.qfp = max(q_min, qalg.qfp - idle_w)
                stats.idles += 1
            elif len(contenders) == 1:
                duration, kind, winner = self._success_s, "success", contenders[0]
                stats.successes += 1
            else:
                duration, kind, winner = self._collision_s, "collision", None
                qalg.qfp = min(q_max, qalg.qfp + coll_w)
                stats.collisions += 1
            self._clock = start + duration
            stats.elapsed += duration
            if not successes_only or kind == "success":
                yield SlotOutcome(start, duration, kind, winner)

    def run_until(
        self,
        end_time: float,
        readable_at: "callable[[float], Sequence[int]]",
        successes_only: bool = False,
    ) -> Iterator[SlotOutcome]:
        """Run rounds back-to-back until the clock passes ``end_time``.

        ``readable_at(t)`` returns the indices of tags that power up at
        round start time ``t`` — readability is resampled every round so
        that a hand shadowing a tag can make it drop out of inventory,
        another observable the paper notes (unreadable tags, IV-B.1).
        """
        if end_time <= self._clock:
            return
        while self._clock < end_time:
            readable = readable_at(self._clock)
            yield from self.run_round(readable, successes_only=successes_only)


def _scatterers(pose: Optional[HandPose]) -> List[Scatterer]:
    if pose is None:
        return []
    return pose.scatterers(include_arm=True)


def _direct_loss_db(reader, tag_index: int, pose: Optional[HandPose]) -> float:
    tag = reader.array.tags[tag_index]
    loss = tag.static_shadow_db
    if reader.config.los_occlusion and pose is not None:
        loss += occlusion_loss_db(reader.antenna.position, tag.position, pose)
    return loss


def _one_way_loss(reader) -> float:
    return math.sqrt(db_to_linear(-reader.config.system_loss_db))


def scalar_readable(
    reader, channel: ChannelModel, pose: Optional[HandPose]
) -> List[int]:
    """Tags whose ICs power up: one scalar ray sum per tag on the nominal
    (flutter-free) ``channel``."""
    out = []
    for i, tag in enumerate(reader.array.tags):
        g = channel.one_way(
            tag.position,
            tag.gain_linear,
            _scatterers(pose),
            _direct_loss_db(reader, i, pose),
        )
        if tag.is_powered(reader.config.tx_power_w * abs(g * _one_way_loss(reader)) ** 2):
            out.append(i)
    return out


def scalar_observe(
    reader,
    history: Dict[int, Tuple[float, float]],
    tag_index: int,
    t: float,
    pose: Optional[HandPose],
) -> TagReadReport:
    """One read: a ``ChannelModel`` on this read's fluttered image antennas,
    its roundtrip, the circuit phase offsets and ``noise.observe``."""
    config = reader.config
    tag = reader.array.tags[tag_index]
    scatterers = _scatterers(pose)
    channel = ChannelModel(
        reader.antenna,
        config.wavelength,
        reader.environment.image_antennas(reader.antenna.position, reader.rng),
    )
    s = channel.roundtrip(
        config.tx_power_w,
        tag.position,
        tag.gain_linear,
        tag.modulation_efficiency,
        scatterers,
        _direct_loss_db(reader, tag_index, pose),
    )
    detune = channel.detuning_phase_rad(tag.position, scatterers)
    s *= _one_way_loss(reader) ** 2
    # Circuit phase offsets: reader TX+RX chain plus the tag's reflection
    # characteristic (Eq. 6-7 of the paper), plus the near-field resonance
    # detuning a hovering hand imposes on the tag.
    s *= cmath.exp(-1j * (config.theta_reader + tag.theta_tag + detune))

    rss_dbm, phase = reader.noise.observe(s, reader.rng)

    doppler = 0.0
    if tag_index in history:
        t_prev, phase_prev = history[tag_index]
        if t > t_prev:
            doppler = doppler_estimate_hz(phase, phase_prev, t - t_prev, config.wavelength)
    history[tag_index] = (t, phase)

    return TagReadReport(
        epc=tag.epc,
        tag_index=tag.index,
        timestamp=t,
        phase_rad=phase,
        rss_dbm=rss_dbm,
        doppler_hz=doppler,
        antenna_port=config.antenna_port,
    )


def scalar_collect(
    reader, duration: Optional[float], hand_pose_at=None, slices=None
) -> ReportLog:
    """``reader.collect(duration, hand_pose_at)`` on a fresh reader, the
    scalar way: :class:`Gen2Inventory` rounds from t = 0 with per-tag
    readability at each round's start, then one :func:`scalar_observe` per
    success at the slot's own timestamp.

    ``slices`` (with ``duration=None``) is ``reader.collect``'s dwell plan:
    one fresh inventory per ``(t0, t1)`` slice on the same generator, its
    rounds running until the clock passes ``t0 + (t1 - t0)``, with one
    Doppler history across slices."""
    pose_at = hand_pose_at if hand_pose_at is not None else (lambda t: None)
    nominal = ChannelModel(
        reader.antenna,
        reader.config.wavelength,
        reader.environment.image_antennas(reader.antenna.position),
    )
    history: Dict[int, Tuple[float, float]] = {}
    out = ReportLog()
    plan = [(0.0, duration)] if slices is None else [(t0, t1 - t0) for t0, t1 in slices]
    for start, length in plan:
        inventory = Gen2Inventory(
            reader.rng, start_time=start, profile=reader.config.link_profile
        )
        for slot in inventory.run_until(
            start + length,
            lambda t: scalar_readable(reader, nominal, pose_at(t)),
            successes_only=True,
        ):
            out.append(
                scalar_observe(reader, history, slot.winner, slot.time, pose_at(slot.time))
            )
    return out
