"""The reader: Gen2 MAC + channel physics + receiver -> report stream.

This is the simulated counterpart of the paper's Impinj Speedway R420 with
the Octane low-level-data extension: it runs inventory rounds over the
deployed array and, for every successful singulation, evaluates the full
backscatter channel *at that instant* (hand position included) and emits a
:class:`~repro.rfid.reports.TagReadReport`.

The scene is supplied as a callable ``hand_pose_at(t)`` so the reader stays
agnostic of how trajectories are produced — the motion layer generates
them, replay from a file would work just as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.metrics import get_metrics
from ..obs.trace import get_tracer
from ..physics.antenna import ReaderAntenna
from ..physics.channel_vec import ChannelEngine
from ..physics.hand import (
    HandPose,
    PoseTrack,
    SightLines,
    occlusion_loss_db_batch,
    occlusion_loss_db_rows,
)
from ..physics.multipath import Environment, free_space
from ..physics.noise import ReceiverNoise
from ..units import DEFAULT_FREQUENCY_HZ, TWO_PI, db_to_linear, dbm_to_watts, wavelength
from .deployment import TagArray
from .inventory_vec import RoundBatchInventory
from .protocol import InventoryStats, LinkProfile
from .reports import ReportLog, TagReadReport

HandPoseFn = Callable[[float], Optional[HandPose]]
PoseTrackFn = Callable[[np.ndarray], PoseTrack]

#: Longest block of inventory rounds one readability check covers.
_BLOCK_MAX = 64


def _pose_clocks(
    hand_pose_at: Optional[HandPoseFn], pose_at_many: Optional[PoseTrackFn]
) -> Tuple[Optional[HandPoseFn], Optional[PoseTrackFn]]:
    """The scalar pose clock and, when the source offers one, the
    vectorized one: a bound ``hand_pose_at`` of an object exposing
    ``pose_at_many`` (a :class:`~repro.motion.script.WritingScript`)
    brings its ``pose_at_many`` along.  ``(None, None)`` is a hand-free
    collect."""
    if pose_at_many is None and hand_pose_at is not None:
        owner = getattr(hand_pose_at, "__self__", None)
        if owner is not None:
            pose_at_many = getattr(owner, "pose_at_many", None)
    return hand_pose_at, pose_at_many


def _pose_track(
    times: np.ndarray,
    pose_at: Optional[HandPoseFn],
    pose_at_many: Optional[PoseTrackFn],
) -> PoseTrack:
    """Poses at ``times``: one vectorized call, or the scalar clock exactly
    once per time as the fallback."""
    if pose_at_many is not None:
        return pose_at_many(times)
    if pose_at is None:
        return PoseTrack.from_poses(times, [None] * times.size)
    return PoseTrack.from_poses(times, [pose_at(t) for t in times.tolist()])


@dataclass
class CollectSpec:
    """One lane of :meth:`Reader.collect_batch`: an independent collect
    window.

    ``rng`` is the lane's private generator (the per-trial
    ``SeedSequence(seed, spawn_key=(index,))`` stream); the lane consumes
    it in exactly the order a solo :meth:`Reader.collect` of the window
    would, which is what makes its log bit-identical to that collect's.

    No battery collects through lanes any more (pool workers run solo
    trials); this and the two batch methods stay only because the
    benchmark's layer timers (``perfbench/layers.py``) patch those methods
    by name.  ROADMAP item 4 deletes them once the benchmark stops
    patching them.
    """

    duration: float
    hand_pose_at: Optional[HandPoseFn] = None
    rng: Optional[np.random.Generator] = None
    start_time: float = 0.0
    pose_at_many: Optional[PoseTrackFn] = None


@dataclass
class LaneCollect:
    """One window's MAC output, awaiting its emit (:meth:`Reader.emit_lane`,
    or the tail of :meth:`Reader.collect`).

    ``times``/``winners``/``z`` hold the committed successes in slot order
    and their draws, one row of ``z`` per read; ``ahead`` counts rounds run
    ahead of their readability check and ``discarded`` those a mismatch
    threw away.
    """

    duration: float
    pose_at: Optional[HandPoseFn]
    pose_at_many: Optional[PoseTrackFn]
    stats: InventoryStats
    times: np.ndarray
    winners: np.ndarray
    z: np.ndarray
    ahead: int
    discarded: int


@dataclass(frozen=True)
class ReaderConfig:
    """Static reader configuration (the knobs the paper's evaluation sweeps).

    ``system_loss_db`` is the *one-way* fixed implementation loss — cables,
    polarisation mismatch, antenna inefficiency — that separates the ideal
    link budget from what a real reader reports.
    """

    tx_power_dbm: float = 30.0
    frequency_hz: float = DEFAULT_FREQUENCY_HZ
    system_loss_db: float = 5.0
    theta_reader: float = 1.234  # theta_T + theta_R circuit phase, radians
    los_occlusion: bool = False  # ceiling (LOS) deployments suffer arm blockage
    antenna_port: int = 1
    #: Gen2 air-interface profile; None selects the dense-reader default.
    #: Faster profiles raise the read rate and fight undersampling
    #: (section VI's throughput mitigation, exercised by `ext_speed`).
    link_profile: "LinkProfile | None" = None

    @property
    def tx_power_w(self) -> float:
        return dbm_to_watts(self.tx_power_dbm)

    @property
    def wavelength(self) -> float:
        return wavelength(self.frequency_hz)


class Reader:
    """A single-antenna reader bound to one tag array and one environment.

    Every read runs through one path: the round-batched MAC
    (:class:`RoundBatchInventory`), readability from one
    :meth:`ChannelEngine.scene_powers_trials` evaluation per checked block
    of rounds, and one whole-array emit per collect: the channel of every
    success (:meth:`ChannelEngine.backscatter_rows`), receiver noise
    (:meth:`ReceiverNoise.observe_many`) and the Doppler fold, with no
    loop over reads.  The emit's intermediates may differ from the scalar
    reference's libm values in the last ulp; its quantised reports do not.
    The scalar per-slot, per-read reference whose report logs it
    reproduces bit for bit lives with the tests
    (``tests/rfid/collect_oracles.py``, checked by
    ``tests/rfid/test_determinism.py``).
    """

    def __init__(
        self,
        antenna: ReaderAntenna,
        array: TagArray,
        config: ReaderConfig = ReaderConfig(),
        environment: Optional[Environment] = None,
        noise: ReceiverNoise = ReceiverNoise(),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.antenna = antenna
        self.array = array
        self.config = config
        self.environment = environment if environment is not None else free_space()
        self.noise = noise
        self.rng = rng if rng is not None else np.random.default_rng(0)
        # Static multipath geometry: image positions never move while the
        # deployment stands, only their coefficients flutter between reads.
        nominal_images = self.environment.image_antennas(antenna.position)
        with get_tracer().span("channel.batch", stage="precompute", tags=len(array.tags)):
            self._engine = ChannelEngine(
                antenna,
                config.wavelength,
                [tag.position for tag in array.tags],
                [tag.gain_linear for tag in array.tags],
                nominal_images,
            )
        self._static_loss_db = np.array([tag.static_shadow_db for tag in array.tags])
        self._static_powers: Optional[np.ndarray] = None
        self._sens_key: Optional[Tuple[float, ...]] = None
        self._sens_w: Optional[np.ndarray] = None
        # Direct + nominal-reflector terms under the static per-tag losses:
        # constant for every readability check that adds no occlusion, so
        # a check touches only the scatterer/shadow terms.
        self._static_base = self._engine.static_base(self._static_loss_db)
        # LOS arm occlusion is measured against fixed antenna->tag segments.
        self._sight_lines = SightLines.between(
            antenna.position, self._engine.tag_positions_np
        )
        self._one_way_loss = math.sqrt(db_to_linear(-config.system_loss_db))
        # Per-tag emit constants, gathered by each read's tag: the
        # roundtrip scale sqrt(Pt * m_tag), the circuit phase theta_R +
        # theta_T + theta_tag, and the report's tag-index and EPC columns.
        tags = array.tags
        self._sqrt_txp_eff = np.sqrt(
            config.tx_power_w * np.array([tag.modulation_efficiency for tag in tags])
        )
        self._circuit_phase = config.theta_reader + np.array([tag.theta_tag for tag in tags])
        self._index_col = np.array([tag.index for tag in tags], dtype=np.int64)
        self._epc_col = np.array([tag.epc for tag in tags], dtype=object)
        # Doppler history: each tag's last read time (NaN: none yet) and phase.
        self._last_t = np.full(len(tags), np.nan)
        self._last_phase = np.zeros(len(tags))
        # Per-template readability arrays (arm offsets, RCS column, shadow
        # params) keyed by the pose's parameter tuple — poses share a
        # template per script, so this is computed once per session.
        self._pose_cache: Dict[Tuple[float, ...], Tuple[np.ndarray, np.ndarray, Tuple[float, float, float]]] = {}

    # ------------------------------------------------------------------
    # Scene evaluation
    # ------------------------------------------------------------------

    def incident_power_w(self, tag_index: int, pose: Optional[HandPose]) -> float:
        """Forward-link power at the tag, including system loss and coupling."""
        return float(self._scene_powers(pose)[tag_index])

    def readable_indices(self, pose: Optional[HandPose]) -> List[int]:
        """Tags whose ICs power up under the current scene.

        **One** batched power evaluation over the whole array
        (:meth:`_scene_powers`).  IC sensitivities are always read live —
        deployments (and the failure-injection tests) may kill tags after
        the reader is built.
        """
        return np.nonzero(self._scene_powers(pose) >= self._sensitivity_w())[0].tolist()

    def _pose_fast_arrays(
        self, pose: HandPose
    ) -> Tuple[np.ndarray, np.ndarray, Tuple[float, float, float]]:
        """Template arrays for :meth:`ChannelEngine.scene_powers_trials`.

        The offsets are the exact ``u * k`` products of
        :meth:`HandPose.arm_points` (row 0 zeros: the hand itself), so
        ``position + offsets`` reproduces the scalar arm-point coordinates
        bit-for-bit.  Only the pose's parameters are read, so a
        :class:`PoseTrack` template serves as well as a pose.
        """
        key = (
            pose.arm_direction.x, pose.arm_direction.y, pose.arm_direction.z,
            pose.arm_length, pose.hand_rcs_m2, pose.arm_rcs_m2,
            pose.shadow_depth_db, pose.detune_rad,
        )
        entry = self._pose_cache.get(key)
        if entry is None:
            offsets = pose.body_offsets()
            rcs = pose.body_rcs()
            hand_sc = pose.scatterers(include_arm=False)[0]
            shadow = (
                hand_sc.shadow_depth_db,
                hand_sc.shadow_lateral_scale,
                hand_sc.shadow_vertical_scale,
            )
            entry = (offsets, rcs, shadow)
            self._pose_cache[key] = entry
        return entry

    def _scene_powers(self, pose: Optional[HandPose]) -> np.ndarray:
        """Incident power at every tag under ``pose``, watts: a one-row
        :meth:`_template_powers`, or the hand-free powers."""
        if pose is None:
            return self._static_scene_powers()
        p = pose.position
        return self._template_powers(
            np.array([(p.x, p.y, p.z)]), self._pose_fast_arrays(pose)
        )[0]

    def _static_scene_powers(self) -> np.ndarray:
        """The hand-free scene (calibration, idle gaps) is fully static, so
        its powers are computed once and cached."""
        if self._static_powers is None:
            with get_tracer().span("channel.batch", tags=len(self.array.tags)):
                self._static_powers = self._engine.scene_powers(
                    self._static_base, self.config.tx_power_w, self._one_way_loss
                )
        return self._static_powers

    def _template_powers(
        self,
        hand_xyz: np.ndarray,
        template: Tuple[np.ndarray, np.ndarray, Tuple[float, float, float]],
    ) -> np.ndarray:
        """Incident powers ``(K, N)`` for K hand positions under one pose
        template (:meth:`_pose_fast_arrays`): one
        :meth:`ChannelEngine.scene_powers_trials` evaluation.

        NLOS rows share the cached static base.  LOS rows each take the
        static base recomputed under their own arm occlusion
        (:meth:`ChannelEngine.static_base` with the per-tag loss), from one
        stacked :func:`occlusion_loss_db_batch`; the body points are
        ``hand + offsets`` with row 0 assigned, as the engine places them.
        """
        offsets, rcs, shadow = template
        with get_tracer().span(
            "channel.batch", tags=len(self.array.tags), rounds=hand_xyz.shape[0]
        ):
            base = self._static_base
            if self.config.los_occlusion:
                body = hand_xyz[:, None, :] + offsets
                body[:, 0, :] = hand_xyz
                occlusion = occlusion_loss_db_batch(self._sight_lines, body)
                base = self._engine.static_base(self._static_loss_db + occlusion)
            return self._engine.scene_powers_trials(
                base,
                self.config.tx_power_w,
                self._one_way_loss,
                hand_xyz,
                offsets,
                rcs,
                shadow,
            )

    def _readable_masks(
        self, track: PoseTrack, sens_w: np.ndarray, static_mask: np.ndarray
    ) -> np.ndarray:
        """Readable masks ``(K, N)`` at the K poses of ``track``: hand-free
        rows take ``static_mask``, the others one :meth:`_template_powers`
        call per pose template."""
        present = track.present
        if len(track.templates) == 1 and present.all():
            template = self._pose_fast_arrays(track.templates[0])
            return self._template_powers(track.xyz, template) >= sens_w
        if not present.any():
            return static_mask[None, :].repeat(present.size, axis=0)
        masks = np.empty((present.size, len(self.array.tags)), dtype=bool)
        masks[~present] = static_mask
        for k, template in enumerate(track.templates):
            rows = np.nonzero(track.template_idx == k)[0]
            if rows.size:
                powers = self._template_powers(
                    track.xyz[rows], self._pose_fast_arrays(template)
                )
                masks[rows] = powers >= sens_w
        return masks

    def _sensitivity_w(self) -> np.ndarray:
        """Per-tag IC wake-up thresholds (watts), revalidated on every call.

        The dBm fields are the mutable source of truth; the watts array is
        re-derived only when one of them changes (tag death injection).
        Nothing can change them *inside* a collect window (the simulator
        is single-threaded), so a window resolves them once up front.
        """
        key = tuple(tag.ic_sensitivity_dbm for tag in self.array.tags)
        if key != self._sens_key:
            self._sens_key = key
            self._sens_w = np.array([tag.ic_sensitivity_w for tag in self.array.tags])
        return self._sens_w

    def observe_tag(self, tag_index: int, t: float, pose: Optional[HandPose]) -> TagReadReport:
        """Evaluate the channel and produce the LLRP-style report for one read.

        One read through the collect path's emit: its flutter and receiver
        draws come off ``rng`` as one ``standard_normal`` block, the stream
        positions a collect gives each success.
        """
        nz_f = self.environment.flutter_draw_count
        z = self.rng.standard_normal(nz_f + 4).reshape(1, nz_f + 4)
        log = ReportLog()
        self._emit_batched(
            np.array([t], dtype=float),
            np.array([tag_index], dtype=np.int64),
            z,
            nz_f,
            lambda _t: pose,
            None,
            log,
        )
        return log[0]

    # ------------------------------------------------------------------
    # Inventory sessions
    # ------------------------------------------------------------------

    def collect(
        self,
        duration: Optional[float] = None,
        hand_pose_at: Optional[HandPoseFn] = None,
        start_time: float = 0.0,
        log: Optional[ReportLog] = None,
        pose_at_many: Optional[PoseTrackFn] = None,
        slices: Optional[Sequence[Tuple[float, float]]] = None,
    ) -> ReportLog:
        """Run continuous inventory for ``duration`` seconds.

        ``hand_pose_at(t)`` returns the hand pose at simulation time ``t``
        (or ``None`` when no hand is in the scene).  Every inventory round
        runs on the readable set at its own start clock, which the round
        loop (:meth:`_inventory`) checks per block of rounds run ahead;
        each successful slot then gets a full channel evaluation at the
        slot's own timestamp.

        ``slices`` replaces ``duration``/``start_time`` with a dwell plan:
        ``[(t0, t1), ...]`` stretches of inventory in time order, as a
        multiplexed port receives them.  Each slice starts a fresh
        inventory (Q resets, as on a real antenna switch) at ``t0`` and
        runs until its clock passes ``t0 + (t1 - t0)``; all slices' reads
        then go through one emit, so the Doppler history carries across
        slices exactly as across consecutive collects.  Without
        ``slices`` the plan is the one slice of ``duration`` from
        ``start_time``.  ``last_inventory_stats`` is the sum over slices.

        ``pose_at_many`` optionally supplies the vectorized pose clock;
        when ``hand_pose_at`` is a bound method of an object exposing
        ``pose_at_many`` (a :class:`~repro.motion.script.WritingScript`),
        it is picked up automatically, and the scalar clock is then never
        called.
        """
        if slices is None:
            if duration is None:
                raise ValueError("need a duration or a slice plan")
            plan = [(start_time, duration)]
        else:
            if duration is not None:
                raise ValueError("pass a duration or a slice plan, not both")
            plan = [(t0, t1 - t0) for t0, t1 in slices]
            if not plan:
                raise ValueError("slice plan is empty")
        for _, dur in plan:
            if dur <= 0.0:
                raise ValueError(f"duration must be positive, got {dur}")
        pose_at, pose_at_many = _pose_clocks(hand_pose_at, pose_at_many)
        out = log if log is not None else ReportLog()
        total = sum(dur for _, dur in plan)
        with get_tracer().span("reader.collect", duration_s=total) as sp:
            lane = self._inventory(self.rng, plan, pose_at, pose_at_many, total)
            self._emit_lane(lane, out, sp)
        self.last_inventory_stats = lane.stats
        self._record_metrics(lane)
        return out

    def _inventory(
        self,
        rng: np.random.Generator,
        plan: Sequence[Tuple[float, float]],
        pose_at: Optional[HandPoseFn],
        pose_at_many: Optional[PoseTrackFn],
        duration: float,
    ) -> LaneCollect:
        """The round loop of every collect: MAC rounds over a
        ``(start, duration)`` plan, each on the readable set at its own
        start clock, checked per block of rounds (DESIGN.md §10).

        RNG stream contract (what makes the output bit-identical to the
        scalar reference): per round, one ``integers`` draw, then one
        ``standard_normal(k * nz)`` block for its ``k`` successes, the
        stream positions the scalar reference consumes read by read in
        slot order.  Slices run back to back on the same generator.

        A block's first round runs on the set known at its clock; the
        rest run ahead on the same set, each after an inventory
        checkpoint.  One pose query and one :meth:`_readable_masks` call
        then check their start clocks and the clock after the block.
        Rounds before the first whose set differs are committed; that one
        is rolled back and rerun, on the set found, as the next block's
        first round.  Sets found for discarded rounds are kept by clock,
        so no clock is queried twice.  A block is ``1 + isqrt(2 n)``
        rounds (at most :data:`_BLOCK_MAX`) after ``n`` rounds without a
        change: about the length at which one check costs what a change
        throws away.  Blocks span slices.  A hand-free collect runs every
        round on the static set with no query and no check.
        """
        nz = self.environment.flutter_draw_count + 4
        sens_w = self._sensitivity_w()
        static_mask = self._static_scene_powers() >= sens_w
        hand_free = pose_at is None and pose_at_many is None
        profile = self.config.link_profile
        ends = [start + dur for start, dur in plan]
        invs = [RoundBatchInventory(rng, start_time=plan[0][0], profile=profile)]
        times: List[np.ndarray] = []
        winners: List[np.ndarray] = []
        zs: List[np.ndarray] = []
        # Readable masks a discarded block row found, by round-start clock.
        memo: Dict[float, np.ndarray] = {}
        mask = static_mask
        readable = np.nonzero(mask)[0]
        s = 0  # current slice

        def advance() -> None:
            # Move past finished slices; a slice starts a fresh inventory.
            nonlocal s
            while s < len(plan) and invs[s].clock >= ends[s]:
                s += 1
                if s < len(plan):
                    invs.append(
                        RoundBatchInventory(rng, start_time=plan[s][0], profile=profile)
                    )

        def run_round() -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
            rr = invs[s].run_round_batch(readable)
            k = rr.n_success
            z = rng.standard_normal(k * nz) if k else None
            advance()
            return rr.times, rr.winners, z

        def commit(result: Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]) -> None:
            if result[2] is not None:
                times.append(result[0])
                winners.append(result[1])
                zs.append(result[2])

        def query(clocks: List[float]) -> np.ndarray:
            track = _pose_track(np.array(clocks), pose_at, pose_at_many)
            return self._readable_masks(track, sens_w, static_mask)

        def masks_at(clocks: List[float]) -> np.ndarray:
            # Clocks only grow, so a kept set older than the first is dead.
            for c in [c for c in memo if c < clocks[0]]:
                del memo[c]
            if not memo:
                return query(clocks)
            hits = [memo.pop(c, None) for c in clocks]
            ask = [c for c, m in zip(clocks, hits) if m is None]
            fresh = iter(query(ask) if ask else ())
            return np.array([m if m is not None else next(fresh) for m in hits])

        ahead = discarded = streak = 0
        advance()
        if not hand_free and s < len(plan):
            mask = masks_at([invs[s].clock])[0]
            readable = np.nonzero(mask)[0]
        while s < len(plan):
            if hand_free:
                commit(run_round())
                continue
            # A block's first round runs on the set known at its clock; the
            # rest run ahead on the same set.  One check then covers their
            # start clocks and the clock after the block.
            block = min(_BLOCK_MAX, 1 + math.isqrt(2 * streak))
            commit(run_round())
            pending = []
            while len(pending) < block - 1 and s < len(plan):
                inv = invs[s]
                pending.append((s, inv.checkpoint(), inv.clock, run_round()))
            ahead += len(pending)
            clocks = [row[2] for row in pending]
            if s < len(plan):
                clocks.append(invs[s].clock)
            if not clocks:
                break
            masks = masks_at(clocks)
            changed = np.flatnonzero((masks != mask).any(axis=1))
            j = int(changed[0]) if changed.size else len(clocks)
            for row in pending[:j]:
                commit(row[3])
            if j >= len(pending):
                streak += 1 + len(pending)
                if j < len(clocks):  # the set changes at the next round
                    mask, readable, streak = masks[j], np.nonzero(masks[j])[0], 0
                continue
            # Round j ran on a stale set: roll back to it and rerun it on
            # its true set as the next block's first round.
            discarded += len(pending) - j
            s, checkpoint = pending[j][:2]
            del invs[s + 1:]
            invs[s].rollback(checkpoint)
            memo.update(zip(clocks[j + 1:], masks[j + 1:]))
            mask, readable, streak = masks[j], np.nonzero(masks[j])[0], 0

        n = sum(w.size for w in winners)
        parts = [inv.stats for inv in invs]
        stats = InventoryStats(
            successes=sum(p.successes for p in parts),
            collisions=sum(p.collisions for p in parts),
            idles=sum(p.idles for p in parts),
            elapsed=sum(p.elapsed for p in parts),
        )
        return LaneCollect(
            duration,
            pose_at,
            pose_at_many,
            stats,
            np.concatenate(times) if n else np.empty(0),
            np.concatenate(winners) if n else np.empty(0, dtype=np.int64),
            np.concatenate(zs).reshape(n, nz) if n else np.empty((0, nz)),
            ahead,
            discarded,
        )

    def _emit_lane(self, lane: LaneCollect, out: ReportLog, sp) -> None:
        """Emit a lane's reads into ``out`` and tag the collect span."""
        if lane.times.size:
            self._emit_batched(
                lane.times,
                lane.winners,
                lane.z,
                self.environment.flutter_draw_count,
                lane.pose_at,
                lane.pose_at_many,
                out,
            )
        stats = lane.stats
        sp.set(
            reads=stats.successes,
            collisions=stats.collisions,
            idles=stats.idles,
            read_rate_hz=round(stats.read_rate, 1),
        )

    def _emit_batched(
        self,
        times: np.ndarray,
        winners: np.ndarray,
        z: np.ndarray,
        nz_f: int,
        pose_at: Optional[HandPoseFn],
        pose_at_many: Optional[PoseTrackFn],
        out: ReportLog,
    ) -> None:
        """Evaluate one window's successes as whole arrays and emit them.

        Each read gets the channel at its own timestamp
        (:meth:`ChannelEngine.backscatter_rows`, one call per pose
        template), the circuit phase, receiver noise
        (:meth:`ReceiverNoise.observe_many`) and a Doppler estimate from
        its tag's previous read.  Every report equals the scalar reference
        read's (``tests/rfid/collect_oracles.py``) exactly.
        """
        engine = self._engine
        config = self.config
        # Poses for every success timestamp — one vectorized call, or the
        # scalar clock exactly once per timestamp as the fallback.
        track = _pose_track(times, pose_at, pose_at_many)
        # Reflector flutter for all rows at once, from each read's draws.
        g_re, g_im = self.environment.sample_gammas_rows(z[:, :nz_f])

        # The channel per pose template: hand-free rows, then each
        # template's rows (LOS rows under their own arm occlusion).
        s = np.empty(times.size, dtype=complex)
        detune = np.zeros(times.size)
        groups: List[Tuple[np.ndarray, Optional[HandPose]]] = [
            (np.flatnonzero(~track.present), None)
        ] + [
            (np.flatnonzero(track.template_idx == k), tmpl)
            for k, tmpl in enumerate(track.templates)
        ]
        for rows, tmpl in groups:
            if not rows.size:
                continue
            w = winners[rows]
            hand_xyz = None if tmpl is None else track.xyz[rows]
            loss = self._static_loss_db[w]
            if tmpl is not None and config.los_occlusion:
                body = hand_xyz[:, None, :] + tmpl.body_offsets()
                loss = loss + occlusion_loss_db_rows(self._sight_lines, w, body)
            s[rows], detune[rows] = engine.backscatter_rows(
                w,
                engine.a_direct_np[w] * 10.0 ** (-loss / 20.0),
                self._sqrt_txp_eff[w],
                g_re[rows],
                g_im[rows],
                hand_xyz=hand_xyz,
                template=tmpl,
            )

        # Both link legs' system loss, then the circuit phase offsets:
        # reader TX+RX chain, the tag's reflection characteristic (Eqs.
        # 6-7) and the near-field detuning a hovering hand imposes.
        s = s * self._one_way_loss**2 * np.exp(-1j * (self._circuit_phase[winners] + detune))
        rss, phases = self.noise.observe_many(s, z[:, nz_f:])
        out.extend_columns(
            times,
            self._index_col[winners],
            phases,
            rss,
            self._doppler(times, winners, phases),
            self._epc_col[winners],
            antenna_port=config.antenna_port,
        )

    def _doppler(self, times: np.ndarray, winners: np.ndarray, phases: np.ndarray) -> np.ndarray:
        """Doppler of each read from its tag's previous read, as a reader
        reports it: the phase step, folded to |dphi| <= pi, over 2*pi*dt.

        The previous read is the one before it in time order, or the last
        read of an earlier collect (the history this updates); a tag's
        first read ever, and a read no later than its previous one, report
        0.  Quantised phases lie in [0, 2*pi), so one fold each way
        suffices.
        """
        order = np.argsort(winners, kind="stable")
        w = winners[order]
        t = times[order]
        ph = phases[order]
        first = np.ones(w.size, dtype=bool)
        first[1:] = w[1:] != w[:-1]
        t_prev = np.empty_like(t)
        ph_prev = np.empty_like(ph)
        t_prev[1:] = t[:-1]
        ph_prev[1:] = ph[:-1]
        t_prev[first] = self._last_t[w[first]]
        ph_prev[first] = self._last_phase[w[first]]
        # NaN (no previous read) compares False.
        moved = t > t_prev
        dphi = ph - ph_prev
        dphi = np.where(dphi > math.pi, dphi - TWO_PI, dphi)
        dphi = np.where(dphi < -math.pi, dphi + TWO_PI, dphi)
        dt = np.where(moved, t - t_prev, 1.0)
        dopp = np.empty_like(t)
        dopp[order] = np.where(moved, dphi / (TWO_PI * dt), 0.0)
        last = np.roll(first, -1)
        self._last_t[w[last]] = t[last]
        self._last_phase[w[last]] = ph[last]
        return dopp

    def _record_metrics(self, lane: LaneCollect) -> None:
        """Fold one collect() window into the global metrics registry.

        Runs entirely *after* the inventory loop so the hot path carries no
        per-slot cost; with the registry disabled (the default) this is a
        single flag check.
        """
        metrics = get_metrics()
        if not metrics.enabled:
            return
        stats = lane.stats
        metrics.inc("reader.reads", stats.successes)
        metrics.inc("reader.collision_slots", stats.collisions)
        metrics.inc("reader.idle_slots", stats.idles)
        metrics.inc("reader.windows")
        # The readability speculation's yield: rounds run ahead of their
        # check, and those a changed readable set threw away.
        metrics.inc("reader.rounds_ahead", lane.ahead)
        metrics.inc("reader.rounds_discarded", lane.discarded)
        metrics.set_gauge("reader.read_rate_hz", stats.read_rate)
        metrics.observe("reader.slot_efficiency", stats.efficiency)
        # Each winner is one emitted row, so the lane's winners count this
        # window's reads per tag, whatever else the caller's log holds.
        _, per_tag = np.unique(lane.winners, return_counts=True)
        for count in per_tag.tolist():
            metrics.observe("reader.reads_per_tag_window", float(count))
        # Tags the MAC never delivered this window (unreadable / shadowed):
        # the paper's "unreadable tags" observable (IV-B.1).
        metrics.inc("reader.unread_tags", len(self.array.tags) - per_tag.size)
        for name, value in self._engine.drain_counters().items():
            metrics.inc(f"channel.{name}", value)

    # ------------------------------------------------------------------
    # Many independent windows (battery trials)
    # ------------------------------------------------------------------

    def collect_batch(self, specs: Sequence[CollectSpec]) -> List[LaneCollect]:
        """Run the MAC phase of many independent collect windows.

        Each spec becomes a *lane*: :meth:`_inventory`, the round loop of
        :meth:`collect`, over the spec's own generator, one lane after
        another.  Per lane, the returned MAC output (and the subsequent
        :meth:`emit_lane` report log) is bit-identical to a solo
        :meth:`collect` with the same generator state; how lanes are
        grouped into calls changes nothing.

        No program path calls this or :meth:`emit_lane`; both are kept
        only for the benchmark's layer timers, which patch them by name
        (see :class:`CollectSpec`).
        """
        for spec in specs:
            if spec.duration <= 0.0:
                raise ValueError(f"duration must be positive, got {spec.duration}")
        if not specs:
            return []
        lanes: List[LaneCollect] = []
        with get_tracer().span("reader.collect_batch", lanes=len(specs)):
            for spec in specs:
                pose_at, pose_at_many = _pose_clocks(spec.hand_pose_at, spec.pose_at_many)
                lanes.append(
                    self._inventory(
                        spec.rng if spec.rng is not None else self.rng,
                        [(spec.start_time, spec.duration)],
                        pose_at,
                        pose_at_many,
                        spec.duration,
                    )
                )
        return lanes

    def emit_lane(self, lane: LaneCollect, log: Optional[ReportLog] = None) -> ReportLog:
        """Run one lane's receiver/emit phase; the tail of a solo collect.

        Resets the Doppler history first (lanes are independent trials),
        then replays the lane's accumulated successes through the
        row-batched channel kernel under the same ``reader.collect`` span
        and metrics the solo path records.  Kept only for the benchmark's
        layer timers, like :meth:`collect_batch`.
        """
        out = log if log is not None else ReportLog()
        self.reset_read_history()
        with get_tracer().span("reader.collect", duration_s=lane.duration) as sp:
            self._emit_lane(lane, out, sp)
        self.last_inventory_stats = lane.stats
        self._record_metrics(lane)
        return out

    def reset_read_history(self) -> None:
        """Forget per-tag last-read state (Doppler baselines).

        ``SessionRunner.reseed`` calls this between independent trials so
        a trial's first Doppler estimate never leaks in from whichever
        trial the runner ran before it.
        """
        self._last_t.fill(np.nan)

    def collect_static(self, duration: float, start_time: float = 0.0) -> ReportLog:
        """Inventory with no hand in the scene (calibration captures)."""
        return self.collect(duration, hand_pose_at=None, start_time=start_time)
