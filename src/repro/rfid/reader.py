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
from ..physics.noise import ReceiverNoise, doppler_estimate_hz
from ..units import DEFAULT_FREQUENCY_HZ, db_to_linear, dbm_to_watts, wavelength
from .deployment import TagArray
from .inventory_vec import RoundBatchInventory, TrialAxisInventory
from .protocol import InventoryStats, LinkProfile
from .reports import ReportLog, TagReadReport

HandPoseFn = Callable[[float], Optional[HandPose]]
PoseTrackFn = Callable[[np.ndarray], PoseTrack]


def _pose_clocks(
    hand_pose_at: Optional[HandPoseFn], pose_at_many: Optional[PoseTrackFn]
) -> Tuple[HandPoseFn, Optional[PoseTrackFn]]:
    """The scalar pose clock and, when the source offers one, the
    vectorized one: a bound ``hand_pose_at`` of an object exposing
    ``pose_at_many`` (a :class:`~repro.motion.script.WritingScript`)
    brings its ``pose_at_many`` along."""
    if pose_at_many is None and hand_pose_at is not None:
        owner = getattr(hand_pose_at, "__self__", None)
        if owner is not None:
            pose_at_many = getattr(owner, "pose_at_many", None)
    pose_at = hand_pose_at if hand_pose_at is not None else (lambda t: None)
    return pose_at, pose_at_many


@dataclass
class CollectSpec:
    """One lane of a trial-axis collect: an independent inventory window.

    ``rng`` is the lane's private generator (the per-trial
    ``SeedSequence(seed, spawn_key=(index,))`` stream); the lane consumes
    it in exactly the order the solo :meth:`Reader.collect` would, which
    is what makes lockstep execution bit-identical per lane.
    """

    duration: float
    hand_pose_at: Optional[HandPoseFn] = None
    rng: Optional[np.random.Generator] = None
    start_time: float = 0.0
    pose_at_many: Optional[PoseTrackFn] = None


class LaneCollect:
    """Accumulated MAC output of one lane, awaiting :meth:`Reader.emit_lane`."""

    __slots__ = (
        "spec", "inv", "end", "pose_at", "pose_at_many",
        "times", "winners", "z", "n",
    )

    def __init__(
        self,
        spec: CollectSpec,
        inv: RoundBatchInventory,
        pose_at: HandPoseFn,
        pose_at_many: Optional[PoseTrackFn],
    ) -> None:
        self.spec = spec
        self.inv = inv
        self.end = spec.start_time + spec.duration
        self.pose_at = pose_at
        self.pose_at_many = pose_at_many
        self.times: List[np.ndarray] = []
        self.winners: List[np.ndarray] = []
        self.z: List[np.ndarray] = []
        self.n = 0


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
    :meth:`ChannelEngine.scene_powers` evaluation per round, and each
    success through :meth:`ChannelEngine.backscatter_rows`.  The scalar
    per-slot, per-tag reference it reproduces bit for bit lives with the
    tests (``tests/rfid/collect_oracles.py``, checked by
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
        # the per-round batch touches only the scatterer/shadow terms.
        self._static_base = self._engine.static_base(self._static_loss_db)
        # LOS arm occlusion is measured against fixed antenna->tag segments.
        self._sight_lines = SightLines.between(
            antenna.position, self._engine.tag_positions_np
        )
        self._one_way_loss = math.sqrt(db_to_linear(-config.system_loss_db))
        self._last_read: Dict[int, Tuple[float, float]] = {}  # tag -> (t, phase)
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
        return self._readable_arr(pose).tolist()

    def _pose_fast_arrays(
        self, pose: HandPose
    ) -> Tuple[np.ndarray, np.ndarray, Tuple[float, float, float]]:
        """Template arrays for :meth:`ChannelEngine.scene_powers`.

        The offsets are the exact ``u * k`` products of
        :meth:`HandPose.arm_points` (row 0 zeros: the hand itself), so
        ``position + offsets`` reproduces the scalar arm-point coordinates
        bit-for-bit.
        """
        key = (
            pose.arm_direction.x, pose.arm_direction.y, pose.arm_direction.z,
            pose.arm_length, pose.hand_rcs_m2, pose.arm_rcs_m2,
            pose.shadow_depth_db, pose.detune_rad,
        )
        entry = self._pose_cache.get(key)
        if entry is None:
            offsets = pose.body_offsets()
            per_point = pose.arm_rcs_m2 / 3
            rcs = np.array([pose.hand_rcs_m2, per_point, per_point, per_point])
            hand_sc = pose.scatterers(include_arm=False)[0]
            shadow = (
                hand_sc.shadow_depth_db,
                hand_sc.shadow_lateral_scale,
                hand_sc.shadow_vertical_scale,
            )
            entry = (offsets, rcs, shadow)
            self._pose_cache[key] = entry
        return entry

    def _pose_base(
        self, hand_xyz: Tuple[float, float, float], offsets: np.ndarray
    ) -> np.ndarray:
        """The direct + nominal-reflector base for one hand pose.

        NLOS: the cached static base.  LOS: the static base recomputed under
        the pose's arm occlusion (:meth:`ChannelEngine.static_base` with the
        per-tag loss).  The body points are ``hand + offsets``
        with row 0 assigned, as :meth:`ChannelEngine.scene_powers` places
        them.
        """
        if not self.config.los_occlusion:
            return self._static_base
        body = np.array(hand_xyz) + offsets
        body[0] = hand_xyz
        occlusion = occlusion_loss_db_batch(self._sight_lines, body)
        return self._engine.static_base(self._static_loss_db + occlusion)

    def _scene_powers(self, pose: Optional[HandPose]) -> np.ndarray:
        """Incident power at every tag under ``pose``, watts.

        Every hand pose — both mounts — runs through
        :meth:`ChannelEngine.scene_powers` with cached template arrays; an
        LOS pose passes its occluded direct-path base (:meth:`_pose_base`).
        The hand-free scene (calibration, idle gaps) is fully static, so
        its powers are computed once and cached.
        """
        if pose is None and self._static_powers is not None:
            return self._static_powers
        with get_tracer().span("channel.batch", tags=len(self.array.tags)):
            if pose is not None:
                offsets, rcs, shadow = self._pose_fast_arrays(pose)
                p = pose.position
                hand = (p.x, p.y, p.z)
                powers = self._engine.scene_powers(
                    self._pose_base(hand, offsets),
                    self.config.tx_power_w,
                    self._one_way_loss,
                    hand,
                    offsets,
                    rcs,
                    shadow,
                )
            else:
                powers = self._engine.scene_powers(
                    self._static_base, self.config.tx_power_w, self._one_way_loss
                )
        if pose is None:
            self._static_powers = powers
        return powers

    def _readable_arr(
        self, pose: Optional[HandPose], sens_w: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """:meth:`readable_indices` as an int64 index array.

        ``sens_w`` lets a collect window pass the sensitivity vector it
        resolved once up front — nothing can mutate tag sensitivities
        *inside* a window (the simulator is single-threaded), only between
        collects.
        """
        if sens_w is None:
            sens_w = self._sensitivity_w()
        return np.nonzero(self._scene_powers(pose) >= sens_w)[0]

    def _sensitivity_w(self) -> np.ndarray:
        """Per-tag IC wake-up thresholds (watts), revalidated on every call.

        The dBm fields are the mutable source of truth; the watts array is
        re-derived only when one of them changes (tag death injection).
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
        (or ``None`` when no hand is in the scene).  Readability is
        re-evaluated once per inventory round; each successful slot gets a
        full channel evaluation at the slot's own timestamp.

        ``slices`` replaces ``duration``/``start_time`` with a dwell plan:
        ``[(t0, t1), ...]`` stretches of inventory in time order, as a
        multiplexed port receives them.  Each slice starts a fresh
        inventory (Q resets, as on a real antenna switch) at ``t0`` and
        runs until its clock passes ``t0 + (t1 - t0)``; all slices' reads
        then go through one emit, so the Doppler history carries across
        slices exactly as across consecutive collects.  Without
        ``slices`` the plan is the one slice of ``duration`` from
        ``start_time``.  ``last_inventory_stats`` is the sum over slices.

        The MAC resolves whole rounds (:class:`RoundBatchInventory`) and
        all of a window's successes go through the engine's row-batched
        channel kernel.  ``pose_at_many`` optionally supplies the
        vectorized pose clock; when ``hand_pose_at`` is a bound method of
        an object exposing ``pose_at_many`` (a
        :class:`~repro.motion.script.WritingScript`), it is picked up
        automatically.
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
        n_before = len(out)
        with get_tracer().span(
            "reader.collect", duration_s=sum(dur for _, dur in plan)
        ) as sp:
            parts = self._collect_batched(plan, pose_at, pose_at_many, out)
            stats = InventoryStats(
                successes=sum(s.successes for s in parts),
                collisions=sum(s.collisions for s in parts),
                idles=sum(s.idles for s in parts),
                elapsed=sum(s.elapsed for s in parts),
            )
            sp.set(
                reads=stats.successes,
                collisions=stats.collisions,
                idles=stats.idles,
                read_rate_hz=round(stats.read_rate, 1),
            )
        self.last_inventory_stats = stats
        self._record_metrics(stats, out, n_before)
        return out

    def _collect_batched(
        self,
        plan: Sequence[Tuple[float, float]],
        pose_at: HandPoseFn,
        pose_at_many: Optional[PoseTrackFn],
        out: ReportLog,
    ) -> List[InventoryStats]:
        """Round-batched inventory over a ``(start, duration)`` plan, then
        one row-batched channel evaluation; returns per-slice MAC stats.

        RNG stream contract (what makes the output bit-identical to the
        scalar reference): per round, the MAC consumes one ``integers``
        draw, then the scalar reference consumes ``flutter + 4`` standard
        normals per success *in slot order* before the next round's draw.
        Here each round's successes pull one ``standard_normal(k * nz)``
        block inside the generator loop — same stream positions, same
        values — and the block is later sliced per read in the same slot
        order.  Slices run back to back on the same generator, so the
        stream is the one a collect per slice consumes.
        """
        nz_f = self.environment.flutter_draw_count
        nz = nz_f + 4
        sens_w = self._sensitivity_w()

        def readable_at(t: float) -> np.ndarray:
            return self._readable_arr(pose_at(t), sens_w)

        parts: List[InventoryStats] = []
        all_times: List[np.ndarray] = []
        all_winners: List[np.ndarray] = []
        all_z: List[np.ndarray] = []
        n_total = 0
        for start_time, duration in plan:
            inventory = RoundBatchInventory(
                self.rng, start_time=start_time, profile=self.config.link_profile
            )
            for rr in inventory.run_until_batch(start_time + duration, readable_at):
                k = rr.n_success
                if k == 0:
                    continue
                all_times.append(rr.times)
                all_winners.append(rr.winners)
                all_z.append(self.rng.standard_normal(k * nz))
                n_total += k
            parts.append(inventory.stats)
        if n_total:
            times = np.concatenate(all_times)
            winners = np.concatenate(all_winners)
            z = np.concatenate(all_z).reshape(n_total, nz)
            self._emit_batched(times, winners, z, nz_f, pose_at, pose_at_many, out)
        return parts

    def _emit_batched(
        self,
        times: np.ndarray,
        winners: np.ndarray,
        z: np.ndarray,
        nz_f: int,
        pose_at: HandPoseFn,
        pose_at_many: Optional[PoseTrackFn],
        out: ReportLog,
    ) -> None:
        """Evaluate one window's successes through the row kernel and emit."""
        m = times.size
        engine = self._engine
        config = self.config
        tags = self.array.tags

        # Poses for every success timestamp — one vectorized call, or the
        # scalar clock exactly once per timestamp as the fallback.
        if pose_at_many is not None:
            track = pose_at_many(times)
        else:
            track = PoseTrack.from_poses(
                times, [pose_at(t) for t in times.tolist()]
            )

        # Per-tag window constants, with the scalar expressions verbatim.
        amp_by_tag: List[float] = []
        sqrt_te: List[float] = []
        trt: List[float] = []
        for tag, a in zip(tags, engine.a_direct_np.tolist()):
            loss_db = tag.static_shadow_db
            amp_by_tag.append(
                a * math.sqrt(db_to_linear(-loss_db)) if loss_db > 0.0 else a
            )
            sqrt_te.append(math.sqrt(config.tx_power_w * tag.modulation_efficiency))
            trt.append(config.theta_reader + tag.theta_tag)
        amp_rows = np.array(amp_by_tag)[winners]
        sqrt_te_rows = np.array(sqrt_te)[winners]

        # Reflector flutter for all rows at once, from the same draws the
        # scalar reference consumes per read.
        g_re, g_im = self.environment.sample_gammas_rows(z[:, :nz_f])

        # Row-batched channel kernel, grouped by hand presence/template.
        s_re = np.empty(m)
        s_im = np.empty(m)
        detune = np.zeros(m)
        groups: List[Tuple[np.ndarray, Optional[np.ndarray], Optional[HandPose]]] = []
        absent = np.nonzero(~track.present)[0]
        if absent.size:
            groups.append((absent, None, None))
        for k, tmpl in enumerate(track.templates):
            rows = np.nonzero(track.template_idx == k)[0]
            if rows.size:
                groups.append((rows, track.xyz[rows], tmpl))
        for rows, hand_xyz, tmpl in groups:
            amp = amp_rows[rows]
            if tmpl is not None and config.los_occlusion:
                amp = self._occluded_amp(winners[rows], hand_xyz, tmpl)
            sr, si, dt = engine.backscatter_rows(
                winners[rows],
                amp,
                sqrt_te_rows[rows],
                g_re[rows],
                g_im[rows],
                hand_xyz=hand_xyz,
                template=tmpl,
            )
            s_re[rows] = sr
            s_im[rows] = si
            detune[rows] = dt

        # s *= one_way_loss**2 (complex-times-float product expansion).
        l2 = self._one_way_loss**2
        sr2 = s_re * l2 - s_im * 0.0
        si2 = s_re * 0.0 + s_im * l2
        # s *= cmath.exp(-1j * angle): the exponent's real part is +0.0 and
        # its imaginary part is -0.0 + (-1.0) * angle (the -1j product
        # expansion), so the rotation phasor is (cos(im), sin(im)).
        ang = np.array(trt)[winners] + detune
        im = -0.0 + (-1.0) * ang
        rot_c = np.cos(im)
        rot_s = np.sin(im)
        fr = sr2 * rot_c - si2 * rot_s
        fi = sr2 * rot_s + si2 * rot_c

        # Receiver impairments for the whole window at once (hybrid exact
        # vectorization; see ReceiverNoise.observe_many), then a slim scalar
        # pass for the stateful per-tag Doppler fold in time order.
        rsss, phases = self.noise.observe_many(
            fr, fi, z[:, nz_f], z[:, nz_f + 1], z[:, nz_f + 2], z[:, nz_f + 3]
        )
        last = self._last_read
        wl = config.wavelength
        dopps: List[float] = []
        t_l = times.tolist()
        w_l = winners.tolist()
        for w, t, phase in zip(w_l, t_l, phases):
            doppler = 0.0
            prev = last.get(w)
            if prev is not None:
                t_prev, phase_prev = prev
                if t > t_prev:
                    doppler = doppler_estimate_hz(phase, phase_prev, t - t_prev, wl)
            last[w] = (t, phase)
            dopps.append(doppler)

        out.extend_columns(
            times,
            np.array([tags[w].index for w in w_l], dtype=np.int64),
            np.array(phases),
            np.array(rsss),
            np.array(dopps),
            [tags[w].epc for w in w_l],
            antenna_port=config.antenna_port,
        )

    def _occluded_amp(
        self, winners: np.ndarray, hand_xyz: np.ndarray, template: HandPose
    ) -> np.ndarray:
        """Direct amplitudes of LOS reads under their per-read arm occlusion.

        The loss and amplitude expressions are the scalar reference's, row
        by row (the static shadow plus ``occlusion_loss_db``, scaling the
        direct amplitude as ``ChannelModel.resolve_paths`` does):
        :func:`occlusion_loss_db_rows` is exact per row, the adds and the
        product are exact elementwise, and the libm ``db_to_linear`` stays
        in a flat float loop.
        """
        engine = self._engine
        extra = occlusion_loss_db_rows(
            self.antenna.position, engine.tag_positions_np[winners], hand_xyz, template
        )
        static_db = np.array([tag.static_shadow_db for tag in self.array.tags])
        loss_db = static_db[winners] + extra
        factor = [
            math.sqrt(db_to_linear(-loss)) if loss > 0.0 else 1.0
            for loss in loss_db.tolist()
        ]
        return engine.a_direct_np[winners] * np.array(factor)

    def _record_metrics(self, stats, out: ReportLog, n_before: int) -> None:
        """Fold one collect() window into the global metrics registry.

        Runs entirely *after* the inventory loop so the hot path carries no
        per-slot cost; with the registry disabled (the default) this is a
        single flag check.
        """
        metrics = get_metrics()
        if not metrics.enabled:
            return
        metrics.inc("reader.reads", stats.successes)
        metrics.inc("reader.collision_slots", stats.collisions)
        metrics.inc("reader.idle_slots", stats.idles)
        metrics.inc("reader.windows")
        metrics.set_gauge("reader.read_rate_hz", stats.read_rate)
        metrics.observe("reader.slot_efficiency", stats.efficiency)
        per_tag: Dict[int, int] = {}
        for i in range(n_before, len(out)):
            report = out[i]
            per_tag[report.tag_index] = per_tag.get(report.tag_index, 0) + 1
        for count in per_tag.values():
            metrics.observe("reader.reads_per_tag_window", float(count))
        # Tags the MAC never delivered this window (unreadable / shadowed):
        # the paper's "unreadable tags" observable (IV-B.1).
        metrics.inc("reader.unread_tags", len(self.array.tags) - len(per_tag))
        for name, value in self._engine.drain_counters().items():
            metrics.inc(f"channel.{name}", value)

    # ------------------------------------------------------------------
    # Trial-axis collection (many independent windows in lockstep)
    # ------------------------------------------------------------------

    def collect_batch(self, specs: Sequence[CollectSpec]) -> List[LaneCollect]:
        """Run the MAC phase of many independent collect windows in lockstep.

        Each spec becomes a *lane*: its own :class:`RoundBatchInventory`
        over its own RNG, advanced round-by-round in lockstep with every
        other still-active lane.  Per round, readability is resolved with
        **one** :meth:`ChannelEngine.scene_powers_trials` evaluation per
        pose template shared by the active lanes, and the Gen2 outcome
        resolution runs once over the trial axis
        (:class:`TrialAxisInventory`) — this is where the parallel battery
        gets its throughput, since the per-lane numpy dispatch overhead is
        amortised over all concurrent trials.  Both mounts group alike:
        NLOS lanes share the static base, LOS lanes pass their per-pose
        occluded bases (:meth:`_pose_base`) as a ``(T, N)`` stack.

        The per-lane RNG stream order is exactly the solo order: the
        round's ``integers`` draw, then one ``standard_normal(k * nz)``
        block when the round had ``k > 0`` successes, then the next
        round's draw.  Per lane, the returned MAC output (and the
        subsequent :meth:`emit_lane` report log) is bit-identical to a
        solo :meth:`collect` with the same generator state.
        """
        nz = self.environment.flutter_draw_count + 4
        sens_w = self._sensitivity_w()
        lanes: List[LaneCollect] = []
        for spec in specs:
            if spec.duration <= 0.0:
                raise ValueError(f"duration must be positive, got {spec.duration}")
            pose_at, pose_at_many = _pose_clocks(spec.hand_pose_at, spec.pose_at_many)
            rng = spec.rng if spec.rng is not None else self.rng
            inv = RoundBatchInventory(
                rng, start_time=spec.start_time, profile=self.config.link_profile
            )
            lanes.append(LaneCollect(spec, inv, pose_at, pose_at_many))
        if not lanes:
            return lanes
        axis = TrialAxisInventory([lane.inv for lane in lanes])
        tracer = get_tracer()
        los = self.config.los_occlusion
        n_tags = len(self.array.tags)
        with tracer.span("reader.collect_batch", lanes=len(lanes)) as sp:
            rounds = 0
            while True:
                active = [
                    i for i, lane in enumerate(lanes) if lane.inv.clock < lane.end
                ]
                if not active:
                    break
                rounds += 1
                readables: List[Optional[np.ndarray]] = [None] * len(active)
                # Group pose-present lanes by their cached template so one
                # trial-axis channel evaluation covers each group.
                groups: Dict[int, Tuple[tuple, List[int], List[Tuple[float, float, float]]]] = {}
                for k, i in enumerate(active):
                    lane = lanes[i]
                    pose = lane.pose_at(lane.inv.clock)
                    if pose is None:
                        readables[k] = self._readable_arr(None, sens_w)
                        continue
                    entry = self._pose_fast_arrays(pose)
                    group = groups.get(id(entry))
                    if group is None:
                        group = groups[id(entry)] = (entry, [], [])
                    group[1].append(k)
                    p = pose.position
                    group[2].append((p.x, p.y, p.z))
                for entry, members, xyzs in groups.values():
                    offsets, rcs, shadow = entry
                    if len(members) == 1:
                        with tracer.span("channel.batch", tags=n_tags):
                            powers = self._engine.scene_powers(
                                self._pose_base(xyzs[0], offsets),
                                self.config.tx_power_w,
                                self._one_way_loss,
                                xyzs[0],
                                offsets,
                                rcs,
                                shadow,
                            )
                        readables[members[0]] = np.nonzero(powers >= sens_w)[0]
                    else:
                        with tracer.span(
                            "channel.batch", tags=n_tags, lanes=len(members)
                        ):
                            # LOS lanes stack their occluded bases; NLOS
                            # lanes share the static one.
                            base = (
                                np.stack([self._pose_base(xyz, offsets) for xyz in xyzs])
                                if los
                                else self._static_base
                            )
                            powers = self._engine.scene_powers_trials(
                                base,
                                self.config.tx_power_w,
                                self._one_way_loss,
                                np.array(xyzs),
                                offsets,
                                rcs,
                                shadow,
                            )
                        for row, k in enumerate(members):
                            readables[k] = np.nonzero(powers[row] >= sens_w)[0]
                results = axis.step(active, readables)
                for k, i in enumerate(active):
                    rr = results[k]
                    n_success = rr.n_success
                    if n_success:
                        lane = lanes[i]
                        lane.times.append(rr.times)
                        lane.winners.append(rr.winners)
                        lane.z.append(
                            lane.inv._rng.standard_normal(n_success * nz)
                        )
                        lane.n += n_success
            sp.set(rounds=rounds)
        return lanes

    def emit_lane(self, lane: LaneCollect, log: Optional[ReportLog] = None) -> ReportLog:
        """Run one lane's receiver/emit phase; the tail of a solo collect.

        Resets the Doppler history first (lanes are independent trials),
        then replays the lane's accumulated successes through the
        row-batched channel kernel under the same ``reader.collect`` span
        and metrics the solo path records.
        """
        out = log if log is not None else ReportLog()
        n_before = len(out)
        nz_f = self.environment.flutter_draw_count
        nz = nz_f + 4
        self.reset_read_history()
        with get_tracer().span("reader.collect", duration_s=lane.spec.duration) as sp:
            if lane.n:
                times = np.concatenate(lane.times)
                winners = np.concatenate(lane.winners)
                z = np.concatenate(lane.z).reshape(lane.n, nz)
                self._emit_batched(
                    times, winners, z, nz_f, lane.pose_at, lane.pose_at_many, out
                )
            stats = lane.inv.stats
            sp.set(
                reads=stats.successes,
                collisions=stats.collisions,
                idles=stats.idles,
                read_rate_hz=round(stats.read_rate, 1),
            )
        self.last_inventory_stats = stats
        self._record_metrics(stats, out, n_before)
        return out

    def reset_read_history(self) -> None:
        """Forget per-tag last-read state (Doppler baselines).

        The parallel battery runner calls this between independent trials
        so a trial's first Doppler estimate never leaks in from whichever
        trial the worker ran before it.
        """
        self._last_read.clear()

    def collect_static(self, duration: float, start_time: float = 0.0) -> ReportLog:
        """Inventory with no hand in the scene (calibration captures)."""
        return self.collect(duration, hand_pose_at=None, start_time=start_time)
