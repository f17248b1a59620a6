"""The moving hand (and arm) as RF scatterers.

Section III-A.1 of the paper treats the hand as a "powerful virtual
transmitter that generates the reflected signals".  We realise that as one
:class:`~repro.physics.channel.Scatterer` for the hand plus one for the
forearm.  The hand additionally *shadows* tags it hovers over (near-field
blockage) — that blockage is the distinct RSS trough the paper's direction
estimator relies on (section III-B).

The arm matters for the LOS-vs-NLOS result (Table I): with a ceiling
antenna the forearm cuts the reader->tag line of sight for a swath of tags,
injecting noise the paper blames for the lower LOS accuracy.  We model that
as an occlusion loss on the direct path of tags whose line of sight passes
near an arm point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence

import numpy as np

from .channel import Scatterer
from .geometry import Vec3


#: Effective bistatic RCS of a hand at ~920 MHz, m^2.  A hand is a lossy
#: dielectric of ~80 cm^2 cross section; its RCS at UHF is of that order.
HAND_RCS_M2 = 0.003

#: Forearm RCS — larger body, but usually further from the tags.
ARM_RCS_M2 = 0.010

#: Peak near-field blockage the hand causes on a tag directly beneath it.
HAND_SHADOW_DEPTH_DB = 12.0

#: Peak near-field resonance detuning (radians of reflection-phase shift)
#: the hand causes on a tag directly beneath it.  This is the dominant,
#: sharply local phase disturbance — see Scatterer.detune_rad.
HAND_DETUNE_RAD = 2.4

#: Forearm sample points per pose; with the hand, a pose has four body points.
ARM_POINTS = 3

#: Peak direct-path loss one body point causes sitting on a tag's line of
#: sight to the antenna, and the clearance scale it decays over (Gaussian).
OCCLUSION_DEPTH_DB = 8.0
OCCLUSION_FRESNEL_RADIUS_M = 0.10


@dataclass(frozen=True)
class HandPose:
    """The instantaneous pose of the writing hand.

    ``position`` is the fingertip/palm reference point.  ``arm_direction``
    points from the hand back towards the elbow (unit-ish; renormalised),
    so arm sample points are ``position + k * arm_direction``.
    """

    position: Vec3
    #: From the hand back towards the elbow.  Writers keep the forearm
    #: raised well off the pad, so the default climbs steeply in z.
    arm_direction: Vec3 = Vec3(0.0, -0.45, 1.0)
    arm_length: float = 0.30
    hand_rcs_m2: float = HAND_RCS_M2
    arm_rcs_m2: float = ARM_RCS_M2
    shadow_depth_db: float = HAND_SHADOW_DEPTH_DB
    detune_rad: float = HAND_DETUNE_RAD

    def arm_points(self) -> List[Vec3]:
        """Sample points along the forearm (excluding the hand itself)."""
        px, py, pz = self.position.x, self.position.y, self.position.z
        return [
            Vec3(px + ox, py + oy, pz + oz)
            for ox, oy, oz in self.body_offsets()[1:].tolist()
        ]

    def body_offsets(self) -> np.ndarray:
        """``(1 + ARM_POINTS, 3)`` displacements of the body points from the
        hand: row 0 zeros (the hand itself), then ``u * k`` for evenly spaced
        ``k`` along the unit arm direction ``u``.  Every arm point is
        ``position + row``, one float add per component, in the scalar
        (:meth:`arm_points`) and vectorized paths alike.  The position is
        ignored.
        """
        direction = self.arm_direction.normalized()
        ux, uy, uz = direction.x, direction.y, direction.z
        out = np.zeros((1 + ARM_POINTS, 3))
        for row in range(1, ARM_POINTS + 1):
            k = self.arm_length * row / ARM_POINTS
            out[row] = (ux * k, uy * k, uz * k)
        return out

    def scatterers(self, include_arm: bool = True) -> List[Scatterer]:
        """Channel scatterers for this pose.

        The hand carries the near-field shadow; arm points scatter but are
        too far above the plane to shadow tags.
        """
        out = [
            Scatterer(
                position=self.position,
                rcs_m2=self.hand_rcs_m2,
                shadow_depth_db=self.shadow_depth_db,
                detune_rad=self.detune_rad,
            )
        ]
        if include_arm:
            arm_pts = self.arm_points()
            per_point = self.arm_rcs_m2 / max(1, len(arm_pts))
            out.extend(Scatterer(position=p, rcs_m2=per_point) for p in arm_pts)
        return out


@dataclass
class PoseTrack:
    """A batch of hand poses sampled at many timestamps, column-wise.

    The batched reader path asks the motion layer for all of a window's
    success-slot poses in one call (``WritingScript.pose_at_many``); the
    result is this struct-of-arrays: positions for the rows where a hand is
    present, plus the pose *parameters* (arm geometry, RCS, shadow/detune
    strengths) factored into shared templates.  Almost every producer uses
    a single template — the per-row ``template_idx`` only matters for
    ad-hoc pose callables that vary parameters over time.
    """

    times: np.ndarray         # (M,) sample times, seconds
    present: np.ndarray       # (M,) bool: hand in the scene at times[i]
    xyz: np.ndarray           # (M, 3) hand positions; rows with ~present are undefined
    templates: List[HandPose]  # shared parameter sets; positions ignored
    template_idx: np.ndarray  # (M,) int index into templates; -1 where absent

    @classmethod
    def from_poses(
        cls, times: np.ndarray, poses: "Sequence[HandPose | None]"
    ) -> "PoseTrack":
        """Columnize scalar ``hand_pose_at`` results (the fallback when a
        pose source has no vectorized ``pose_at_many``)."""
        times = np.asarray(times, dtype=float)
        m = times.size
        present = np.zeros(m, dtype=bool)
        xyz = np.zeros((m, 3))
        templates: List[HandPose] = []
        template_idx = np.full(m, -1, dtype=np.int64)
        keymap: dict = {}
        for i, pose in enumerate(poses):
            if pose is None:
                continue
            present[i] = True
            p = pose.position
            xyz[i, 0] = p.x
            xyz[i, 1] = p.y
            xyz[i, 2] = p.z
            key = (
                pose.arm_direction.x, pose.arm_direction.y, pose.arm_direction.z,
                pose.arm_length, pose.hand_rcs_m2, pose.arm_rcs_m2,
                pose.shadow_depth_db, pose.detune_rad,
            )
            k = keymap.get(key)
            if k is None:
                k = keymap[key] = len(templates)
                templates.append(pose)
            template_idx[i] = k
        return cls(times, present, xyz, templates, template_idx)

    def pose_at(self, i: int) -> "HandPose | None":
        """Reconstruct row ``i`` as a scalar :class:`HandPose`, for checks
        against the scalar pose clock; the batched reader reads the columns
        and templates directly, LOS occlusion included."""
        if not self.present[i]:
            return None
        tmpl = self.templates[int(self.template_idx[i])]
        return HandPose(
            position=Vec3(
                float(self.xyz[i, 0]), float(self.xyz[i, 1]), float(self.xyz[i, 2])
            ),
            arm_direction=tmpl.arm_direction,
            arm_length=tmpl.arm_length,
            hand_rcs_m2=tmpl.hand_rcs_m2,
            arm_rcs_m2=tmpl.arm_rcs_m2,
            shadow_depth_db=tmpl.shadow_depth_db,
            detune_rad=tmpl.detune_rad,
        )


def point_to_segment_distance(p: Vec3, a: Vec3, b: Vec3) -> float:
    """Shortest distance from point ``p`` to segment ``ab``."""
    ab = b - a
    denom = ab.dot(ab)
    if denom == 0.0:
        return p.distance_to(a)
    t = (p - a).dot(ab) / denom
    t = max(0.0, min(1.0, t))
    return p.distance_to(a + ab * t)


def occlusion_loss_db(
    antenna_position: Vec3,
    tag_position: Vec3,
    pose: "HandPose | None",
) -> float:
    """Direct-path loss (dB) when the hand/arm cuts the reader-tag LOS.

    Loss is maximal (:data:`OCCLUSION_DEPTH_DB` per body point) when a body
    point sits on the antenna->tag segment and decays as a Gaussian of its
    clearance relative to :data:`OCCLUSION_FRESNEL_RADIUS_M`.  Returns 0 for
    ``pose is None`` (no hand in the scene).  The scalar reference for the
    two vectorized forms below.
    """
    if pose is None:
        return 0.0
    total = 0.0
    for body_point in [pose.position] + pose.arm_points():
        clearance = point_to_segment_distance(body_point, antenna_position, tag_position)
        total += OCCLUSION_DEPTH_DB * math.exp(
            -0.5 * (clearance / OCCLUSION_FRESNEL_RADIUS_M) ** 2
        )
    return total


class SightLines(NamedTuple):
    """The antenna->tag segments occlusion is measured against.

    Static while a deployment stands, so a reader builds them once and
    every readability check moves only the body points.
    """

    antenna: np.ndarray  # (3,) antenna position
    ab: np.ndarray       # (N, 3) antenna -> tag vectors
    ab_sq: np.ndarray    # (N,) |ab|^2

    @classmethod
    def between(cls, antenna_position: Vec3, tag_positions: np.ndarray) -> "SightLines":
        a = np.array(antenna_position.as_tuple())
        ab = tag_positions - a
        return cls(a, ab, np.einsum("ij,ij->i", ab, ab))


def occlusion_loss_db_batch(lines: SightLines, body_xyz: np.ndarray) -> np.ndarray:
    """:func:`occlusion_loss_db` of every tag for a stack of body-point sets
    — the readability tier.

    ``body_xyz`` is one pose's ``(S, 3)`` body points (the hand and its arm
    points), giving ``(N,)`` losses, or a ``(K, S, 3)`` stack of K poses,
    giving ``(K, N)``; each row of a stack is bit-equal to its one-pose
    call.  Everything runs elementwise over the stack except the
    projection onto the segments, which stays one ``(1, 3) @ (3, N)``
    product per point (numpy runs the same BLAS call for each point of a
    stacked matmul): a single ``(S, 3) @ (3, N)`` matmul takes another
    BLAS kernel whose rounding differs.  Matches the scalar function to
    floating-point noise (not bit-for-bit: numpy's ``exp`` and norm are
    not libm's).  No body points (no hand) means no loss.
    """
    a, ab, ab_sq = lines
    proj = ((body_xyz - a)[..., None, :] @ ab.T)[..., 0, :]
    t = np.divide(proj, ab_sq, out=np.zeros_like(proj), where=ab_sq != 0.0)
    t = np.minimum(np.maximum(t, 0.0), 1.0)  # np.clip, without its wrapper
    d = body_xyz[..., None, :] - (a + t[..., None] * ab)
    # np.linalg.norm(d, axis=-1) for real input, without its wrapper.
    clearance = np.sqrt(np.add.reduce(d * d, axis=-1))
    loss = OCCLUSION_DEPTH_DB * np.exp(
        -0.5 * (clearance / OCCLUSION_FRESNEL_RADIUS_M) ** 2
    )
    # A reduction over the points' axis (not the contiguous one) adds their
    # rows in order, as a running ``total += loss`` would (pairwise
    # summation applies only along the contiguous axis).
    return loss.sum(axis=-2)


def occlusion_loss_db_rows(
    antenna_position: Vec3,
    tag_xyz: np.ndarray,
    hand_xyz: np.ndarray,
    template: HandPose,
) -> np.ndarray:
    """Per-read :func:`occlusion_loss_db`, bit-identical row by row.

    Row ``i`` is the loss on the antenna -> ``tag_xyz[i]`` segment with the
    hand at ``hand_xyz[i]`` in ``template``'s arm geometry (its position is
    ignored).  The ``Vec3`` arithmetic runs elementwise in the scalar
    operator order — subtract, dot as ``x*x + y*y + z*z``, clamp, sqrt —
    and the libm terms (``** 2``, ``exp``) stay in a flat float loop, as in
    ``ChannelEngine.backscatter_rows``.
    """
    ax, ay, az = antenna_position.x, antenna_position.y, antenna_position.z
    abx = tag_xyz[:, 0] - ax
    aby = tag_xyz[:, 1] - ay
    abz = tag_xyz[:, 2] - az
    denom = abx * abx + aby * aby + abz * abz
    degenerate = denom == 0.0
    any_degenerate = bool(degenerate.any())
    if any_degenerate:
        denom = np.where(degenerate, 1.0, denom)
    hx, hy, hz = hand_xyz[:, 0], hand_xyz[:, 1], hand_xyz[:, 2]
    # The hand itself, then position + u*k per arm point (as arm_points).
    points = [(hx, hy, hz)] + [
        (hx + ox, hy + oy, hz + oz) for ox, oy, oz in template.body_offsets()[1:].tolist()
    ]
    clearances = []
    for px, py, pz in points:
        pax = px - ax
        pay = py - ay
        paz = pz - az
        t = (pax * abx + pay * aby + paz * abz) / denom
        t = np.where(t < 1.0, t, 1.0)  # min(1.0, t)
        t = np.where(t > 0.0, t, 0.0)  # max(0.0, ...)
        dx = px - (ax + abx * t)
        dy = py - (ay + aby * t)
        dz = pz - (az + abz * t)
        clearance = np.sqrt(dx * dx + dy * dy + dz * dz)
        if any_degenerate:
            # A zero-length segment: the distance to the antenna itself.
            clearance = np.where(
                degenerate, np.sqrt(pax * pax + pay * pay + paz * paz), clearance
            )
        clearances.append(clearance.tolist())
    out = []
    for row in zip(*clearances):
        total = 0.0
        for clearance in row:
            total += OCCLUSION_DEPTH_DB * math.exp(
                -0.5 * (clearance / OCCLUSION_FRESNEL_RADIUS_M) ** 2
            )
        out.append(total)
    return np.array(out)


def hand_height_profile(speed: float) -> float:
    """Nominal hover height (m) above the plane while writing.

    The paper's accuracy holds for hand-to-plane distances within ~5 cm
    (section VI).  Faster writers tend to drift slightly higher.
    """
    base = 0.03
    return base + 0.01 * max(0.0, speed - 0.3)
