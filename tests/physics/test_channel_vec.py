"""Cross-check suite: vectorized ChannelEngine vs the scalar ChannelModel.

The engine's contract (see DESIGN.md) has two paths:

* readability (``scene_powers`` / ``scene_powers_trials``) repeats the
  whole-population batch reference (``channel_oracles.one_way_batch``)
  bit for bit, and that reference matches the scalar model to <= 1e-9
  *relative* error on arbitrary geometries;
* the per-read kernel (``backscatter_rows``) matches
  ``ChannelModel.roundtrip`` on the row's fluttered images to <= 1e-12
  relative error; the reports built from it are exact (the golden log
  tests in ``tests/rfid``).

Geometries here are randomized (antenna pose, tag grid, reflector images,
hand/arm scatterers) so the checks are property tests, not goldens.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.physics.antenna import ReaderAntenna
from repro.physics.channel import ChannelModel, Scatterer, detuning_phase_rad
from repro.physics.channel_vec import ChannelEngine
from repro.physics.geometry import Vec3
from repro.physics.hand import (
    HandPose,
    SightLines,
    occlusion_loss_db_batch,
    occlusion_loss_db_rows,
)
from repro.units import db_to_linear

from .channel_oracles import incident_power_batch, one_way_batch, roundtrip_batch
from .read_oracles import occlusion_loss_db

WAVELENGTH = 0.327  # ~915 MHz


def random_case(rng: np.random.Generator):
    """One random deployment: antenna, tags, reflector images, scatterers."""
    antenna = ReaderAntenna(
        position=Vec3(*rng.uniform(-0.5, 0.5, 3) + np.array([0.0, 0.0, -0.4])),
        boresight=Vec3(*rng.uniform(-0.3, 0.3, 3) + np.array([0.0, 0.0, 1.0])),
        gain_dbi=float(rng.uniform(4.0, 9.0)),
    )
    n_tags = int(rng.integers(1, 26))
    tag_positions = [
        Vec3(float(x), float(y), float(z))
        for x, y, z in rng.uniform(-0.2, 0.2, (n_tags, 3))
    ]
    tag_gains = [float(g) for g in rng.uniform(0.5, 2.0, n_tags)]
    n_img = int(rng.integers(0, 4))
    images = [
        (
            Vec3(*rng.uniform(-3.0, 3.0, 3)),
            complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)),
        )
        for _ in range(n_img)
    ]
    n_sc = int(rng.integers(0, 5))
    scatterers = [
        Scatterer(
            position=Vec3(*rng.uniform(-0.3, 0.3, 3) + np.array([0.0, 0.0, 0.05])),
            rcs_m2=float(rng.uniform(0.001, 0.01)),
            shadow_depth_db=float(rng.choice([0.0, 12.0])),
        )
        for _ in range(n_sc)
    ]
    loss_db = float(rng.choice([0.0, 3.5]))
    return antenna, tag_positions, tag_gains, images, scatterers, loss_db


def build_pair(antenna, tag_positions, tag_gains, images):
    model = ChannelModel(antenna, WAVELENGTH, images)
    engine = ChannelEngine(antenna, WAVELENGTH, tag_positions, tag_gains, images)
    return model, engine


def rel_err(a: complex, b: complex) -> float:
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


class TestBatchCrossCheck:
    def test_one_way_batch_matches_scalar_model(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            antenna, tags, gains, images, scs, loss = random_case(rng)
            model, engine = build_pair(antenna, tags, gains, images)
            g_batch = one_way_batch(engine, scs, direct_extra_loss_db=loss)
            for i, (pos, gt) in enumerate(zip(tags, gains)):
                g_ref = model.one_way(pos, gt, scs, loss)
                assert rel_err(g_batch[i], g_ref) <= 1e-9

    def test_roundtrip_batch_matches_scalar_model(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            antenna, tags, gains, images, scs, loss = random_case(rng)
            model, engine = build_pair(antenna, tags, gains, images)
            s_batch = roundtrip_batch(
                engine, 1.0, 0.25, scs, direct_extra_loss_db=loss
            )
            for i, (pos, gt) in enumerate(zip(tags, gains)):
                s_ref = model.roundtrip(1.0, pos, gt, 0.25, scs, loss)
                assert rel_err(s_batch[i], s_ref) <= 1e-9

    def test_incident_power_batch_matches_scalar_model(self):
        rng = np.random.default_rng(99)
        antenna, tags, gains, images, scs, loss = random_case(rng)
        model, engine = build_pair(antenna, tags, gains, images)
        p_batch = incident_power_batch(engine, 2.0, scs, loss)
        for i, (pos, gt) in enumerate(zip(tags, gains)):
            p_ref = model.incident_power(2.0, pos, gt, scs, loss)
            assert p_batch[i] == pytest.approx(p_ref, rel=1e-9)

    def test_gamma_override_matches_reconstructed_model(self):
        # Flutter-perturbed coefficients: the engine takes them as a call
        # argument; the scalar model bakes them into reflector_images.
        rng = np.random.default_rng(5)
        for _ in range(10):
            antenna, tags, gains, images, scs, loss = random_case(rng)
            if not images:
                continue
            _, engine = build_pair(antenna, tags, gains, images)
            gammas = [
                complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
                for _ in images
            ]
            perturbed = [(pos, g) for (pos, _), g in zip(images, gammas)]
            model = ChannelModel(antenna, WAVELENGTH, perturbed)
            g_batch = one_way_batch(engine, scs, loss, gammas=gammas)
            for i, (pos, gt) in enumerate(zip(tags, gains)):
                assert rel_err(g_batch[i], model.one_way(pos, gt, scs, loss)) <= 1e-9

    def test_static_base_cache_is_coherent(self):
        # one_way_batch(base=static_base(L)) must equal the uncached
        # evaluation with the same static loss — bitwise, it is the same
        # arithmetic on the same cached arrays.
        rng = np.random.default_rng(13)
        antenna, tags, gains, images, scs, loss = random_case(rng)
        _, engine = build_pair(antenna, tags, gains, images)
        base = engine.static_base(loss)
        via_base = one_way_batch(engine, scs, base=base)
        direct = one_way_batch(engine, scs, direct_extra_loss_db=loss)
        assert np.array_equal(via_base, direct)


def _per_point_occlusion(antenna_position, tag_positions, pose):
    """The readability-tier occlusion one body point at a time: the
    bit-for-bit oracle for the ``(S, N)`` kernel."""
    n = tag_positions.shape[0]
    a = np.array(antenna_position.as_tuple())
    ab = tag_positions - a
    denom = np.einsum("ij,ij->i", ab, ab)
    total = np.zeros(n)
    for body_point in [pose.position] + pose.arm_points():
        p = np.array(body_point.as_tuple())
        t = np.divide((p - a) @ ab.T, denom, out=np.zeros(n), where=denom != 0.0)
        t = np.clip(t, 0.0, 1.0)
        closest = a + t[:, None] * ab
        clearance = np.linalg.norm(p - closest, axis=1)
        total += 8.0 * np.exp(-0.5 * (clearance / 0.10) ** 2)
    return total


def _body_xyz(pose):
    """Hand + arm points as the reader places them (hand + offsets, row 0
    assigned)."""
    p = pose.position.as_tuple()
    body = np.array(p) + pose.body_offsets()
    body[0] = p
    return body


def _random_template(rng):
    return HandPose(
        position=Vec3(0.0, 0.0, 0.0),
        arm_direction=Vec3(*(rng.normal(0.0, 0.5, 3) + np.array([0.0, -0.45, 1.0])).tolist()),
        arm_length=float(rng.uniform(0.1, 0.5)),
    )


def _with_position(template, xyz):
    return HandPose(
        position=Vec3(*xyz),
        arm_direction=template.arm_direction,
        arm_length=template.arm_length,
    )


def _segment_t(p, a, b):
    """point_to_segment_distance's unclamped projection (None: zero length)."""
    ab = b - a
    denom = ab.dot(ab)
    return None if denom == 0.0 else (p - a).dot(ab) / denom


class TestOcclusionBatch:
    def test_occlusion_batch_matches_scalar(self):
        rng = np.random.default_rng(21)
        antenna_pos = Vec3(0.0, 0.0, 0.9)
        tags = rng.uniform(-0.2, 0.2, (25, 3))
        lines = SightLines.between(antenna_pos, tags)
        for _ in range(10):
            pose = HandPose(position=Vec3(*rng.uniform(-0.2, 0.2, 3)))
            batch = occlusion_loss_db_batch(lines, _body_xyz(pose))
            for i in range(tags.shape[0]):
                scalar = occlusion_loss_db(antenna_pos, Vec3(*tags[i]), pose)
                assert batch[i] == pytest.approx(scalar, rel=1e-9, abs=1e-12)

    def test_occlusion_none_pose_is_zero(self):
        # No hand in the scene: no body points, no loss.
        tags = np.zeros((4, 3))
        lines = SightLines.between(Vec3(0, 0, 1), tags)
        assert np.array_equal(
            occlusion_loss_db_batch(lines, np.zeros((0, 3))), np.zeros(4)
        )

    def test_body_points_are_the_arm_points(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            pose = _with_position(_random_template(rng), rng.uniform(-0.3, 0.3, 3).tolist())
            body = _body_xyz(pose)
            assert [Vec3(*row) for row in body.tolist()] == [pose.position] + pose.arm_points()

    def test_batch_bit_identical_to_per_point_loop(self):
        rng = np.random.default_rng(33)
        for case in range(60):
            antenna = Vec3(*rng.uniform(-0.4, 0.4, 2).tolist(), float(rng.uniform(0.4, 1.2)))
            tags = rng.uniform(-0.25, 0.25, (int(rng.integers(1, 40)), 3))
            if case % 3 == 0:
                tags[0] = antenna.as_tuple()  # zero-length segment
            lines = SightLines.between(antenna, tags)
            template = _random_template(rng)
            for xyz in rng.uniform([-0.4, -0.4, -0.3], [0.4, 0.4, 1.4], (8, 3)).tolist():
                pose = _with_position(template, xyz)
                got = occlusion_loss_db_batch(lines, _body_xyz(pose))
                want = _per_point_occlusion(antenna, tags, pose)
                assert got.tobytes() == want.tobytes()

    def test_stacked_rows_bit_identical_to_one_pose_calls(self):
        # The reader checks a block of rounds with one (K, S, 3) stack;
        # every row must be the one-pose call's bits, which are the
        # per-point loop's.
        rng = np.random.default_rng(34)
        for case in range(40):
            antenna = Vec3(*rng.uniform(-0.4, 0.4, 2).tolist(), float(rng.uniform(0.4, 1.2)))
            tags = rng.uniform(-0.25, 0.25, (25, 3))
            if case % 4 == 0:
                tags[3] = antenna.as_tuple()  # zero-length segment
            lines = SightLines.between(antenna, tags)
            template = _random_template(rng)
            k = int(rng.integers(1, 65))
            poses = [
                _with_position(template, xyz)
                for xyz in rng.uniform([-0.4, -0.4, -0.3], [0.4, 0.4, 1.4], (k, 3)).tolist()
            ]
            stacked = occlusion_loss_db_batch(lines, np.stack([_body_xyz(p) for p in poses]))
            assert stacked.shape == (k, 25)
            for row, pose in zip(stacked, poses):
                one = occlusion_loss_db_batch(lines, _body_xyz(pose))
                assert row.tobytes() == one.tobytes()
                assert row.tobytes() == _per_point_occlusion(antenna, tags, pose).tobytes()


#: Largest relative error allowed a per-read row kernel against its scalar
#: reference.  Each operation may round differently in the last ulp
#: (~1e-16), and cancellation among the summed rays magnifies that; the
#: cases below reach 1.7e-13.
ROW_RTOL = 1e-12


class TestOcclusionRows:
    def test_rows_match_scalar(self):
        rng = np.random.default_rng(57)
        clamped_low = clamped_high = degenerate = 0
        for case in range(12):
            antenna = Vec3(*rng.uniform(-0.3, 0.3, 2).tolist(), float(rng.uniform(0.5, 1.2)))
            m = 150
            tag_xyz = rng.uniform(-0.2, 0.2, (m, 3))
            tag_xyz[:5] = antenna.as_tuple()  # tags at the antenna: |ab|^2 == 0
            # Body points above the antenna or below the pad clamp t at 0 / 1.
            hand_xyz = rng.uniform([-0.4, -0.4, -0.6], [0.4, 0.4, 1.6], (m, 3))
            template = _random_template(rng)
            rows = occlusion_loss_db_rows(
                SightLines.between(antenna, tag_xyz),
                np.arange(m),
                hand_xyz[:, None, :] + template.body_offsets(),
            )
            assert rows.shape == (m,)
            for i in range(m):
                tag = Vec3(*tag_xyz[i].tolist())
                pose = _with_position(template, hand_xyz[i].tolist())
                assert rows[i] == pytest.approx(
                    occlusion_loss_db(antenna, tag, pose), rel=ROW_RTOL, abs=1e-300
                )
                for point in [pose.position] + pose.arm_points():
                    t = _segment_t(point, antenna, tag)
                    degenerate += t is None
                    clamped_low += t is not None and t < 0.0
                    clamped_high += t is not None and t > 1.0
        assert clamped_low and clamped_high and degenerate

    def test_rows_on_the_line_of_sight(self):
        # Hand sitting on the segment: the scalar's large-loss branch.
        antenna = Vec3(0.0, 0.3, 1.1)
        tag_xyz = np.array([[0.0, 0.0, 0.0], [0.06, -0.06, 0.0]])
        template = HandPose(Vec3(0.0, 0.0, 0.0))
        hand_xyz = np.array([antenna.lerp(Vec3(*t), 0.8).as_tuple() for t in tag_xyz.tolist()])
        rows = occlusion_loss_db_rows(
            SightLines.between(antenna, tag_xyz),
            np.array([0, 1]),
            hand_xyz[:, None, :] + template.body_offsets(),
        )
        for i in range(2):
            pose = _with_position(template, hand_xyz[i].tolist())
            want = occlusion_loss_db(antenna, Vec3(*tag_xyz[i].tolist()), pose)
            assert rows[i] == pytest.approx(want, rel=ROW_RTOL)
            assert rows[i] > 5.0


def _pose_at(template, xyz):
    """``template`` (every HandPose parameter) placed at ``xyz``."""
    return dataclasses.replace(template, position=Vec3(*xyz))


class TestRowKernel:
    """``backscatter_rows`` against one ``ChannelModel`` per row, built on
    that row's fluttered reflector coefficients."""

    def test_rows_match_channel_model_roundtrip(self):
        rng = np.random.default_rng(2718)
        m = 40
        shadow_seen = set()
        detune_seen = set()
        worst_s = worst_detune = 0.0
        for case in range(32):
            antenna, tags, gains, images, _, _ = random_case(rng)
            _, engine = build_pair(antenna, tags, gains, images)
            tag_idx = rng.integers(0, len(tags), m)
            loss = rng.choice([0.0, 3.5, 11.0], m)
            direct_amp = np.array(
                [
                    a * math.sqrt(db_to_linear(-l)) if l > 0.0 else a
                    for a, l in zip(engine.a_direct_np[tag_idx].tolist(), loss.tolist())
                ]
            )
            tx = float(rng.uniform(0.5, 2.0))
            eff = rng.uniform(0.1, 0.4, m)
            sqrt_te = np.array([math.sqrt(tx * e) for e in eff.tolist()])
            g_re = rng.uniform(-0.4, 0.4, (m, len(images)))
            g_im = rng.uniform(-0.4, 0.4, (m, len(images)))
            # A reflector at exactly zero carries no ray.
            g_re[::5] = 0.0
            g_im[::5] = 0.0
            template = hand_xyz = None
            if case % 4:
                template = dataclasses.replace(
                    _random_template(rng),
                    shadow_depth_db=float(rng.choice([0.0, 12.0])),
                    detune_rad=float(rng.choice([0.0, 2.4])),
                )
                shadow_seen.add(template.shadow_depth_db > 0.0)
                detune_seen.add(template.detune_rad != 0.0)
                hand_xyz = rng.uniform(-0.25, 0.25, (m, 3))
                # Degenerate hops: the hand on its row's tag (d2 = 0) and
                # at the antenna (d1 = 0).
                hand_xyz[0] = tags[int(tag_idx[0])].as_tuple()
                hand_xyz[1] = antenna.position.as_tuple()
            s, detune = engine.backscatter_rows(
                tag_idx, direct_amp, sqrt_te, g_re, g_im,
                hand_xyz=hand_xyz, template=template,
            )
            for i in range(m):
                t = int(tag_idx[i])
                model = ChannelModel(
                    antenna,
                    WAVELENGTH,
                    [
                        (pos, complex(g_re[i, j], g_im[i, j]))
                        for j, (pos, _) in enumerate(images)
                    ],
                )
                scs = (
                    []
                    if template is None
                    else _pose_at(template, hand_xyz[i].tolist()).scatterers()
                )
                want = model.roundtrip(
                    tx, tags[t], gains[t], float(eff[i]), scs, float(loss[i])
                )
                worst_s = max(worst_s, rel_err(s[i], want))
                want_detune = detuning_phase_rad(tags[t], scs)
                if want_detune:
                    worst_detune = max(worst_detune, abs(detune[i] / want_detune - 1.0))
                else:
                    assert detune[i] == 0.0
        assert shadow_seen == {True, False} and detune_seen == {True, False}
        assert max(worst_s, worst_detune) <= ROW_RTOL, (
            f"largest relative errors: roundtrip {worst_s:.3g}, detuning {worst_detune:.3g}"
        )


class TestEngineCounters:
    def test_drain_counters_counts_and_resets(self):
        rng = np.random.default_rng(3)
        antenna, tags, gains, images, _, loss = random_case(rng)
        _, engine = build_pair(antenna, tags, gains, images)
        engine.drain_counters()
        engine.scene_powers(engine.static_base(loss), 1.0, 0.9)
        rows = np.array([0, 0, len(tags) - 1])
        no_flutter = np.zeros((3, len(images)))
        engine.backscatter_rows(
            rows, engine.a_direct_np[rows], np.ones(3), no_flutter, no_flutter
        )
        counters = engine.drain_counters()
        assert counters["batch_calls"] == 2
        assert counters["single_calls"] == 3
        assert counters["tags_evaluated"] == len(tags) + 3
        assert engine.drain_counters() == {
            "batch_calls": 0,
            "single_calls": 0,
            "tags_evaluated": 0,
        }


class TestScenePowers:
    def test_bitwise_equals_one_way_batch_under_per_tag_loss(self):
        # The reader's LOS readability: scene_powers over the base built
        # for a per-tag loss must equal the general batch reference.
        rng = np.random.default_rng(408)
        for _ in range(40):
            antenna, tag_positions, tag_gains, images, _, _ = random_case(rng)
            _, engine = build_pair(antenna, tag_positions, tag_gains, images)
            loss = rng.uniform(0.0, 20.0, len(tag_positions))
            pose = _with_position(
                _random_template(rng), rng.uniform(-0.25, 0.25, 3).tolist()
            )
            hand_sc = pose.scatterers(include_arm=False)[0]
            per_point = pose.arm_rcs_m2 / 3
            p = pose.position
            got = engine.scene_powers(
                engine.static_base(loss), 1.3, 0.56, (p.x, p.y, p.z),
                pose.body_offsets(),
                np.array([pose.hand_rcs_m2, per_point, per_point, per_point]),
                (
                    hand_sc.shadow_depth_db,
                    hand_sc.shadow_lateral_scale,
                    hand_sc.shadow_vertical_scale,
                ),
            )
            g = one_way_batch(engine, pose.scatterers(), loss)
            want = 1.3 * np.abs(g * 0.56) ** 2
            assert got.tobytes() == want.tobytes()


class TestScenePowersTrials:
    """Trial-axis readability: every lane row bitwise equals its solo call."""

    def _template(self, rng):
        offsets = np.zeros((4, 3))
        offsets[1:] = rng.uniform(-0.12, 0.12, (3, 3))
        rcs = rng.uniform(0.001, 0.02, 4)
        shadow = (12.0, 0.08, 0.12)
        return offsets, rcs, shadow

    def test_rows_bitwise_equal_solo(self):
        rng = np.random.default_rng(404)
        for _ in range(4):
            antenna, tag_positions, tag_gains, images, _, loss_db = random_case(rng)
            _, engine = build_pair(antenna, tag_positions, tag_gains, images)
            base = engine.static_base(loss_db)
            offsets, rcs, shadow = self._template(rng)
            hand_xyz = rng.uniform(-0.25, 0.25, (6, 3))
            batched = engine.scene_powers_trials(
                base, 1.0, 0.92, hand_xyz, offsets, rcs, shadow
            )
            assert batched.shape == (6, len(tag_positions))
            for t in range(6):
                solo = engine.scene_powers(
                    base, 1.0, 0.92,
                    hand_xyz=tuple(hand_xyz[t].tolist()),
                    offsets=offsets, rcs=rcs, shadow=shadow,
                )
                assert np.array_equal(batched[t], solo)

    def test_stacked_bases_rows_match_solo(self):
        # LOS lanes each carry their own occluded base: a (T, N) stack.
        rng = np.random.default_rng(407)
        for _ in range(40):
            antenna, tag_positions, tag_gains, images, _, _ = random_case(rng)
            _, engine = build_pair(antenna, tag_positions, tag_gains, images)
            n_lanes = int(rng.integers(2, 9))
            bases = [
                engine.static_base(rng.uniform(0.0, 20.0, len(tag_positions)))
                for _ in range(n_lanes)
            ]
            offsets, rcs, shadow = self._template(rng)
            hand_xyz = rng.uniform(-0.25, 0.25, (n_lanes, 3))
            batched = engine.scene_powers_trials(
                np.stack(bases), 1.0, 0.92, hand_xyz, offsets, rcs, shadow
            )
            for t in range(n_lanes):
                solo = engine.scene_powers(
                    bases[t], 1.0, 0.92,
                    hand_xyz=tuple(hand_xyz[t].tolist()),
                    offsets=offsets, rcs=rcs, shadow=shadow,
                )
                assert batched[t].tobytes() == solo.tobytes()

    def test_degenerate_hop_rows_match_solo(self):
        # A lane whose hand sits exactly on the antenna exercises the
        # masked (invalid-hop) path for that lane only; all rows must
        # still equal their solo evaluations.
        rng = np.random.default_rng(405)
        antenna, tag_positions, tag_gains, images, _, _ = random_case(rng)
        _, engine = build_pair(antenna, tag_positions, tag_gains, images)
        base = engine.static_base(0.0)
        offsets, rcs, shadow = self._template(rng)
        hand_xyz = rng.uniform(-0.2, 0.2, (3, 3))
        hand_xyz[1] = (antenna.position.x, antenna.position.y, antenna.position.z)
        batched = engine.scene_powers_trials(
            base, 1.0, 0.9, hand_xyz, offsets, rcs, shadow
        )
        for t in range(3):
            solo = engine.scene_powers(
                base, 1.0, 0.9, hand_xyz=tuple(hand_xyz[t].tolist()),
                offsets=offsets, rcs=rcs, shadow=shadow,
            )
            assert np.array_equal(batched[t], solo)

    def test_counters_advance_lane_equivalently(self):
        rng = np.random.default_rng(406)
        antenna, tag_positions, tag_gains, images, _, _ = random_case(rng)
        _, engine = build_pair(antenna, tag_positions, tag_gains, images)
        base = engine.static_base(0.0)
        offsets, rcs, shadow = self._template(rng)
        engine.drain_counters()
        engine.scene_powers_trials(
            base, 1.0, 0.9, rng.uniform(-0.2, 0.2, (5, 3)), offsets, rcs, shadow
        )
        counters = engine.drain_counters()
        assert counters["batch_calls"] == 5
        assert counters["tags_evaluated"] == 5 * len(tag_positions)
