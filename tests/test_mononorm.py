"""Tests for the monocular normalization bijection."""

import numpy as np
import pytest

from posediff import (
    CameraIntrinsics,
    NormalizedPose,
    Pose,
    denormalize,
    normalize,
)
from posediff.errors import DegenerateRotation6D, NonPositiveDepth

from conftest import random_pose


class TestNormalize:
    def test_centered_identity_pose_is_all_zero(self, intrinsics, norm_cfg):
        n = normalize(Pose(np.eye(3), [0, 0, 1.5]), intrinsics, norm_cfg)
        np.testing.assert_array_equal(n.rot6, [1, 0, 0, 0, 1, 0])
        assert (n.tx_n, n.ty_n, n.tz_n) == (0.0, 0.0, 0.0)

    def test_hand_computed_tx(self, intrinsics, norm_cfg):
        # 600 * 0.64 / (640 * 1.2) = 0.5
        n = normalize(Pose(np.eye(3), [0.64, 0, 1.2]), intrinsics, norm_cfg)
        assert n.tx_n == pytest.approx(0.5, abs=1e-15)
        assert n.tz_n == pytest.approx(-0.3, abs=1e-15)

    def test_zero_depth_raises(self, intrinsics, norm_cfg):
        with pytest.raises(NonPositiveDepth):
            normalize(Pose(np.eye(3), [0, 0, 0.0]), intrinsics, norm_cfg)

    def test_rotation_change_leaves_translation_untouched(self, intrinsics, norm_cfg):
        rng = np.random.default_rng(0)
        t = np.array([0.2, -0.1, 1.1])
        base = normalize(Pose(np.eye(3), t), intrinsics, norm_cfg)
        for _ in range(20):
            pose = random_pose(rng)
            pose.t = t
            n = normalize(pose, intrinsics, norm_cfg)
            assert (n.tx_n, n.ty_n, n.tz_n) == (base.tx_n, base.ty_n, base.tz_n)


class TestDenormalize:
    def test_inverse_of_centered_pose(self, intrinsics, norm_cfg):
        pose = denormalize(NormalizedPose([1, 0, 0, 0, 1, 0], 0, 0, 0), intrinsics, norm_cfg)
        np.testing.assert_array_equal(pose.R, np.eye(3))
        np.testing.assert_allclose(pose.t, [0, 0, 1.5])

    def test_hand_computed_translation(self, intrinsics, norm_cfg):
        # tz = -0.3 + 1.5 = 1.2, tx = 640*1.2/600 * 0.5 = 0.64
        pose = denormalize(
            NormalizedPose([1, 0, 0, 0, 1, 0], 0.5, 0.0, -0.3), intrinsics, norm_cfg
        )
        assert pose.t[2] == pytest.approx(1.2, abs=1e-15)
        assert pose.t[0] == pytest.approx(0.64, abs=1e-12)

    def test_non_positive_recovered_depth_raises(self, intrinsics, norm_cfg):
        with pytest.raises(NonPositiveDepth):
            denormalize(NormalizedPose([1, 0, 0, 0, 1, 0], 0, 0, -1.5), intrinsics, norm_cfg)

    def test_degenerate_rotation_propagates(self, intrinsics, norm_cfg):
        with pytest.raises(DegenerateRotation6D):
            denormalize(NormalizedPose([0, 0, 0, 0, 1, 0], 0, 0, 0), intrinsics, norm_cfg)


class TestRoundTrip:
    def test_ten_thousand_random_poses(self, intrinsics, norm_cfg):
        rng = np.random.default_rng(42)
        worst_r, worst_t = 0.0, 0.0
        for _ in range(10_000):
            pose = random_pose(rng, z_range=(norm_cfg.z_min, norm_cfg.z_max))
            back = denormalize(normalize(pose, intrinsics, norm_cfg), intrinsics, norm_cfg)
            worst_r = max(worst_r, float(np.linalg.norm(back.R - pose.R)))
            worst_t = max(worst_t, float(np.linalg.norm(back.t - pose.t)))
        assert worst_r < 1e-9
        assert worst_t < 1e-9

    def test_vector_packing_roundtrip(self):
        vec = np.arange(9.0)
        n = NormalizedPose.from_vector(vec)
        np.testing.assert_array_equal(n.as_vector(), vec)


class TestIntrinsicsInvariance:
    def test_normalized_x_depends_only_on_relative_image_position(self, norm_cfg):
        # place the projection at 0.75*w for several (f, w) pairs: tx_n must agree
        values = []
        for f, w in [(400.0, 640), (600.0, 640), (900.0, 1280), (500.0, 1280)]:
            K = CameraIntrinsics(f=f, w=w, h=480)
            tz = 1.4
            # u = 0.75w  =>  f*tx/tz = 0.25w
            tx = 0.25 * w * tz / f
            n = normalize(Pose(np.eye(3), [tx, 0, tz]), K, norm_cfg)
            values.append(n.tx_n)
        np.testing.assert_allclose(values, 0.25, atol=1e-12)


class TestBatchHelpers:
    def test_batch_agrees_with_scalar(self, intrinsics, norm_cfg):
        rng = np.random.default_rng(11)
        poses = [random_pose(rng) for _ in range(32)]
        batch = normalize(Pose.stack(poses), intrinsics, norm_cfg).as_vector()
        for i, p in enumerate(poses):
            np.testing.assert_allclose(
                batch[i], normalize(p, intrinsics, norm_cfg).as_vector(), atol=0
            )
        back = denormalize(NormalizedPose.from_vector(batch), intrinsics, norm_cfg)
        np.testing.assert_allclose(back.t, np.stack([p.t for p in poses]), atol=1e-12)

    def test_batch_rejects_bad_depths(self, intrinsics, norm_cfg):
        with pytest.raises(NonPositiveDepth):
            normalize(Pose(np.eye(3)[None], np.array([[0, 0, -1.0]])), intrinsics, norm_cfg)
