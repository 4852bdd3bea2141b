"""Tests for pose/camera primitives: Gram-Schmidt, projection, frustum, intrinsics."""

import numpy as np
import pytest

from posediff import (
    CameraIntrinsics,
    Pose,
    gram_schmidt_6d,
    in_frustum,
    project_point,
    project_points,
)
from posediff.errors import BehindCamera, DegenerateRotation6D, EmptyPointSet


def reference_gram_schmidt(r6):
    """Independent scalar re-derivation used as the test oracle."""
    r1, r2 = np.array(r6[:3], float), np.array(r6[3:], float)
    u1 = r1 / np.sqrt(r1 @ r1)
    v2 = r2 - (r2 @ u1) * u1
    u2 = v2 / np.sqrt(v2 @ v2)
    u3 = np.array([
        u1[1] * u2[2] - u1[2] * u2[1],
        u1[2] * u2[0] - u1[0] * u2[2],
        u1[0] * u2[1] - u1[1] * u2[0],
    ])
    return np.column_stack([u1, u2, u3])


class TestGramSchmidt:
    def test_identity_columns(self):
        R = gram_schmidt_6d([1, 0, 0, 0, 1, 0])
        np.testing.assert_array_equal(R, np.eye(3))

    def test_scaling_is_normalized_away(self):
        R = gram_schmidt_6d([2, 0, 0, 0, 3, 0])
        np.testing.assert_allclose(R, np.eye(3), atol=1e-15)

    def test_random_inputs_land_in_so3(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            r6 = rng.standard_normal(6)
            R = gram_schmidt_6d(r6)
            assert np.abs(R.T @ R - np.eye(3)).max() < 1e-12
            assert abs(np.linalg.det(R) - 1.0) < 1e-12
            np.testing.assert_allclose(R, reference_gram_schmidt(r6), atol=1e-12)

    def test_idempotent_on_extracted_columns(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            R = gram_schmidt_6d(rng.standard_normal(6))
            r6 = np.concatenate([R[:, 0], R[:, 1]])
            np.testing.assert_allclose(gram_schmidt_6d(r6), R, atol=1e-12)

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(3)
        batch = rng.standard_normal((20, 6))
        Rs = gram_schmidt_6d(batch)
        assert Rs.shape == (20, 3, 3)
        for i in range(20):
            np.testing.assert_allclose(Rs[i], gram_schmidt_6d(batch[i]), atol=0)

    def test_zero_first_column_raises(self):
        with pytest.raises(DegenerateRotation6D, match="first column"):
            gram_schmidt_6d([0, 0, 0, 0, 1, 0])

    def test_collinear_columns_raise(self):
        with pytest.raises(DegenerateRotation6D, match="collinear"):
            gram_schmidt_6d([1, 0, 0, 2, 0, 0])

    def test_tiny_but_legal_norms_pass(self):
        R = gram_schmidt_6d([1e-7, 0, 0, 0, 1e-7, 0])
        np.testing.assert_allclose(R, np.eye(3), atol=1e-12)


class TestProjectPoint:
    def test_optical_axis_hits_principal_point(self, intrinsics):
        np.testing.assert_allclose(
            project_point([0, 0, 1.5], intrinsics), [320.0, 240.0]
        )

    def test_hand_computed_pixel(self, intrinsics):
        # u = 600 * 0.64 / 1.2 + 320 = 640
        u, v = project_point([0.64, 0.0, 1.2], intrinsics)
        assert u == pytest.approx(640.0, abs=1e-12)
        assert v == pytest.approx(240.0, abs=1e-12)

    def test_behind_camera_raises(self, intrinsics):
        with pytest.raises(BehindCamera):
            project_point([0, 0, -1.0], intrinsics)
        with pytest.raises(BehindCamera):
            project_point([0.1, 0.1, 0.0], intrinsics)

    def test_depth_scale_covariance(self, intrinsics):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.2, 3)])
            base = project_point(p, intrinsics)
            for lam in (0.5, 2.0, 3.7):
                np.testing.assert_allclose(project_point(lam * p, intrinsics), base, atol=1e-12)

    def test_batch_matches_scalar(self, intrinsics):
        rng = np.random.default_rng(6)
        pts = np.column_stack([
            rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10), rng.uniform(0.2, 3, 10)
        ])
        uv = project_points(pts, intrinsics)
        for i in range(10):
            np.testing.assert_allclose(uv[i], project_point(pts[i], intrinsics), atol=0)

    def test_empty_batch_raises(self, intrinsics):
        with pytest.raises(EmptyPointSet):
            project_points(np.zeros((0, 3)), intrinsics)


class TestInFrustum:
    def test_centered_pose_inside(self, intrinsics):
        assert in_frustum(Pose(np.eye(3), [0, 0, 1.5]), intrinsics, margin=0.0)

    def test_far_lateral_pose_outside(self, intrinsics):
        # projects to 600*10/1.5 + 320 = 4320 px, far beyond 640
        assert not in_frustum(Pose(np.eye(3), [10, 0, 1.5]), intrinsics)

    def test_behind_camera_is_false_not_error(self, intrinsics):
        assert not in_frustum(Pose(np.eye(3), [0, 0, -1.0]), intrinsics)

    def test_depth_range_enforced(self, intrinsics):
        assert not in_frustum(Pose(np.eye(3), [0, 0, 5.0]), intrinsics, z_range=(0.3, 3.0))
        assert not in_frustum(Pose(np.eye(3), [0, 0, 0.1]), intrinsics, z_range=(0.3, 3.0))
        assert in_frustum(Pose(np.eye(3), [0, 0, 3.0]), intrinsics, z_range=(0.3, 3.0))

    def test_margin_boundary_counts_as_inside(self, intrinsics):
        # translation whose normalized x sits exactly on the 0.45 bound
        margin = 0.05
        tz = 1.5
        tx = 0.45 * intrinsics.w * tz / intrinsics.f
        assert in_frustum(Pose(np.eye(3), [tx, 0, tz]), intrinsics, margin=margin)
        tx_out = 0.47 * intrinsics.w * tz / intrinsics.f
        assert not in_frustum(Pose(np.eye(3), [tx_out, 0, tz]), intrinsics, margin=margin)


class TestCameraIntrinsics:
    def test_principal_point_is_the_image_center(self):
        K = CameraIntrinsics(f=500.0, w=1280, h=720)
        assert (K.cx, K.cy) == (640.0, 360.0)
        batch = CameraIntrinsics.stack([K, CameraIntrinsics(f=400.0, w=640, h=480)])
        np.testing.assert_array_equal(batch.cx, [640.0, 320.0])
        np.testing.assert_array_equal(batch[1:].cy, [240.0])

    def test_principal_point_cannot_be_set(self):
        with pytest.raises(TypeError):
            CameraIntrinsics(600.0, 640, 480, cx=0.0)


class TestPose:
    def test_matrix_layout(self, make_pose):
        pose = make_pose(np.random.default_rng(1))
        H = pose.matrix()
        np.testing.assert_array_equal(H[:3, :3], pose.R)
        np.testing.assert_array_equal(H[:3, 3], pose.t)
        np.testing.assert_array_equal(H[3], [0, 0, 0, 1])

    def test_validate_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            Pose(2 * np.eye(3), [0, 0, 1]).validate()

    def test_rot6_roundtrip(self, make_pose):
        pose = make_pose(np.random.default_rng(2))
        np.testing.assert_allclose(gram_schmidt_6d(pose.rot6()), pose.R, atol=1e-12)
