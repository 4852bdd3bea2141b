"""Differential tests of the component-major point kernels.

`Pose.transform`, `point_distance` and `decomposed_loss` compute on
(..., 3, K) data in place. Each is checked bit for bit against the
row-major formulas they replaced, written out here, on a single pose, on a
batch sharing one (K, 3) point set and on a batch with (N, K, 3) points;
and each must leave its inputs as they were.
"""

import numpy as np
import pytest

from posediff import (
    CameraIntrinsics,
    ChainSpec,
    DenoiserOutput,
    JointConfig,
    Pose,
    apply_update,
    compute_gt_targets,
    decomposed_loss,
    generate_scenarios,
    point_distance,
    sample_points,
)

from conftest import assert_same_bits, random_pose

N = 24


def reference_transform(pose, points):
    return points @ pose.R.swapaxes(-1, -2) + pose.t[..., None, :]


def reference_distance(a, b):
    return np.mean(np.linalg.norm(a - b, axis=-1), axis=-1)


def reference_loss(pose0, pose_t, out, points, intrinsics):
    gt_pts = reference_transform(pose0, points)
    gt = compute_gt_targets(pose_t, pose0, intrinsics)
    terms = [
        reference_distance(
            gt_pts,
            reference_transform(apply_update(pose_t, DenoiserOutput(*fields), intrinsics), points),
        )
        for fields in (
            (out.v_xy, gt.dr6, gt.v_z),
            (gt.v_xy, out.dr6, gt.v_z),
            (gt.v_xy, gt.dr6, out.v_z),
        )
    ]
    return (*terms, terms[0] + terms[1] + terms[2])


def angle_rows(n_joints):
    """Rows of 0, -0.0 and pi at every joint, then random rows: N in all."""
    special = [np.zeros(n_joints), -np.zeros(n_joints), np.full(n_joints, np.pi)]
    rows = np.random.default_rng(31).uniform(-np.pi, np.pi, (N - len(special), n_joints))
    return np.concatenate([special, rows])


@pytest.fixture(params=[1, 9], ids=["per_link=1", "per_link=9"])
def scene(request):
    """Ground-truth and noisy batches of N poses, their cameras, and points:
    one shared (K, 3) set and one (N, K, 3) set per row."""
    chain = ChainSpec()
    scen = list(generate_scenarios(5, N))
    pose0 = Pose.stack([sc.gt_pose for sc in scen])
    rng = np.random.default_rng(request.param)
    pose_t = Pose.stack([random_pose(rng) for _ in range(N)])
    intrinsics = CameraIntrinsics.stack([sc.intrinsics for sc in scen])
    angles = angle_rows(chain.n_joints)
    shared = sample_points(chain, JointConfig(angles[N // 2]), request.param)
    per_row = sample_points(chain, JointConfig(angles), request.param)
    return pose0, pose_t, intrinsics, shared, per_row


def snapshot(*arrays):
    return [a.copy() for a in arrays]


def assert_unchanged(arrays, copies):
    for a, c in zip(arrays, copies):
        assert_same_bits(a, c)


def cases(scene):
    """(name, pose, points): a single pose, a batch with shared points and a
    batch with per-row points."""
    pose0, _, _, shared, per_row = scene
    return [
        ("single", pose0[0], shared),
        ("shared", pose0, shared),
        ("per-row", pose0, per_row),
    ]


class TestTransform:
    def test_matches_row_major_formula(self, scene):
        for _, pose, points in cases(scene):
            inputs = (points, pose.R, pose.t)
            before = snapshot(*inputs)
            assert_same_bits(pose.transform(points), reference_transform(pose, points))
            assert_unchanged(inputs, before)

    def test_result_is_a_fresh_array_callers_may_overwrite(self, scene):
        for _, pose, points in cases(scene):
            inputs = (points, pose.R, pose.t)
            before = snapshot(*inputs)
            out = pose.transform(points)
            out *= -1.0
            out -= 1.0
            assert_unchanged(inputs, before)
            assert_same_bits(pose.transform(points), reference_transform(pose, points))

    def test_single_pose_over_a_batch_of_point_sets(self, scene):
        pose0, _, _, _, per_row = scene
        assert_same_bits(pose0[3].transform(per_row), reference_transform(pose0[3], per_row))


class TestPointDistance:
    def test_matches_norm_formula(self, scene):
        _, pose_t, *_ = scene
        for name, pose, points in cases(scene):
            other = pose_t[0] if name == "single" else pose_t
            inputs = (points, pose.R, pose.t, other.R, other.t)
            before = snapshot(*inputs)
            want = reference_distance(
                reference_transform(pose, points), reference_transform(other, points)
            )
            assert_same_bits(point_distance(pose, other, points), want)
            assert_unchanged(inputs, before)

    def test_single_pose_against_a_batch_broadcasts(self, scene):
        pose0, pose_t, _, shared, _ = scene
        single = pose_t[7]
        for a, b in ((single, pose0), (pose0, single)):
            inputs = (shared, a.R, a.t, b.R, b.t)
            before = snapshot(*inputs)
            got = point_distance(a, b, shared)
            assert got.shape == (N,)
            want = reference_distance(
                reference_transform(a, shared), reference_transform(b, shared)
            )
            assert_same_bits(got, want)
            assert_unchanged(inputs, before)
        rows = point_distance(single, pose0, shared)
        for i in range(N):
            assert_same_bits(rows[i], point_distance(single, pose0[i], shared))


class TestDecomposedLoss:
    @pytest.mark.parametrize("noise", [0.0, 0.05], ids=["exact", "noisy"])
    def test_matches_row_major_formula(self, scene, noise):
        pose0, pose_t, intrinsics, shared, per_row = scene
        gt = compute_gt_targets(pose_t, pose0, intrinsics)
        z = np.random.default_rng(17).standard_normal((N, 9))
        out = DenoiserOutput(
            gt.v_xy + 40.0 * noise * z[:, :2],
            gt.dr6 + noise * z[:, 2:8],
            gt.v_z * (1.0 + noise * z[:, 8]),
        )
        for rows, points in ((0, shared), (slice(None), shared), (slice(None), per_row)):
            a, b, k = pose0[rows], pose_t[rows], intrinsics[rows]
            o = DenoiserOutput(out.v_xy[rows], out.dr6[rows], out.v_z[rows])
            inputs = (points, a.R, a.t, b.R, b.t, o.v_xy, o.dr6, o.v_z)
            before = snapshot(*inputs)
            got = decomposed_loss(a, b, o, points, k)
            want = reference_loss(a, b, o, points, k)
            for g, w in zip(got, want):
                assert_same_bits(g, w)
            assert_unchanged(inputs, before)
