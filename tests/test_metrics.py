"""Tests for ADD/AUC metrics and scenario generation."""

import numpy as np
import pytest

from posediff import (
    FrustumBox,
    add_metric,
    auc,
    forward_kinematics,
    generate_scenarios,
    in_frustum,
    make_observation,
    normalize,
    point_distance,
)
from posediff.errors import EmptyPointSet, InvalidRange
from posediff.metrics import FOCAL_RANGE, IMAGE_SIZES

from conftest import assert_same_bits, random_pose, rotation_error


def brute_force_auc(adds, t_min=1e-5, t_max=0.1, n=20_001):
    """Dense-grid numeric integration oracle: a literal loop over thresholds."""
    thresholds = np.linspace(t_min, t_max, n)
    adds = np.asarray(adds, dtype=float)
    fractions = [float((adds < tau).mean()) for tau in thresholds]
    return 100.0 * float(np.mean(fractions))


def exact_auc(adds, t_min=1e-5, t_max=0.1):
    """Continuum-limit oracle: per-sample measure of succeeding thresholds."""
    adds = np.asarray(adds, dtype=float)
    covered = t_max - np.clip(adds, t_min, t_max)
    return 100.0 * float(np.mean(covered / (t_max - t_min)))


def reference_add_metric(gt, pred, keypoints):
    """`add_metric`'s own formula before it called `point_distance`, verbatim."""
    pts = np.asarray(keypoints, dtype=float)
    if pts.ndim < 2:
        pts = pts.reshape(-1, 3)
    if pts.shape[-2] == 0:
        raise EmptyPointSet("keypoint list is empty")
    cols = np.swapaxes(pts, -1, -2)
    a = np.swapaxes(gt.R @ cols, -1, -2) + gt.t[..., None, :]
    b = np.swapaxes(pred.R @ cols, -1, -2) + pred.t[..., None, :]
    return np.sqrt(((a - b) ** 2).sum(axis=-1)).mean(axis=-1)


class TestAddMetric:
    def test_matches_its_old_formula_bit_for_bit(self, chain):
        from posediff import JointConfig, Pose

        rng = np.random.default_rng(12)
        n = 40
        gt = Pose.stack([random_pose(rng) for _ in range(n)])
        pred = Pose.stack([random_pose(rng) for _ in range(n)])
        angles = rng.uniform(-np.pi, np.pi, (n, chain.n_joints))
        per_row = forward_kinematics(chain, JointConfig(angles))
        shared = per_row[0].copy()
        # NaN, +-inf and -0.0 rows: in a translation, a rotation and the keypoints.
        for k, value in enumerate((np.nan, np.inf, -np.inf, -0.0)):
            gt.t[k, k % 3] = value
            pred.R[4 + k, (k + 1) % 3, k % 3] = value
            per_row[8 + k, k % len(shared), :] = value
        pred.t[12] = -0.0
        gt.t[12] = -0.0
        cases = [(gt[i], pred[i], shared) for i in range(n)]
        cases += [(gt[i], pred[i], per_row[i]) for i in range(n)]
        cases += [(gt, pred, shared), (gt, pred, per_row), (gt[3], pred[3], shared.ravel())]
        with np.errstate(all="ignore"):  # inf - inf and 0 * inf give NaN
            for a, b, keypoints in cases:
                got, want = add_metric(a, b, keypoints), reference_add_metric(a, b, keypoints)
                assert_same_bits(got, want)
            special = reference_add_metric(gt, pred, per_row)
        assert np.isnan(special).any() and np.isinf(special).any()

    def test_identical_poses(self, chain):
        from posediff import JointConfig

        pose = random_pose(np.random.default_rng(0))
        kp = forward_kinematics(chain, JointConfig.zeros(chain.n_joints))
        assert add_metric(pose, pose, kp) == 0.0

    def test_pure_translation(self, chain):
        from posediff import JointConfig

        pose = random_pose(np.random.default_rng(1))
        moved = pose.copy()
        moved.t = moved.t + [0.01, 0, 0]
        kp = forward_kinematics(chain, JointConfig.zeros(chain.n_joints))
        assert add_metric(pose, moved, kp) == pytest.approx(0.01, rel=1e-12)

    def test_agrees_with_point_distance(self, chain):
        from posediff import JointConfig

        rng = np.random.default_rng(2)
        kp = forward_kinematics(chain, JointConfig.zeros(chain.n_joints))
        for _ in range(100):
            a, b = random_pose(rng), random_pose(rng)
            assert add_metric(a, b, kp) == pytest.approx(
                point_distance(a, b, kp), abs=1e-12
            )

    def test_empty_keypoints_raise(self):
        pose = random_pose(np.random.default_rng(3))
        for keypoints in (np.zeros((0, 3)), np.zeros(0), []):
            with pytest.raises(EmptyPointSet):
                add_metric(pose, pose, keypoints)
            with pytest.raises(EmptyPointSet):
                reference_add_metric(pose, pose, keypoints)


class TestAuc:
    def test_all_zero_is_hundred(self):
        assert auc([0.0] * 10) == 100.0

    def test_all_beyond_range_is_zero(self):
        assert auc([0.2, 0.5, 1.0]) == 0.0

    def test_singleton_midpoint_value(self):
        # frozen from the dense-grid oracle: a 0.05 m singleton scores ~50
        got = auc([0.05])
        assert got == pytest.approx(brute_force_auc([0.05]), abs=0.05)
        assert got == pytest.approx(50.0, abs=0.1)

    def test_matches_brute_force_on_random_lists(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            adds = rng.uniform(0, 0.15, size=rng.integers(1, 50))
            assert auc(adds) == pytest.approx(brute_force_auc(adds), abs=0.05)
            assert auc(adds) == pytest.approx(exact_auc(adds), abs=0.05)

    def test_monotone_under_domination(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            base = rng.uniform(0, 0.12, 40)
            better = base * rng.uniform(0.0, 1.0, 40)
            assert auc(better) >= auc(base)

    def test_grid_refinement_converges(self):
        rng = np.random.default_rng(6)
        adds = rng.uniform(0, 0.12, 500)
        assert abs(auc(adds) - exact_auc(adds)) < 0.01

    def test_non_finite_adds_never_succeed(self):
        assert auc([0.0, float("inf")]) == pytest.approx(50.0, abs=0.1)
        assert auc([float("nan")]) == 0.0

    def test_bad_inputs_raise(self):
        with pytest.raises(EmptyPointSet):
            auc([])


class TestGenerateScenarios:
    def test_every_pose_in_frustum(self, norm_cfg):
        scen = generate_scenarios(123, 500, cfg=norm_cfg)
        for sc in scen:
            assert in_frustum(
                sc.gt_pose, sc.intrinsics, margin=0.05,
                z_range=(norm_cfg.z_min, norm_cfg.z_max),
            )

    def test_translations_lie_in_the_given_box(self, norm_cfg):
        box = FrustumBox.for_config(norm_cfg, 0.3)
        scen = generate_scenarios(11, 300, box, cfg=norm_cfg)
        n = [normalize(sc.gt_pose, sc.intrinsics, norm_cfg) for sc in scen]
        txy = np.array([[p.tx_n, p.ty_n] for p in n])
        tz = np.array([p.tz_n for p in n])
        assert np.abs(txy).max() <= box.xy_bound + 1e-12
        assert np.abs(txy).max() > 0.9 * box.xy_bound  # the draws span the box
        assert box.z_bound[0] - 1e-12 <= tz.min() and tz.max() <= box.z_bound[1] + 1e-12

    def test_same_seed_identical(self):
        a = generate_scenarios(9, 20)
        b = generate_scenarios(9, 20)
        for sa, sb in zip(a, b):
            assert_same_bits(sa.gt_pose.R, sb.gt_pose.R)
            assert_same_bits(sa.gt_pose.t, sb.gt_pose.t)
            assert_same_bits(sa.joints.angles, sb.joints.angles)
            assert (sa.intrinsics.f, sa.intrinsics.w) == (sb.intrinsics.f, sb.intrinsics.w)

    def test_count_independent_prefix(self):
        # scenario i only depends on (seed, i), not on the total count
        a = generate_scenarios(9, 5)
        b = generate_scenarios(9, 20)
        assert_same_bits(a.scenarios[3].gt_pose.t, b.scenarios[3].gt_pose.t)

    def test_orientation_mean_near_zero(self):
        scen = generate_scenarios(17, 4000)
        mean_R = np.mean([sc.gt_pose.R for sc in scen], axis=0)
        assert np.abs(mean_R).max() < 0.05

    def test_orientation_marginal_mean_at_scale(self):
        # the scenario orientation marginal is Gram-Schmidt of a 6D Gaussian;
        # its mean over 1e5 draws vanishes entrywise
        from posediff import gram_schmidt_6d

        rng = np.random.default_rng(20)
        Rs = gram_schmidt_6d(rng.standard_normal((100_000, 6)))
        assert np.abs(Rs.mean(axis=0)).max() < 0.02

    def test_rotations_are_valid(self):
        for sc in generate_scenarios(18, 100):
            assert rotation_error(sc.gt_pose.R) < 1e-12

    def test_intrinsics_within_ranges(self):
        for sc in generate_scenarios(19, 200):
            assert FOCAL_RANGE[0] <= sc.intrinsics.f <= FOCAL_RANGE[1]
            assert (sc.intrinsics.w, sc.intrinsics.h) in IMAGE_SIZES

    def test_bad_ranges_raise(self, norm_cfg):
        with pytest.raises(InvalidRange):
            generate_scenarios(0, 0)
        with pytest.raises(ValueError):
            FrustumBox.for_config(norm_cfg, margin=0.5)


class TestMakeObservation:
    def test_keypoints_match_projection_when_noise_free(self, chain, norm_cfg):
        scen = generate_scenarios(5, 10, cfg=norm_cfg)
        for sc in scen:
            obs = make_observation(sc, chain, 5)
            kp3d = sc.gt_pose.transform(forward_kinematics(chain, sc.joints))
            vis = kp3d[:, 2] > 0
            K = sc.intrinsics
            expect_u = K.f * kp3d[vis, 0] / kp3d[vis, 2] + K.cx
            np.testing.assert_allclose(obs.keypoints_2d[vis, 0], expect_u, atol=1e-9)
            assert np.all(np.isnan(obs.keypoints_2d[~vis]))

