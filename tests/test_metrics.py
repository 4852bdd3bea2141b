"""Tests for ADD/AUC metrics and scenario generation."""

import numpy as np
import pytest

from posediff import (
    ScenarioRanges,
    add_metric,
    auc,
    forward_kinematics,
    generate_scenarios,
    in_frustum,
    make_observation,
    point_distance,
)
from posediff.errors import EmptyPointSet, InvalidRange

from conftest import random_pose


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


class TestAddMetric:
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
        with pytest.raises(EmptyPointSet):
            add_metric(pose, pose, np.zeros((0, 3)))


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
        assert abs(auc(adds, n_thresholds=2000) - auc(adds, n_thresholds=4000)) < 0.01

    def test_non_finite_adds_never_succeed(self):
        assert auc([0.0, float("inf")]) == pytest.approx(50.0, abs=0.1)
        assert auc([float("nan")]) == 0.0

    def test_bad_inputs_raise(self):
        with pytest.raises(EmptyPointSet):
            auc([])
        with pytest.raises(InvalidRange):
            auc([0.1], n_thresholds=1)
        with pytest.raises(InvalidRange):
            auc([0.1], t_min=0.2, t_max=0.1)


class TestGenerateScenarios:
    def test_every_pose_in_frustum(self, norm_cfg):
        scen = generate_scenarios(123, 500, cfg=norm_cfg)
        for sc in scen:
            assert in_frustum(
                sc.gt_pose, sc.intrinsics, margin=0.05,
                z_range=(norm_cfg.z_min, norm_cfg.z_max),
            )

    def test_same_seed_identical(self):
        a = generate_scenarios(9, 20)
        b = generate_scenarios(9, 20)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.gt_pose.R, sb.gt_pose.R)
            np.testing.assert_array_equal(sa.gt_pose.t, sb.gt_pose.t)
            np.testing.assert_array_equal(sa.joints.angles, sb.joints.angles)
            assert (sa.intrinsics.f, sa.intrinsics.w) == (sb.intrinsics.f, sb.intrinsics.w)

    def test_count_independent_prefix(self):
        # scenario i only depends on (seed, i), not on the total count
        a = generate_scenarios(9, 5)
        b = generate_scenarios(9, 20)
        np.testing.assert_array_equal(
            a.scenarios[3].gt_pose.t, b.scenarios[3].gt_pose.t
        )

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
            assert sc.gt_pose.rotation_error() < 1e-12

    def test_intrinsics_within_ranges(self):
        ranges = ScenarioRanges()
        for sc in generate_scenarios(19, 200, ranges):
            assert ranges.f_range[0] <= sc.intrinsics.f <= ranges.f_range[1]
            assert (sc.intrinsics.w, sc.intrinsics.h) in ranges.image_sizes

    def test_bad_ranges_raise(self):
        with pytest.raises(InvalidRange):
            generate_scenarios(0, 0)
        with pytest.raises(InvalidRange):
            ScenarioRanges(f_range=(900.0, 400.0))
        with pytest.raises(InvalidRange):
            ScenarioRanges(margin=0.5)


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

