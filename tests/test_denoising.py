"""Tests for the denoiser contract: update, targets, loss, oracles."""

import numpy as np
import pytest

from posediff import (
    BiasedOracle,
    DenoiserOutput,
    FrustumBox,
    NoiseScales,
    NoisyOracle,
    PerfectOracle,
    apply_update,
    compute_gt_targets,
    decomposed_loss,
    denoise,
    diffuse,
    forward_kinematics,
    generate_scenarios,
    make_observation,
    parse_denoiser,
    point_distance,
    sample_points,
)
from posediff.errors import EmptyPointSet, NonPositiveDepth

from conftest import random_pose


class TestApplyUpdate:
    def test_identity_output_is_fixed_point(self, intrinsics):
        pose = random_pose(np.random.default_rng(0))
        out = apply_update(pose, DenoiserOutput.identity(), intrinsics)
        np.testing.assert_allclose(out.R, pose.R, atol=1e-15)
        np.testing.assert_allclose(out.t, pose.t, atol=1e-15)

    def test_depth_ratio_multiplies(self, intrinsics):
        pose = random_pose(np.random.default_rng(1))
        out = apply_update(
            pose, DenoiserOutput(np.zeros(2), [1, 0, 0, 0, 1, 0], 2.0), intrinsics
        )
        assert out.t[2] == pytest.approx(2.0 * pose.t[2], rel=1e-15)

    def test_non_positive_vz_raises(self, intrinsics):
        pose = random_pose(np.random.default_rng(2))
        with pytest.raises(NonPositiveDepth):
            apply_update(pose, DenoiserOutput(np.zeros(2), [1, 0, 0, 0, 1, 0], 0.0), intrinsics)

    def test_non_positive_input_depth_raises(self, intrinsics):
        import posediff

        pose = posediff.Pose(np.eye(3), [0, 0, -1.0])
        with pytest.raises(NonPositiveDepth):
            apply_update(pose, DenoiserOutput.identity(), intrinsics)


class TestComputeGtTargets:
    def test_same_pose_gives_identity_triplet(self, intrinsics):
        pose = random_pose(np.random.default_rng(3))
        out = compute_gt_targets(pose, pose, intrinsics)
        np.testing.assert_allclose(out.v_xy, 0.0, atol=1e-12)
        np.testing.assert_allclose(out.dr6, [1, 0, 0, 0, 1, 0], atol=1e-12)
        assert out.v_z == pytest.approx(1.0, rel=1e-15)

    def test_depth_ratio_example(self, intrinsics):
        pose_t = random_pose(np.random.default_rng(4))
        pose_t.t[2] = 3.0
        pose0 = pose_t.copy()
        pose0.t = pose0.t.copy()
        pose0.t[2] = 1.5
        out = compute_gt_targets(pose_t, pose0, intrinsics)
        assert out.v_z == pytest.approx(0.5, rel=1e-15)

    def test_roundtrip_recovers_pose0(self, intrinsics):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(10_000):
            pose_t = random_pose(rng)
            pose0 = random_pose(rng)
            out = compute_gt_targets(pose_t, pose0, intrinsics)
            rec = apply_update(pose_t, out, intrinsics)
            worst = max(
                worst,
                float(np.abs(rec.R - pose0.R).max()),
                float(np.abs(rec.t - pose0.t).max()),
            )
        assert worst < 1e-9


class TestPointDistance:
    @pytest.fixture
    def points(self, chain):
        from posediff import JointConfig

        return sample_points(chain, JointConfig.zeros(chain.n_joints), per_link=2)

    def test_zero_for_same_pose(self, points):
        pose = random_pose(np.random.default_rng(6))
        assert point_distance(pose, pose, points) == 0.0

    def test_pure_translation_gives_offset_norm(self, points):
        pose_a = random_pose(np.random.default_rng(7))
        pose_b = pose_a.copy()
        d = np.array([0.01, -0.02, 0.005])
        pose_b.t = pose_b.t + d
        assert point_distance(pose_a, pose_b, points) == pytest.approx(
            np.linalg.norm(d), rel=1e-12
        )

    def test_symmetric(self, points):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a, b = random_pose(rng), random_pose(rng)
            assert point_distance(a, b, points) == pytest.approx(
                point_distance(b, a, points), abs=1e-12
            )

    def test_triangle_inequality(self, points):
        rng = np.random.default_rng(9)
        for _ in range(100):
            a, b, c = (random_pose(rng) for _ in range(3))
            ab = point_distance(a, b, points)
            bc = point_distance(b, c, points)
            ac = point_distance(a, c, points)
            assert ac <= ab + bc + 1e-9

    def test_empty_raises(self):
        pose = random_pose(np.random.default_rng(10))
        with pytest.raises(EmptyPointSet):
            point_distance(pose, pose, np.zeros((0, 3)))


class TestDecomposedLoss:
    @pytest.fixture
    def setup(self, intrinsics, chain):
        from posediff import JointConfig

        rng = np.random.default_rng(11)
        pose0 = random_pose(rng)
        pose_t = random_pose(rng)
        points = sample_points(chain, JointConfig.zeros(chain.n_joints), per_link=2)
        gt = compute_gt_targets(pose_t, pose0, intrinsics)
        return pose0, pose_t, points, gt

    def test_exact_targets_give_zero_loss(self, setup, intrinsics):
        pose0, pose_t, points, gt = setup
        lxy, lrot, lz, total = decomposed_loss(pose0, pose_t, gt, points, intrinsics)
        assert max(lxy, lrot, lz, total) < 1e-9

    def test_vxy_perturbation_isolated(self, setup, intrinsics):
        pose0, pose_t, points, gt = setup
        bad = DenoiserOutput(gt.v_xy + [3.0, -2.0], gt.dr6, gt.v_z)
        lxy, lrot, lz, total = decomposed_loss(pose0, pose_t, bad, points, intrinsics)
        assert lxy > 1e-6 and lrot < 1e-9 and lz < 1e-9
        assert total == pytest.approx(lxy + lrot + lz)

    def test_rotation_perturbation_isolated(self, setup, intrinsics):
        pose0, pose_t, points, gt = setup
        bad = DenoiserOutput(gt.v_xy, gt.dr6 + 0.1, gt.v_z)
        lxy, lrot, lz, _ = decomposed_loss(pose0, pose_t, bad, points, intrinsics)
        assert lrot > 1e-6 and lxy < 1e-9 and lz < 1e-9

    def test_vz_perturbation_isolated(self, setup, intrinsics):
        pose0, pose_t, points, gt = setup
        bad = DenoiserOutput(gt.v_xy, gt.dr6, gt.v_z * 1.2)
        lxy, lrot, lz, _ = decomposed_loss(pose0, pose_t, bad, points, intrinsics)
        assert lz > 1e-6 and lxy < 1e-9 and lrot < 1e-9


@pytest.fixture
def world(norm_cfg, sched, chain):
    scales = NoiseScales.for_config(norm_cfg)
    scen = generate_scenarios(21, 40, cfg=norm_cfg)
    obs = [make_observation(sc, chain, 21) for sc in scen]
    return scales, scen, obs


class TestOracles:
    def test_perfect_reaches_gt_from_anywhere(self, world, sched, norm_cfg):
        scales, scen, obs = world
        oracle = PerfectOracle()
        rng = np.random.default_rng(0)
        for sc, ob in zip(scen, obs[:10]):
            pose_t = random_pose(rng)
            rec = denoise(pose_t, 50, ob, oracle, rng)
            assert np.abs(rec.t - sc.gt_pose.t).max() < 1e-9
            assert np.abs(rec.R - sc.gt_pose.R).max() < 1e-9

    def test_noisy_zero_sigma_identical_to_perfect(self, world, sched, norm_cfg):
        scales, scen, obs = world
        noisy = NoisyOracle(0.0, sched, scales, norm_cfg)
        perfect = PerfectOracle()
        rng = np.random.default_rng(1)
        for sc, ob in zip(scen, obs[:10]):
            pose_t = random_pose(rng)
            a = noisy.predict(pose_t, 70, ob, np.random.default_rng(5))
            b = perfect.predict(pose_t, 70, ob, np.random.default_rng(5))
            np.testing.assert_array_equal(a.v_xy, b.v_xy)
            np.testing.assert_array_equal(a.dr6, b.dr6)
            assert a.v_z == b.v_z

    def test_noisy_deterministic_per_seed(self, world, sched, norm_cfg):
        scales, scen, obs = world
        oracle = NoisyOracle(0.1, sched, scales, norm_cfg)
        pose_t = random_pose(np.random.default_rng(2))
        a = oracle.predict(pose_t, 30, obs[0], np.random.default_rng(77))
        b = oracle.predict(pose_t, 30, obs[0], np.random.default_rng(77))
        np.testing.assert_array_equal(a.v_xy, b.v_xy)
        np.testing.assert_array_equal(a.dr6, b.dr6)
        assert a.v_z == b.v_z

    def test_noisy_error_grows_with_timestep(self, world, sched, norm_cfg, chain):
        # regression of mean prediction error against the schedule's noise
        # level, 10k draws per timestep
        scales, scen, obs = world
        oracle = NoisyOracle(0.1, sched, scales, norm_cfg)
        box = FrustumBox.for_config(norm_cfg)
        draws_per_t = 10_000
        levels, means = [], []
        keypoints = [forward_kinematics(chain, sc.joints) for sc in scen]
        for t in (1, 25, 50, 75, 100):
            errs = np.empty(draws_per_t)
            for k in range(draws_per_t):
                i = k % len(scen.scenarios)
                sc, ob = scen.scenarios[i], obs[i]
                rng = np.random.default_rng([13, t, k])
                pose_t = diffuse(
                    sc.gt_pose, t, sched, scales, box, sc.intrinsics, norm_cfg, rng
                )
                pred = denoise(pose_t, t, ob, oracle, rng)
                errs[k] = point_distance(sc.gt_pose, pred, keypoints[i])
            levels.append(np.sqrt(1 - sched.alpha_bar[t]))
            means.append(errs.mean())
        assert all(means[i] < means[i + 1] for i in range(len(means) - 1))
        slope = np.polyfit(levels, means, 1)[0]
        assert slope > 0

    def test_noisy_correction_range_limits_out_of_window_jumps(
        self, world, sched, norm_cfg
    ):
        # conditioned at t=1 on a far pose, the correction must stay small
        scales, scen, obs = world
        oracle = NoisyOracle(0.15, sched, scales, norm_cfg)
        pose_t = random_pose(np.random.default_rng(3))
        ob = obs[0]
        far_gap = point_distance(
            pose_t, ob.gt_pose, np.zeros((1, 3))
        )
        rec = denoise(pose_t, 1, ob, oracle, np.random.default_rng(4))
        remaining = point_distance(rec, ob.gt_pose, np.zeros((1, 3)))
        assert remaining > 0.5 * far_gap

    def test_biased_offsets_vxy_only(self, world, sched, norm_cfg):
        scales, scen, obs = world
        oracle = BiasedOracle(bias=5.0)
        pose_t = random_pose(np.random.default_rng(5))
        exact = compute_gt_targets(pose_t, obs[0].gt_pose, obs[0].intrinsics)
        out = oracle.predict(pose_t, 10, obs[0], np.random.default_rng(6))
        np.testing.assert_allclose(out.v_xy, exact.v_xy + 5.0)
        np.testing.assert_array_equal(out.dr6, exact.dr6)
        assert out.v_z == exact.v_z

    def test_parse_denoiser_specs(self, sched, scales, norm_cfg):
        assert isinstance(parse_denoiser("perfect", sched, scales, norm_cfg), PerfectOracle)
        noisy = parse_denoiser("noisy:0.25", sched, scales, norm_cfg)
        assert isinstance(noisy, NoisyOracle) and noisy.sigma0 == 0.25
        biased = parse_denoiser("biased:4.5", sched, scales, norm_cfg)
        assert isinstance(biased, BiasedOracle) and biased.bias == 4.5
        with pytest.raises(ValueError, match="unknown denoiser"):
            parse_denoiser("cnn", sched, scales, norm_cfg)
