"""Tests for noise recovery, the DDIM step, and the full reverse loops."""

import numpy as np
import pytest

from posediff import (
    NoiseScales,
    NoisyOracle,
    PerfectOracle,
    Pose,
    ReverseConfig,
    Schedule,
    add_metric,
    ddim_step,
    diffuse_normalized,
    forward_kinematics,
    generate_scenarios,
    make_observation,
    normalize,
    predicted_noise,
    run_direct_regression,
    run_reverse,
    scenario_rng,
    sigma_squared,
)
from posediff.denoising import Observation
from posediff.errors import InvalidIterationCount, InvalidTimestepOrder
from posediff.reverse import INIT_MODES, _initial_pose

from conftest import assert_same_bits


class TestPredictedNoise:
    def test_self_prediction_algebraic_identity(self, sched):
        vec = np.linspace(-1, 1, 9)
        t = 40
        a = sched.alpha_bar[t]
        eps = predicted_noise(vec, vec, t, sched)
        np.testing.assert_allclose(eps, (1 - np.sqrt(a)) / np.sqrt(1 - a) * vec, atol=1e-14)

    def test_recovers_scaled_noise_from_forward_step(self, sched, scales):
        rng = np.random.default_rng(0)
        for t in (1, 30, 100):
            n0 = rng.standard_normal(9)
            eps = rng.standard_normal(9)
            n_t = diffuse_normalized(n0, t, sched, scales, eps, box=None)
            got = predicted_noise(n_t, n0, t, sched)
            np.testing.assert_allclose(got, eps * scales.as_vector(), atol=1e-9)

    def test_zero_prediction(self, sched):
        vec = np.arange(9.0)
        t = 10
        got = predicted_noise(vec, np.zeros(9), t, sched)
        np.testing.assert_allclose(got, vec / np.sqrt(1 - sched.alpha_bar[t]), atol=1e-14)

    def test_t_below_one_raises(self, sched):
        with pytest.raises(InvalidTimestepOrder):
            predicted_noise(np.ones(9), np.ones(9), 0, sched)


class TestSigma:
    def test_eta_zero_is_zero(self, sched):
        assert sigma_squared(sched, 50, 20, 0.0, "paper") == 0.0
        assert sigma_squared(sched, 50, 20, 0.0, "standard") == 0.0

    def test_standard_form_matches_posterior_variance(self, sched):
        # eta=1 standard sigma^2 equals (1-a_prev)/(1-a_t) * beta_t at t_prev=t-1
        for t in (2, 50, 100):
            a_t, a_prev = sched.alpha_bar[t], sched.alpha_bar[t - 1]
            beta_t = 1.0 - a_t / a_prev
            want = (1 - a_prev) / (1 - a_t) * beta_t
            got = sigma_squared(sched, t, t - 1, 1.0, "standard")
            assert got == pytest.approx(want, rel=1e-12)

    def test_paper_form_positive_and_divergent_at_terminal(self, sched):
        assert sigma_squared(sched, 50, 20, 1.0, "paper") > 0
        assert sigma_squared(sched, 20, 0, 1.0, "paper") == float("inf")

    def test_standard_form_vanishes_at_terminal(self, sched):
        assert sigma_squared(sched, 20, 0, 1.0, "standard") == 0.0


class TestDdimStep:
    def test_terminal_step_collapses_to_prediction(self, sched):
        rng = np.random.default_rng(1)
        n_t = rng.standard_normal(9)
        n0 = rng.standard_normal(9)
        for form in ("paper", "standard"):
            out = ddim_step(n_t, n0, 20, 0, sched, eta=1.0, sigma_form=form)
            np.testing.assert_allclose(out.as_vector(), n0, atol=1e-12)

    def test_eta_zero_matches_forward_closed_form(self, sched, scales):
        rng = np.random.default_rng(2)
        svec = scales.as_vector()
        for _ in range(200):
            n0 = rng.standard_normal(9)
            eps = rng.standard_normal(9)
            t = int(rng.integers(2, sched.T + 1))
            t_prev = int(rng.integers(1, t))
            n_t = diffuse_normalized(n0, t, sched, scales, eps, box=None)
            out = ddim_step(n_t, n0, t, t_prev, sched, eta=0.0)
            a_prev = sched.alpha_bar[t_prev]
            want = np.sqrt(a_prev) * n0 + np.sqrt(1 - a_prev) * (eps * svec)
            np.testing.assert_allclose(out.as_vector(), want, atol=1e-9)

    def test_degenerate_equal_alpha_is_noop(self):
        custom = Schedule(
            T=2, beta=np.array([0.5, 0.25]), alpha_bar=np.array([1.0, 0.5, 0.5])
        )
        n_t = np.linspace(-2, 2, 9)
        out = ddim_step(n_t, n_t, 2, 1, custom, eta=1.0, sigma_form="paper")
        np.testing.assert_allclose(out.as_vector(), n_t, atol=1e-12)

    def test_bad_order_raises(self, sched):
        with pytest.raises(InvalidTimestepOrder):
            ddim_step(np.ones(9), np.ones(9), 10, 10, sched)
        with pytest.raises(InvalidTimestepOrder):
            ddim_step(np.ones(9), np.ones(9), 10, 20, sched)


@pytest.fixture
def world(norm_cfg, sched, chain):
    scales = NoiseScales.for_config(norm_cfg)
    scen = generate_scenarios(31, 30, cfg=norm_cfg)
    observations = [make_observation(sc, chain, 31) for sc in scen]
    return scales, scen, observations


class TestRunReverse:
    def test_perfect_oracle_converges(self, world, sched, norm_cfg, chain):
        scales, scen, observations = world
        rcfg = ReverseConfig()
        for sc, obs in zip(scen, observations):
            final, traj = run_reverse(
                obs, chain, sched, scales, norm_cfg, rcfg, PerfectOracle(),
                scenario_rng(31, sc.index, 1),
            )
            kp = forward_kinematics(chain, sc.joints)
            assert add_metric(sc.gt_pose, final, kp) < 1e-9
            assert len(traj) == rcfg.ddim_steps + rcfg.refine_steps

    def test_trajectory_timesteps_strictly_decreasing(self, world, sched, norm_cfg, chain):
        scales, scen, observations = world
        rcfg = ReverseConfig()
        _, traj = run_reverse(
            observations[0], chain, sched, scales, norm_cfg, rcfg, PerfectOracle(),
            scenario_rng(31, 0, 1),
        )
        ts = traj.timestep
        assert ts == [80, 60, 40, 20, 0, -1, -2, -3, -4, -5]
        assert all(a > b for a, b in zip(ts, ts[1:]))

    def test_full_schedule_add_non_increasing_with_perfect_oracle(
        self, world, sched, norm_cfg, chain
    ):
        scales, scen, observations = world
        rcfg = ReverseConfig(ddim_steps=sched.T, refine_steps=0)
        _, traj = run_reverse(
            observations[1], chain, sched, scales, norm_cfg, rcfg, PerfectOracle(),
            scenario_rng(31, 1, 1),
        )
        adds = traj.add
        assert all(a >= b - 1e-12 for a, b in zip(adds[1:], adds[2:]))
        assert adds[-1] < 1e-9

    def test_prior_sample_init_converges(self, world, sched, norm_cfg, chain):
        scales, scen, observations = world
        rcfg = ReverseConfig(init_mode="prior-sample")
        final, _ = run_reverse(
            observations[2], chain, sched, scales, norm_cfg, rcfg, PerfectOracle(),
            scenario_rng(31, 2, 1),
        )
        kp = forward_kinematics(chain, scen.scenarios[2].joints)
        assert add_metric(scen.scenarios[2].gt_pose, final, kp) < 1e-9

    def test_tracking_single_step_fixed_point(self, world, sched, norm_cfg, chain):
        scales, scen, observations = world
        rcfg = ReverseConfig(ddim_steps=1, refine_steps=0)
        sc, obs = scen.scenarios[3], observations[3]
        final, traj = run_reverse(
            obs, chain, sched, scales, norm_cfg, rcfg, PerfectOracle(),
            scenario_rng(31, 3, 1), prev_pose=sc.gt_pose,
        )
        kp = forward_kinematics(chain, sc.joints)
        assert add_metric(sc.gt_pose, final, kp) < 1e-9
        assert len(traj) == 1

    @pytest.mark.parametrize("init", INIT_MODES)
    def test_a_given_prev_pose_is_the_start(self, init, world, sched, norm_cfg, chain):
        # Under either init, the start is the given pose itself, and prior-sample draws
        # nothing for it: with the perfect oracle, the whole run leaves the generators as
        # they were.
        scales, scen, observations = world
        rcfg = ReverseConfig(init_mode=init)
        single = (observations[3], scen.scenarios[4].gt_pose, scenario_rng(31, 3, 1))
        batch = (Observation.stack(observations[:3]), Observation.stack(observations[4:7]).gt_pose,
                 [scenario_rng(31, i, 1) for i in range(3)])
        for obs, prev, rng in (single, batch):
            generators = rng if isinstance(rng, list) else [rng]
            states = [g.bit_generator.state for g in generators]
            assert _initial_pose(rcfg, scales, norm_cfg, obs, rng, prev, None) is prev
            run_reverse(obs, chain, sched, scales, norm_cfg, rcfg, PerfectOracle(), rng,
                        prev_pose=prev)
            assert [g.bit_generator.state for g in generators] == states

    def test_canonical_start_is_the_identity_at_depth_cz(self, world, norm_cfg):
        scales, scen, observations = world
        want = Pose(np.eye(3), [0, 0, norm_cfg.c_z])
        for obs in (observations[0], Observation.stack(observations[:4])):
            rows = obs.gt_pose.t.shape[:-1]
            start = _initial_pose(ReverseConfig(), scales, norm_cfg, obs, None, None, None)
            assert_same_bits(start.R, np.broadcast_to(want.R, rows + (3, 3)))
            assert_same_bits(start.t, np.broadcast_to(want.t, rows + (3,)))

    def test_standard_sigma_form_converges_too(self, world, sched, norm_cfg, chain):
        scales, scen, observations = world
        rcfg = ReverseConfig(sigma_form="standard")
        sc, obs = scen.scenarios[5], observations[5]
        final, _ = run_reverse(
            obs, chain, sched, scales, norm_cfg, rcfg, PerfectOracle(),
            scenario_rng(31, 5, 1),
        )
        kp = forward_kinematics(chain, sc.joints)
        assert add_metric(sc.gt_pose, final, kp) < 1e-9

    def test_the_record_is_step_major_and_ends_at_the_returned_pose(
        self, world, sched, norm_cfg, chain
    ):
        scales, scen, observations = world
        rcfg = ReverseConfig(ddim_steps=3, refine_steps=2)
        oracle = NoisyOracle(0.1, sched, scales, norm_cfg)
        single = (observations[0], scenario_rng(31, 0, 1), ())
        batch = (Observation.stack(observations[:4]), [scenario_rng(31, i, 1) for i in range(4)],
                 (4,))
        for obs, rng, rows in (single, batch):
            final, traj = run_reverse(obs, chain, sched, scales, norm_cfg, rcfg, oracle, rng)
            assert len(traj) == len(traj.timestep) == len(traj.cond_t) == 5
            assert traj.R.shape == (5, *rows, 3, 3)
            assert traj.t.shape == (5, *rows, 3)
            assert traj.add.shape == (5, *rows)
            assert_same_bits(traj.R[-1], final.R)
            assert_same_bits(traj.t[-1], final.t)

    def test_deterministic_per_seed(self, world, sched, norm_cfg, chain):
        scales, scen, observations = world
        rcfg = ReverseConfig()
        oracle = NoisyOracle(0.1, sched, scales, norm_cfg)
        a, _ = run_reverse(
            observations[4], chain, sched, scales, norm_cfg, rcfg, oracle,
            np.random.default_rng(55),
        )
        b, _ = run_reverse(
            observations[4], chain, sched, scales, norm_cfg, rcfg, oracle,
            np.random.default_rng(55),
        )
        assert_same_bits(a.R, b.R)
        assert_same_bits(a.t, b.t)


class TestDirectRegression:
    def test_perfect_oracle_single_iteration(self, world, sched, norm_cfg, chain):
        scales, scen, observations = world
        sc, obs = scen.scenarios[0], observations[0]
        final, traj = run_direct_regression(
            obs, chain, sched, scales, norm_cfg, 1, PerfectOracle(),
            scenario_rng(31, 0, 1),
        )
        kp = forward_kinematics(chain, sc.joints)
        assert add_metric(sc.gt_pose, final, kp) < 1e-9
        assert traj.timestep == [0]

    def test_zero_iterations_rejected(self, world, sched, norm_cfg, chain):
        scales, scen, observations = world
        with pytest.raises(InvalidIterationCount):
            run_direct_regression(
                observations[0], chain, sched, scales, norm_cfg, 0, PerfectOracle(),
                scenario_rng(31, 0, 1),
            )

    def test_countdown_timesteps(self, world, sched, norm_cfg, chain):
        scales, scen, observations = world
        _, traj = run_direct_regression(
            observations[0], chain, sched, scales, norm_cfg, 4, PerfectOracle(),
            scenario_rng(31, 0, 1),
        )
        assert traj.timestep == [3, 2, 1, 0]

    def test_noisy_paired_comparison_favors_scheduled_pipeline(
        self, world, sched, norm_cfg, chain
    ):
        scales, scen, observations = world
        oracle = NoisyOracle(0.15, sched, scales, norm_cfg)
        rcfg = ReverseConfig()
        gaps = []
        for sc, obs in zip(scen, observations):
            kp = forward_kinematics(chain, sc.joints)
            f_ddim, _ = run_reverse(
                obs, chain, sched, scales, norm_cfg, rcfg, oracle,
                scenario_rng(31, sc.index, 1),
            )
            f_direct, _ = run_direct_regression(
                obs, chain, sched, scales, norm_cfg, 10, oracle,
                scenario_rng(31, sc.index, 1),
            )
            gaps.append(
                add_metric(sc.gt_pose, f_direct, kp) - add_metric(sc.gt_pose, f_ddim, kp)
            )
        assert np.mean(gaps) > 0
