"""Tests for the noise schedule and visibility-constrained forward diffusion."""

import math

import numpy as np
import pytest

from posediff import (
    FrustumBox,
    NoiseScales,
    Pose,
    ddim_timesteps,
    diffuse,
    diffuse_normalized,
    generate_scenarios,
    in_frustum,
    make_linear_schedule,
    normalize,
    sample_timestep,
)
from posediff.errors import InvalidScheduleParams, NonPositiveDepth

from conftest import assert_same_bits, random_pose, rotation_error


def product_alpha_bar(T, beta_start, beta_end):
    """Brute-force scalar product oracle for alpha_bar."""
    betas = [beta_start + (beta_end - beta_start) * i / (T - 1) for i in range(T)] if T > 1 else [beta_start]
    out = [1.0]
    acc = 1.0
    for b in betas:
        acc *= 1.0 - b
        out.append(acc)
    return out


class TestSchedule:
    def test_single_step_schedule(self):
        s = make_linear_schedule(T=1, beta_start=0.5, beta_end=0.5)
        np.testing.assert_array_equal(s.alpha_bar, [1.0, 0.5])
        # Distinct endpoints tell linspace's T = 1 value from beta_end.
        s = make_linear_schedule(T=1, beta_start=1e-4, beta_end=0.02)
        assert_same_bits(s.beta, np.array([1e-4]))

    def test_first_factor_is_exact(self):
        s = make_linear_schedule()
        assert s.alpha_bar[1] == 1.0 - 1e-4
        assert abs(s.alpha_bar[1] - 0.9999) < 1e-15

    def test_final_value_matches_product_oracle(self):
        s = make_linear_schedule()
        oracle = product_alpha_bar(100, 1e-4, 0.02)
        assert s.alpha_bar[100] == pytest.approx(oracle[100], rel=1e-12)
        # frozen from the oracle: ~0.364
        assert s.alpha_bar[100] == pytest.approx(0.3635632480554922, rel=1e-12)

    def test_full_sequence_matches_oracle(self):
        s = make_linear_schedule(T=37, beta_start=3e-4, beta_end=0.015)
        np.testing.assert_allclose(s.alpha_bar, product_alpha_bar(37, 3e-4, 0.015), rtol=1e-12)

    def test_alpha_bar_strictly_decreasing(self):
        s = make_linear_schedule()
        assert np.all(np.diff(s.alpha_bar) < 0)

    def test_bad_params_raise(self):
        with pytest.raises(InvalidScheduleParams):
            make_linear_schedule(T=0)
        with pytest.raises(InvalidScheduleParams):
            make_linear_schedule(beta_start=0.0)
        with pytest.raises(InvalidScheduleParams):
            make_linear_schedule(beta_start=0.3, beta_end=0.2)
        with pytest.raises(InvalidScheduleParams):
            make_linear_schedule(beta_end=1.0)


class TestDdimTimesteps:
    def test_default_subsequence(self):
        assert ddim_timesteps(100, 5) == [100, 80, 60, 40, 20]

    def test_full_sequence(self):
        assert ddim_timesteps(100, 100) == list(range(100, 0, -1))

    def test_single_step(self):
        assert ddim_timesteps(100, 1) == [100]

    def test_every_count_in_range_is_strictly_decreasing_above_0(self):
        # The range check is the only check: it alone keeps the rounded points
        # distinct and the last at least 1.
        for T in range(1, 201):
            for n in range(1, T + 1):
                ts = ddim_timesteps(T, n)
                assert len(ts) == n and ts[0] == T and ts[-1] >= 1
                assert all(a > b for a, b in zip(ts, ts[1:])), (T, n)

    def test_bad_count_raises(self):
        with pytest.raises(InvalidScheduleParams):
            ddim_timesteps(100, 0)
        with pytest.raises(InvalidScheduleParams):
            ddim_timesteps(100, 101)


class TestSampleTimestep:
    def test_uniform_histogram(self, sched):
        rng = np.random.default_rng(0)
        draws = np.array([sample_timestep(sched, rng) for _ in range(100_000)])
        assert draws.min() >= 1 and draws.max() <= sched.T
        freq = np.bincount(draws, minlength=sched.T + 1)[1:] / draws.size
        assert np.all(np.abs(freq - 0.01) < 0.002)

    def test_single_step_schedule_always_one(self):
        s = make_linear_schedule(T=1, beta_start=0.5, beta_end=0.5)
        rng = np.random.default_rng(1)
        assert all(sample_timestep(s, rng) == 1 for _ in range(20))

    def test_same_seed_same_sequence(self, sched):
        rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
        s1 = [sample_timestep(sched, rng1) for _ in range(100)]
        s2 = [sample_timestep(sched, rng2) for _ in range(100)]
        assert s1 == s2


class MiniOracle:
    """Independent scalar implementation of the closed-form forward step."""

    def __init__(self, intrinsics, cfg):
        self.K = intrinsics
        self.cfg = cfg

    def normalize(self, pose):
        f, w, h = self.K.f, self.K.w, self.K.h
        tx, ty, tz = pose.t
        return np.concatenate([
            pose.R[:, 0], pose.R[:, 1],
            [f * tx / (w * tz), f * ty / (h * tz), tz - self.cfg.c_z],
        ])

    def gram_schmidt(self, r6):
        u1 = r6[:3] / np.linalg.norm(r6[:3])
        v2 = r6[3:] - np.dot(r6[3:], u1) * u1
        u2 = v2 / np.linalg.norm(v2)
        return np.column_stack([u1, u2, np.cross(u1, u2)])

    def denormalize(self, n):
        f, w, h = self.K.f, self.K.w, self.K.h
        tz = n[8] + self.cfg.c_z
        t = np.array([w * tz / f * n[6], h * tz / f * n[7], tz])
        return Pose(self.gram_schmidt(n[:6]), t)

    def step(self, pose0, t, sched, scale_vec, eps):
        a = sched.alpha_bar[t]
        n_t = math.sqrt(a) * self.normalize(pose0) + math.sqrt(1 - a) * (eps * scale_vec)
        return self.denormalize(n_t)


class TestDiffuse:
    @pytest.fixture
    def box(self, norm_cfg):
        return FrustumBox.for_config(norm_cfg)

    def test_zero_noise_at_t0_returns_pose(self, intrinsics, norm_cfg, sched, scales, box):
        rng = np.random.default_rng(0)
        pose0 = random_pose(rng)
        out = diffuse(pose0, 0, sched, scales, box, intrinsics, norm_cfg, rng, eps=np.zeros(9))
        np.testing.assert_allclose(out.R, pose0.R, atol=1e-12)
        np.testing.assert_allclose(out.t, pose0.t, atol=1e-12)

    def test_zero_noise_leaves_rotation_and_normalized_shape(
        self, intrinsics, norm_cfg, sched, scales, box
    ):
        # sqrt(alpha_bar) scaling of the rot6 columns is normalized away
        rng = np.random.default_rng(1)
        pose0 = random_pose(rng)
        out = diffuse(pose0, 50, sched, scales, box, intrinsics, norm_cfg, rng, eps=np.zeros(9))
        np.testing.assert_allclose(out.R, pose0.R, atol=1e-12)

    def test_matches_independent_oracle_without_clamp(self, intrinsics, norm_cfg, sched, scales):
        rng = np.random.default_rng(2)
        oracle = MiniOracle(intrinsics, norm_cfg)
        svec = scales.as_vector()
        box = FrustumBox.for_config(norm_cfg)
        compared = 0
        for _ in range(200):
            pose0 = random_pose(rng)
            t = int(rng.integers(1, sched.T + 1))
            eps = rng.standard_normal(9)
            try:
                got = diffuse(
                    pose0, t, sched, scales, box, intrinsics, norm_cfg, rng,
                    clamp=False, eps=eps,
                )
            except NonPositiveDepth:
                # unclamped depth went non-positive; the oracle must agree
                a = math.sqrt(sched.alpha_bar[t])
                n0 = oracle.normalize(pose0)
                tz_n = a * n0[8] + math.sqrt(1 - sched.alpha_bar[t]) * eps[8] * svec[8]
                assert tz_n + norm_cfg.c_z <= 0
                continue
            want = oracle.step(pose0, t, sched, svec, eps)
            np.testing.assert_allclose(got.R, want.R, atol=1e-12)
            np.testing.assert_allclose(got.t, want.t, atol=1e-12)
            compared += 1
        assert compared > 150

    def test_translation_noise_does_not_touch_rotation(
        self, intrinsics, norm_cfg, sched, scales, box
    ):
        rng = np.random.default_rng(3)
        pose0 = random_pose(rng)
        eps = np.zeros(9)
        eps[6:] = rng.standard_normal(3)
        out = diffuse(pose0, 80, sched, scales, box, intrinsics, norm_cfg, rng, eps=eps)
        np.testing.assert_allclose(out.R, pose0.R, atol=1e-12)

    def test_rotation_noise_does_not_touch_translation_components(
        self, intrinsics, norm_cfg, sched, scales, box
    ):
        rng = np.random.default_rng(4)
        pose0 = random_pose(rng)
        n0 = normalize(pose0, intrinsics, norm_cfg)
        eps = np.zeros(9)
        eps[:6] = rng.standard_normal(6)
        t = 60
        out = diffuse(pose0, t, sched, scales, box, intrinsics, norm_cfg, rng, eps=eps)
        n_out = normalize(out, intrinsics, norm_cfg)
        a = math.sqrt(sched.alpha_bar[t])
        np.testing.assert_allclose(
            [n_out.tx_n, n_out.ty_n, n_out.tz_n],
            [a * n0.tx_n, a * n0.ty_n, a * n0.tz_n],
            atol=1e-12,
        )

    def test_always_in_frustum_with_clamp(self, norm_cfg, sched):
        scales = NoiseScales.for_config(norm_cfg)
        box = FrustumBox.for_config(norm_cfg, margin=0.05)
        scen = generate_scenarios(77, 200, cfg=norm_cfg)
        rng = np.random.default_rng(5)
        for sc in scen:
            for t in (1, 25, 50, 75, 100):
                out = diffuse(
                    sc.gt_pose, t, sched, scales, box, sc.intrinsics, norm_cfg, rng
                )
                assert in_frustum(
                    out, sc.intrinsics, margin=0.05, z_range=(norm_cfg.z_min, norm_cfg.z_max)
                )

    def test_clamp_off_escapes_frustum_at_high_t(self, norm_cfg, sched):
        scales = NoiseScales.for_config(norm_cfg)
        box = FrustumBox.for_config(norm_cfg)
        scen = generate_scenarios(78, 300, cfg=norm_cfg)
        rng = np.random.default_rng(6)
        inside = 0
        for sc in scen:
            try:
                out = diffuse(
                    sc.gt_pose, 100, sched, scales, box, sc.intrinsics, norm_cfg, rng, clamp=False
                )
            except NonPositiveDepth:
                continue  # escaped behind the camera: certainly not in frustum
            inside += int(
                in_frustum(out, sc.intrinsics, margin=0.05, z_range=(norm_cfg.z_min, norm_cfg.z_max))
            )
        assert inside < 300

    def test_component_means_follow_closed_form(self, intrinsics, norm_cfg, sched, scales):
        rng = np.random.default_rng(7)
        pose0 = random_pose(rng)
        n0 = normalize(pose0, intrinsics, norm_cfg).as_vector()
        svec = scales.as_vector()
        N = 100_000
        for t in (1, 50, 100):
            eps = rng.standard_normal((N, 9))
            n_t = diffuse_normalized(n0, t, sched, scales, eps, box=None)
            a = sched.alpha_bar[t]
            expected = math.sqrt(a) * n0
            component_std = math.sqrt(1 - a) * svec
            bound = 4 * component_std / math.sqrt(N)
            assert np.all(np.abs(n_t.mean(axis=0) - expected) < bound)

    def test_deterministic_given_seed(self, intrinsics, norm_cfg, sched, scales):
        box = FrustumBox.for_config(norm_cfg)
        pose0 = random_pose(np.random.default_rng(8))
        a = diffuse(pose0, 42, sched, scales, box, intrinsics, norm_cfg, np.random.default_rng(123))
        b = diffuse(pose0, 42, sched, scales, box, intrinsics, norm_cfg, np.random.default_rng(123))
        assert_same_bits(a.R, b.R)
        assert_same_bits(a.t, b.t)

    def test_out_of_range_timestep_raises(self, intrinsics, norm_cfg, sched, scales, box):
        rng = np.random.default_rng(9)
        with pytest.raises(InvalidScheduleParams):
            diffuse(random_pose(rng), 101, sched, scales, box, intrinsics, norm_cfg, rng)

    @staticmethod
    def _degenerate_eps(pose0, t, intrinsics, norm_cfg, sched):
        # choose rotation noise that exactly cancels the first rot6 column
        n0 = normalize(pose0, intrinsics, norm_cfg).as_vector()
        a = sched.alpha_bar[t]
        eps = np.zeros(9)
        eps[:3] = -math.sqrt(a) * n0[:3] / math.sqrt(1 - a)
        return eps

    def test_explicit_degenerate_eps_raises_without_retry(
        self, intrinsics, norm_cfg, sched, scales, box
    ):
        from posediff.errors import DegenerateRotation6D

        rng = np.random.default_rng(10)
        pose0 = random_pose(rng)
        eps = self._degenerate_eps(pose0, 50, intrinsics, norm_cfg, sched)
        with pytest.raises(DegenerateRotation6D):
            diffuse(pose0, 50, sched, scales, box, intrinsics, norm_cfg, rng, eps=eps)

    def test_degenerate_draws_are_retried(self, intrinsics, norm_cfg, sched, scales, box):
        from posediff.errors import DegenerateRotation6D

        pose0 = random_pose(np.random.default_rng(11))
        bad = self._degenerate_eps(pose0, 50, intrinsics, norm_cfg, sched)
        good = np.random.default_rng(12).standard_normal(9)

        class ScriptedRng:
            def __init__(self, draws):
                self.draws = list(draws)

            def standard_normal(self, n):
                return self.draws.pop(0)

        out = diffuse(
            pose0, 50, sched, scales, box, intrinsics, norm_cfg,
            ScriptedRng([bad, bad, good]),
        )
        assert rotation_error(out.R) < 1e-9

        with pytest.raises(DegenerateRotation6D):
            diffuse(
                pose0, 50, sched, scales, box, intrinsics, norm_cfg,
                ScriptedRng([bad] * 17),
            )


class TestNoiseScales:
    def test_gamma_sigma_containment_sizing(self, norm_cfg):
        s = NoiseScales.for_config(norm_cfg, gamma=3.0)
        assert s.s_xy == pytest.approx(0.5 / 3.0)
        assert s.s_z == pytest.approx((norm_cfg.z_max - norm_cfg.z_min) / 6.0)
        assert s.s_rot == 1.0

    def test_vector_layout(self, scales):
        v = scales.as_vector()
        assert v.shape == (9,)
        np.testing.assert_array_equal(v[:6], scales.s_rot)
        assert (v[6], v[7], v[8]) == (scales.s_xy, scales.s_xy, scales.s_z)


class TestFrustumBox:
    def test_clamp_limits_translation_only(self, norm_cfg):
        box = FrustumBox.for_config(norm_cfg, margin=0.05)
        vec = np.array([5.0, -3, 2, 1, 1, 1, 0.9, -0.9, 9.0])
        out = box.clamp(vec)
        assert_same_bits(out[:6], vec[:6])
        assert (out[6], out[7]) == (0.45, -0.45)
        assert out[8] == norm_cfg.z_max - norm_cfg.c_z

    @pytest.mark.parametrize("make", [
        lambda cfg: FrustumBox.for_config(cfg, -0.1),
        lambda cfg: FrustumBox(xy_bound=0.6, z_bound=(-1.2, 1.5)),
    ], ids=["negative-margin", "past-the-image-edge"])
    def test_xy_bound_outside_zero_to_half_raises(self, norm_cfg, make):
        with pytest.raises(ValueError, match="xy_bound"):
            make(norm_cfg)

    def test_batched_clamp(self, norm_cfg):
        box = FrustumBox.for_config(norm_cfg)
        vecs = np.zeros((4, 9))
        vecs[:, 6] = [2.0, -2.0, 0.1, 0.0]
        out = box.clamp(vecs)
        np.testing.assert_array_equal(out[:, 6], [0.45, -0.45, 0.1, 0.0])
