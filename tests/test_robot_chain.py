"""Tests for the synthetic serial-link chain."""

import json

import numpy as np
import pytest

from posediff import ChainSpec, JointConfig, Pose, forward_kinematics, gram_schmidt_6d, sample_points
from posediff.errors import DimensionMismatch

from conftest import assert_same_bits


class TestForwardKinematics:
    def test_zero_config_is_collinear_cumulative(self, chain):
        kp = forward_kinematics(chain, JointConfig.zeros(chain.n_joints))
        expected_x = np.concatenate([[0.0], np.cumsum(chain.link_lengths)])
        np.testing.assert_allclose(kp[:, 0], expected_x, atol=1e-15)
        np.testing.assert_allclose(kp[:, 1:], 0.0, atol=1e-15)

    def test_first_joint_pi_reflects_chain(self, chain):
        angles = np.zeros(chain.n_joints)
        angles[0] = np.pi
        kp = forward_kinematics(chain, JointConfig(angles))
        zero = forward_kinematics(chain, JointConfig.zeros(chain.n_joints))
        # rotation about z by pi: x -> -x, y -> -y
        np.testing.assert_allclose(kp[:, 0], -zero[:, 0], atol=1e-12)
        np.testing.assert_allclose(kp[:, 2], zero[:, 2], atol=1e-12)
        assert np.linalg.norm(kp[-1]) == pytest.approx(np.linalg.norm(zero[-1]), abs=1e-12)

    def test_link_lengths_preserved_for_random_configs(self, chain):
        rng = np.random.default_rng(0)
        for _ in range(100):
            joints = JointConfig(rng.uniform(-np.pi, np.pi, chain.n_joints))
            kp = forward_kinematics(chain, joints)
            dists = np.linalg.norm(np.diff(kp, axis=0), axis=1)
            np.testing.assert_allclose(dists, chain.link_lengths, atol=1e-12)

    def test_wrong_angle_count_raises(self, chain):
        with pytest.raises(DimensionMismatch):
            forward_kinematics(chain, JointConfig(np.zeros(3)))

    def test_deterministic(self, chain):
        joints = JointConfig(np.linspace(-1, 1, chain.n_joints))
        assert_same_bits(forward_kinematics(chain, joints), forward_kinematics(chain, joints))


class TestSamplePoints:
    def test_midpoints_for_per_link_one(self, chain):
        joints = JointConfig.zeros(chain.n_joints)
        kp = forward_kinematics(chain, joints)
        pts = sample_points(chain, joints, per_link=1)
        mids = (kp[:-1] + kp[1:]) / 2
        np.testing.assert_allclose(pts[len(kp):], mids, atol=1e-15)

    def test_thirds_for_per_link_two(self, chain):
        joints = JointConfig.zeros(chain.n_joints)
        pts = sample_points(chain, joints, per_link=2)
        # first link spans [0, L0] on x; interior points at L0/3 and 2*L0/3
        L0 = chain.link_lengths[0]
        link0 = pts[chain.n_joints + 1: chain.n_joints + 3]
        np.testing.assert_allclose(link0[:, 0], [L0 / 3, 2 * L0 / 3], atol=1e-15)

    def test_point_count(self, chain):
        joints = JointConfig(np.full(chain.n_joints, 0.3))
        for per_link in (1, 4, 9):
            pts = sample_points(chain, joints, per_link)
            assert pts.shape == (chain.n_joints + 1 + chain.n_joints * per_link, 3)

    def test_pairwise_distances_invariant_under_pose(self, chain):
        rng = np.random.default_rng(1)
        joints = JointConfig(rng.uniform(-np.pi, np.pi, chain.n_joints))
        pts = sample_points(chain, joints, per_link=3)
        pose = Pose(gram_schmidt_6d(rng.standard_normal(6)), rng.uniform(-1, 1, 3))
        moved = pose.transform(pts)
        d0 = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        d1 = np.linalg.norm(moved[:, None] - moved[None, :], axis=-1)
        np.testing.assert_allclose(d1, d0, atol=1e-12)


TILTED_CHAIN = ChainSpec(n_joints=3, link_lengths=(0.5, 0.4, 0.3),
                         joint_axes=((0.0, 0.6, 0.8), (1.0, 0.0, 0.0), (0.0, 0.6, 0.8)))


def batch_angles(n_joints):
    """Rows of 0, -0.0, pi and -pi at every joint, then random rows."""
    special = [np.zeros(n_joints), -np.zeros(n_joints), np.full(n_joints, np.pi),
               np.full(n_joints, -np.pi)]
    rows = np.random.default_rng(4).uniform(-np.pi, np.pi, (60, n_joints))
    return np.concatenate([special, rows])


class TestBatchedKinematics:
    """An (N, J) batch of joint angles gives each row's single-configuration result."""

    @pytest.mark.parametrize("spec", [ChainSpec(), TILTED_CHAIN], ids=["default", "tilted"])
    def test_forward_kinematics_matches_rows(self, spec):
        angles = batch_angles(spec.n_joints)
        got = forward_kinematics(spec, JointConfig(angles))
        want = np.stack([forward_kinematics(spec, JointConfig(a)) for a in angles])
        assert got.shape == (len(angles), spec.n_joints + 1, 3)
        assert_same_bits(got, want)

    @pytest.mark.parametrize("spec", [ChainSpec(), TILTED_CHAIN], ids=["default", "tilted"])
    @pytest.mark.parametrize("per_link", [1, 9])
    def test_sample_points_matches_rows(self, spec, per_link):
        angles = batch_angles(spec.n_joints)
        got = sample_points(spec, JointConfig(angles), per_link)
        want = np.stack([sample_points(spec, JointConfig(a), per_link) for a in angles])
        assert got.shape == (len(angles), spec.n_joints + 1 + spec.n_joints * per_link, 3)
        assert_same_bits(got, want)

    def test_wrong_angle_count_in_a_batch_raises(self, chain):
        with pytest.raises(DimensionMismatch):
            forward_kinematics(chain, JointConfig(np.zeros((5, chain.n_joints + 1))))

    def test_joint_config_keeps_its_shape(self):
        assert JointConfig(np.zeros((5, 7))).angles.shape == (5, 7)
        assert JointConfig([0.1, 0.2]).angles.shape == (2,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_angles_raise(self, bad):
        with pytest.raises(ValueError, match="finite"):
            JointConfig([0.1, bad, 0.2])
        angles = np.zeros((4, 7))
        angles[2, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            JointConfig(angles)


class TestChainSpec:
    def test_defaults_are_franka_scale(self):
        chain = ChainSpec()
        assert chain.n_joints == 7
        assert sum(chain.link_lengths) == pytest.approx(1.46)

    def test_json_roundtrip(self, tmp_path):
        chain = ChainSpec(n_joints=3, link_lengths=(0.5, 0.4, 0.3))
        path = str(tmp_path / "chain.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"n_joints": chain.n_joints, "link_lengths": list(chain.link_lengths),
                       "joint_axes": [list(ax) for ax in chain.joint_axes]}, fh)
        loaded = ChainSpec.from_json(path)
        assert loaded.n_joints == 3
        assert loaded.link_lengths == (0.5, 0.4, 0.3)
        assert loaded.joint_axes == chain.joint_axes

    def test_bad_lengths_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ChainSpec(n_joints=2, link_lengths=(0.5, -0.1))
        with pytest.raises(ValueError, match="link lengths"):
            ChainSpec(n_joints=2, link_lengths=(0.5,))

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValueError, match="unit-norm"):
            ChainSpec(n_joints=1, link_lengths=(0.5,), joint_axes=((0, 0, 2),))
