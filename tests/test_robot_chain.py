"""Tests for the synthetic serial-link chain."""

import dataclasses
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


def reference_axis_angle_matrices(axes, angles):
    """The per-element Rodrigues formula that `forward_kinematics` replaced, verbatim."""
    x, y, z = axes.T
    c, s = np.cos(angles), np.sin(angles)
    C = 1.0 - c
    M = np.empty(angles.shape + (3, 3))
    M[..., 0, 0], M[..., 0, 1], M[..., 0, 2] = c + x * x * C, x * y * C - z * s, x * z * C + y * s
    M[..., 1, 0], M[..., 1, 1], M[..., 1, 2] = y * x * C + z * s, c + y * y * C, y * z * C - x * s
    M[..., 2, 0], M[..., 2, 1], M[..., 2, 2] = z * x * C - y * s, z * y * C + x * s, c + z * z * C
    return M


def reference_forward_kinematics(spec, joints):
    """The link-by-link forward kinematics that the joint-major kernel replaced, verbatim."""
    angles = joints.angles
    if angles.shape[-1] != spec.n_joints:
        raise DimensionMismatch(
            f"chain has {spec.n_joints} joints, got {angles.shape[-1]} angles"
        )
    M = reference_axis_angle_matrices(np.asarray(spec.joint_axes, dtype=float), angles)
    keypoints = np.zeros(angles.shape[:-1] + (spec.n_joints + 1, 3))
    R = np.eye(3)
    for i, length in enumerate(spec.link_lengths):
        R = R @ M[..., i, :, :]
        # Link i lies along +X before rotation, so it points along R's first column.
        keypoints[..., i + 1, :] = keypoints[..., i, :] + R[..., :, 0] * length
    return keypoints


def random_chains(count=12):
    """Seeded unit-axis chains of 1 to 8 joints, with exact-zero axis components
    (whole coordinate axes among them) and negated axes."""
    rng = np.random.default_rng(12)
    chains = []
    for _ in range(count):
        n = int(rng.integers(1, 9))
        axes = rng.standard_normal((n, 3))
        axes[rng.random((n, 3)) < 0.35] = 0.0
        axes[~axes.any(axis=1), int(rng.integers(3))] = 1.0
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        axes[rng.random(n) < 0.4] *= -1.0
        chains.append(ChainSpec(n_joints=n, link_lengths=tuple(rng.uniform(0.05, 0.5, n)),
                                joint_axes=tuple(map(tuple, axes))))
    return chains


KERNEL_CHAINS = {"default": ChainSpec(), "tilted": TILTED_CHAIN,
                 **{f"random{k}": spec for k, spec in enumerate(random_chains())}}


class TestKernelMatchesReference:
    """The joint-major kernel gives the replaced link-by-link result bit for bit."""

    @pytest.mark.parametrize("spec", KERNEL_CHAINS.values(), ids=KERNEL_CHAINS.keys())
    @pytest.mark.parametrize("n", [None, 8, 250], ids=["unbatched", "N=8", "N=250"])
    def test_forward_kinematics_matches_reference(self, spec, n):
        rows = batch_angles(spec.n_joints)
        batches = list(rows) if n is None else [np.resize(rows, (n, spec.n_joints))]
        for angles in batches:
            before = angles.copy()
            got = forward_kinematics(spec, JointConfig(angles))
            assert_same_bits(got, reference_forward_kinematics(spec, JointConfig(angles)))
            assert got.flags.c_contiguous
            assert_same_bits(angles, before)

    def test_result_is_a_fresh_array_callers_may_overwrite(self):
        angles = batch_angles(7)
        out = forward_kinematics(ChainSpec(), JointConfig(angles))
        out *= -1.0
        assert_same_bits(forward_kinematics(ChainSpec(), JointConfig(angles)),
                         reference_forward_kinematics(ChainSpec(), JointConfig(angles)))

    def test_chain_fields_cannot_be_assigned(self):
        chain = ChainSpec()
        forward_kinematics(chain, JointConfig.zeros(chain.n_joints))
        for name, value in (("n_joints", 3), ("link_lengths", (0.5, 0.4, 0.3)),
                            ("joint_axes", ((1.0, 0.0, 0.0),) * 7)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(chain, name, value)
        assert_same_bits(forward_kinematics(chain, JointConfig(batch_angles(7))),
                         reference_forward_kinematics(ChainSpec(), JointConfig(batch_angles(7))))

    def test_sequences_are_stored_as_tuples(self):
        lengths, axes = [0.5, 0.4], [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        chain = ChainSpec(n_joints=2, link_lengths=lengths, joint_axes=axes)
        lengths[0], axes[0][2] = 9.0, -1.0
        assert chain.link_lengths == (0.5, 0.4)
        assert chain.joint_axes == ((0.0, 0.0, 1.0), (0.0, 1.0, 0.0))


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

    @pytest.mark.parametrize("kwargs, match", [
        ({"n_joints": 0, "link_lengths": ()}, "n_joints >= 1"),
        ({"n_joints": 1, "link_lengths": (0.3,), "joint_axes": ((1.0, 0.0),)}, "3 components"),
        ({"n_joints": 1, "link_lengths": (0.3,), "joint_axes": ((0.0, 0.0, 1.0, 0.0),)},
         "3 components"),
    ], ids=["no-joints", "2-component-axis", "4-component-axis"])
    def test_chain_that_forward_kinematics_cannot_run_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ChainSpec(**kwargs)
