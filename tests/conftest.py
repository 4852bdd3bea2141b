import numpy as np
import pytest

from posediff import (
    CameraIntrinsics,
    ChainSpec,
    NoiseScales,
    NormConfig,
    Pose,
    gram_schmidt_6d,
    make_linear_schedule,
)


@pytest.fixture
def intrinsics():
    return CameraIntrinsics(f=600.0, w=640, h=480)


@pytest.fixture
def norm_cfg():
    return NormConfig()


@pytest.fixture
def sched():
    return make_linear_schedule()


@pytest.fixture
def scales(norm_cfg):
    return NoiseScales.for_config(norm_cfg)


@pytest.fixture
def chain():
    return ChainSpec()


def random_pose(rng, z_range=(0.4, 2.8), xy_scale=0.3):
    """Valid random pose with positive depth, inside a loose working volume."""
    R = gram_schmidt_6d(rng.standard_normal(6))
    z = rng.uniform(*z_range)
    t = np.array([rng.uniform(-xy_scale, xy_scale) * z,
                  rng.uniform(-xy_scale, xy_scale) * z,
                  z])
    return Pose(R, t)


def rotation_error(R):
    """Max deviation of R from SO(3): orthonormality plus determinant."""
    ortho = np.abs(R.T @ R - np.eye(3)).max()
    return max(ortho, abs(np.linalg.det(R) - 1.0))


@pytest.fixture
def make_pose():
    return random_pose
