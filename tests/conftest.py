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


def assert_same_bits(got, want):
    """Assert equal shape, dtype and bit patterns, so -0.0 differs from 0.0
    and NaNs with different payloads differ too."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, f"shape {got.shape} != {want.shape}"
    assert got.dtype == want.dtype, f"dtype {got.dtype} != {want.dtype}"
    bits = np.dtype(f"u{got.itemsize}")  # uint64 for float64
    differ = np.ravel(got).view(bits) != np.ravel(want).view(bits)
    if differ.any():
        first = tuple(int(i) for i in np.unravel_index(np.argmax(differ), got.shape))
        raise AssertionError(
            f"{differ.sum()} of {differ.size} values differ in their bits; "
            f"first at {first}: {got[first]!r} != {want[first]!r}"
        )


@pytest.fixture
def make_pose():
    return random_pose
