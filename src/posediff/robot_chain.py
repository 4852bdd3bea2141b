"""Synthetic serial-link robot: forward kinematics to 3D keypoints.

A chain of n revolute joints. Joint i rotates about its axis and carries
link i, so every joint moves the keypoints distal to it. With all angles
zero the chain extends along +X with keypoints at the cumulative link
lengths. Link lengths default to a Franka-scale arm so distance metrics
land in a realistic meters range.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

_DEFAULT_LENGTHS = (0.33, 0.32, 0.21, 0.21, 0.18, 0.11, 0.10)


def _default_axes(n: int) -> tuple[tuple[float, float, float], ...]:
    # Alternate z / y rotation axes down the chain.
    return tuple(
        (0.0, 0.0, 1.0) if i % 2 == 0 else (0.0, 1.0, 0.0) for i in range(n)
    )


def _axis_angle_matrices(axes: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rodrigues rotations about unit axes (J, 3) by angles (..., J), shape (..., J, 3, 3)."""
    x, y, z = axes.T
    c, s = np.cos(angles), np.sin(angles)
    C = 1.0 - c
    M = np.empty(angles.shape + (3, 3))
    M[..., 0, 0], M[..., 0, 1], M[..., 0, 2] = c + x * x * C, x * y * C - z * s, x * z * C + y * s
    M[..., 1, 0], M[..., 1, 1], M[..., 1, 2] = y * x * C + z * s, c + y * y * C, y * z * C - x * s
    M[..., 2, 0], M[..., 2, 1], M[..., 2, 2] = z * x * C - y * s, z * y * C + x * s, c + z * z * C
    return M


def _json_value(value, key: str, types: tuple = (int, float)):
    """`value`, read from the chain file's `key`, as the last of `types`."""
    # Types match exactly, so that a JSON true is not taken for 1 nor a string for a number.
    if type(value) not in types:
        kind = "an integer" if types == (int,) else "a number"
        raise ValueError(f"{key}: expected {kind}, got {json.dumps(value)}")
    return types[-1](value)


@dataclass
class ChainSpec:
    """Geometry of the synthetic arm: link lengths (meters) and joint axes."""

    n_joints: int = 7
    link_lengths: tuple = _DEFAULT_LENGTHS
    joint_axes: tuple = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.joint_axes is None:
            self.joint_axes = _default_axes(self.n_joints)
        if len(self.link_lengths) != self.n_joints:
            raise ValueError(
                f"expected {self.n_joints} link lengths, got {len(self.link_lengths)}"
            )
        if len(self.joint_axes) != self.n_joints:
            raise ValueError(
                f"expected {self.n_joints} joint axes, got {len(self.joint_axes)}"
            )
        if not all(0 < l < math.inf for l in self.link_lengths):
            raise ValueError("link lengths must be positive and finite")
        for ax in self.joint_axes:
            # Written so that a NaN component fails the comparison and is rejected.
            if not abs(np.linalg.norm(ax) - 1.0) <= 1e-9:
                raise ValueError(f"joint axis {ax} is not unit-norm")

    @classmethod
    def from_json(cls, path: str) -> "ChainSpec":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        fields = {"n_joints", "link_lengths", "joint_axes"}
        if not isinstance(data, dict) or not set(data) <= fields:
            raise ValueError(f"a chain file is a JSON object with keys among {sorted(fields)}")
        kwargs = {}
        if "n_joints" in data:
            kwargs["n_joints"] = _json_value(data["n_joints"], "n_joints", (int,))
        if "link_lengths" in data:
            kwargs["link_lengths"] = tuple(
                _json_value(x, "link_lengths") for x in data["link_lengths"]
            )
            kwargs.setdefault("n_joints", len(kwargs["link_lengths"]))
        if "joint_axes" in data:
            kwargs["joint_axes"] = tuple(
                tuple(_json_value(x, "joint_axes") for x in ax) for ax in data["joint_axes"]
            )
        return cls(**kwargs)


@dataclass
class JointConfig:
    """Joint angles in radians: (J,) for one configuration, (N, J) for a batch."""

    angles: np.ndarray

    def __post_init__(self):
        self.angles = np.atleast_1d(np.asarray(self.angles, dtype=float))
        if not np.isfinite(self.angles).all():
            raise ValueError("joint angles must be finite")

    @classmethod
    def zeros(cls, n: int = 7) -> "JointConfig":
        return cls(np.zeros(n))


def forward_kinematics(spec: ChainSpec, joints: JointConfig) -> np.ndarray:
    """Joint keypoints of the chain in the robot base frame, shape (n+1, 3).

    Keypoint 0 sits at the origin; keypoint i+1 extends keypoint i by link i
    rotated through the composition of joints 1..i+1. Batched angles (N, n)
    give (N, n+1, 3), each row as it would alone.

    Raises:
        DimensionMismatch: if the angle count differs from n_joints.
    """
    angles = joints.angles
    if angles.shape[-1] != spec.n_joints:
        raise DimensionMismatch(
            f"chain has {spec.n_joints} joints, got {angles.shape[-1]} angles"
        )
    M = _axis_angle_matrices(np.asarray(spec.joint_axes, dtype=float), angles)
    keypoints = np.zeros(angles.shape[:-1] + (spec.n_joints + 1, 3))
    R = np.eye(3)
    for i, length in enumerate(spec.link_lengths):
        R = R @ M[..., i, :, :]
        # Link i lies along +X before rotation, so it points along R's first column.
        keypoints[..., i + 1, :] = keypoints[..., i, :] + R[..., :, 0] * length
    return keypoints


def sample_points(spec: ChainSpec, joints: JointConfig, per_link: int = 9) -> np.ndarray:
    """Keypoints plus `per_link` evenly spaced interior points on each link.

    Deterministic: the same (spec, joints) always yields the same points.
    Interior points sit at fractions k/(per_link+1), k = 1..per_link, so
    per_link=1 gives midpoints. Total count is P = (n+1) + n*per_link, so the
    shape is (P, 3), or (N, P, 3) for batched angles (N, n).
    """
    if per_link < 1:
        raise ValueError("per_link must be >= 1")
    keypoints = forward_kinematics(spec, joints)
    fracs = np.arange(1, per_link + 1) / (per_link + 1)
    a, b = keypoints[..., :-1, None, :], keypoints[..., 1:, None, :]
    interior = a + fracs[:, None] * (b - a)
    return np.concatenate(
        [keypoints, interior.reshape(keypoints.shape[:-2] + (-1, 3))], axis=-2
    )
