"""Synthetic serial-link robot: forward kinematics to 3D keypoints.

A chain of n revolute joints. Joint i rotates about its axis and carries
link i, so every joint moves the keypoints distal to it. With all angles
zero the chain extends along +X with keypoints at the cumulative link
lengths. Link lengths default to a Franka-scale arm so distance metrics
land in a realistic meters range.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

_EXTENSION_AXIS = np.array([1.0, 0.0, 0.0])

_DEFAULT_LENGTHS = (0.33, 0.32, 0.21, 0.21, 0.18, 0.11, 0.10)


def _default_axes(n: int) -> tuple[tuple[float, float, float], ...]:
    # Alternate z / y rotation axes down the chain.
    return tuple(
        (0.0, 0.0, 1.0) if i % 2 == 0 else (0.0, 1.0, 0.0) for i in range(n)
    )


def _axis_angle_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation about a unit axis."""
    x, y, z = axis
    c, s = np.cos(angle), np.sin(angle)
    C = 1.0 - c
    return np.array(
        [
            [c + x * x * C, x * y * C - z * s, x * z * C + y * s],
            [y * x * C + z * s, c + y * y * C, y * z * C - x * s],
            [z * x * C - y * s, z * y * C + x * s, c + z * z * C],
        ]
    )


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
        if any(l <= 0 for l in self.link_lengths):
            raise ValueError("link lengths must be positive")
        for ax in self.joint_axes:
            if abs(np.linalg.norm(ax) - 1.0) > 1e-9:
                raise ValueError(f"joint axis {ax} is not unit-norm")

    def reach(self) -> float:
        return float(sum(self.link_lengths))

    @classmethod
    def from_json(cls, path: str) -> "ChainSpec":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        fields = {"n_joints", "link_lengths", "joint_axes"}
        if not isinstance(data, dict) or not set(data) <= fields:
            raise ValueError(f"a chain file is a JSON object with keys among {sorted(fields)}")
        kwargs = {}
        if "n_joints" in data:
            kwargs["n_joints"] = int(data["n_joints"])
        if "link_lengths" in data:
            kwargs["link_lengths"] = tuple(float(x) for x in data["link_lengths"])
            kwargs.setdefault("n_joints", len(kwargs["link_lengths"]))
        if "joint_axes" in data:
            kwargs["joint_axes"] = tuple(tuple(float(x) for x in ax) for ax in data["joint_axes"])
        return cls(**kwargs)

    def to_json(self, path: str) -> None:
        data = {
            "n_joints": self.n_joints,
            "link_lengths": list(self.link_lengths),
            "joint_axes": [list(ax) for ax in self.joint_axes],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)


@dataclass
class JointConfig:
    """Joint angles in radians."""

    angles: np.ndarray

    def __post_init__(self):
        self.angles = np.asarray(self.angles, dtype=float).reshape(-1)
        if not np.all(np.isfinite(self.angles)):
            raise ValueError("joint angles must be finite")

    @classmethod
    def zeros(cls, n: int = 7) -> "JointConfig":
        return cls(np.zeros(n))


def forward_kinematics(spec: ChainSpec, joints: JointConfig) -> np.ndarray:
    """Joint keypoints of the chain in the robot base frame, shape (n+1, 3).

    Keypoint 0 sits at the origin; keypoint i+1 extends keypoint i by link i
    rotated through the composition of joints 1..i+1.

    Raises:
        DimensionMismatch: if the angle count differs from n_joints.
    """
    if joints.angles.shape[0] != spec.n_joints:
        raise DimensionMismatch(
            f"chain has {spec.n_joints} joints, got {joints.angles.shape[0]} angles"
        )
    keypoints = np.zeros((spec.n_joints + 1, 3))
    R = np.eye(3)
    for i in range(spec.n_joints):
        axis = np.asarray(spec.joint_axes[i], dtype=float)
        R = R @ _axis_angle_matrix(axis, joints.angles[i])
        keypoints[i + 1] = keypoints[i] + R @ (_EXTENSION_AXIS * spec.link_lengths[i])
    return keypoints


def sample_points(spec: ChainSpec, joints: JointConfig, per_link: int = 9) -> np.ndarray:
    """Keypoints plus `per_link` evenly spaced interior points on each link.

    Deterministic: the same (spec, joints) always yields the same points.
    Interior points sit at fractions k/(per_link+1), k = 1..per_link, so
    per_link=1 gives midpoints. Total count is (n+1) + n*per_link.
    """
    if per_link < 1:
        raise ValueError("per_link must be >= 1")
    keypoints = forward_kinematics(spec, joints)
    fracs = np.arange(1, per_link + 1) / (per_link + 1)
    segments = []
    for i in range(spec.n_joints):
        a, b = keypoints[i], keypoints[i + 1]
        segments.append(a + fracs[:, None] * (b - a))
    return np.vstack([keypoints] + segments)
