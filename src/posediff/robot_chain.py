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
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch

_DEFAULT_LENGTHS = (0.33, 0.32, 0.21, 0.21, 0.18, 0.11, 0.10)


def _default_axes(n: int) -> tuple[tuple[float, float, float], ...]:
    # Alternate z / y rotation axes down the chain.
    return tuple(
        (0.0, 0.0, 1.0) if i % 2 == 0 else (0.0, 1.0, 0.0) for i in range(n)
    )


def _json_value(value, key: str, types: tuple = (int, float)):
    """`value`, read from the chain file's `key`, as the last of `types`."""
    # Types match exactly, so that a JSON true is not taken for 1 nor a string for a number.
    if type(value) not in types:
        kind = "an integer" if types == (int,) else "a number"
        raise ValueError(f"{key}: expected {kind}, got {json.dumps(value)}")
    return types[-1](value)


@dataclass(frozen=True)
class ChainSpec:
    """Geometry of the synthetic arm: link lengths (meters) and joint axes.

    Frozen, and its sequences are stored as tuples, so the forward-kinematics
    constants cached from them cannot go stale.
    """

    n_joints: int = 7
    link_lengths: tuple = _DEFAULT_LENGTHS
    joint_axes: tuple = None  # type: ignore[assignment]

    def __post_init__(self):
        # The counts are checked before the default axes are built, n_joints of them.
        object.__setattr__(self, "link_lengths", tuple(self.link_lengths))
        if self.n_joints < 1:
            raise ValueError(f"a chain needs n_joints >= 1, got {self.n_joints}")
        if len(self.link_lengths) != self.n_joints:
            raise ValueError(
                f"expected {self.n_joints} link lengths, got {len(self.link_lengths)}"
            )
        axes = _default_axes(self.n_joints) if self.joint_axes is None else self.joint_axes
        object.__setattr__(self, "joint_axes", tuple(tuple(ax) for ax in axes))
        if len(self.joint_axes) != self.n_joints:
            raise ValueError(
                f"expected {self.n_joints} joint axes, got {len(self.joint_axes)}"
            )
        if not all(0 < l < math.inf for l in self.link_lengths):
            raise ValueError("link lengths must be positive and finite")
        for ax in self.joint_axes:
            if len(ax) != 3:
                raise ValueError(f"joint axis {ax} does not have 3 components")
            # Written so that a NaN component fails the comparison and is rejected.
            if not abs(np.linalg.norm(ax) - 1.0) <= 1e-9:
                raise ValueError(f"joint axis {ax} is not unit-norm")

    @cached_property
    def _kinematics(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only constants of `forward_kinematics`: each joint's Rodrigues terms
        `a aᵀ`, `[a]×` and I as (J, 3, 3, 1), and the link lengths as (J, 1, 1)."""
        a = np.array(self.joint_axes, dtype=float)
        x, y, z = a.T
        zero = np.zeros_like(x)
        outer = a[:, :, None, None] * a[:, None, :, None]
        skew = np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=-1).reshape(-1, 3, 3, 1)
        identity = np.broadcast_to(np.eye(3)[..., None], outer.shape)
        lengths = np.array(self.link_lengths, dtype=float).reshape(-1, 1, 1)
        for m in (outer, skew, lengths):
            m.flags.writeable = False
        return outer, skew, identity, lengths

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
    give (N, n+1, 3), each row as it would alone. The per-joint constants are
    built once per chain (`ChainSpec._kinematics`), so a call costs a fixed
    number of numpy operations, whatever its batch size.

    Raises:
        DimensionMismatch: if the angle count differs from n_joints.
    """
    angles = joints.angles
    if angles.shape[-1] != spec.n_joints:
        raise DimensionMismatch(
            f"chain has {spec.n_joints} joints, got {angles.shape[-1]} angles"
        )
    J = spec.n_joints
    outer, skew, identity, lengths = spec._kinematics
    # Joint-major with the batch innermost, angles as (J, N) (N = 1 for one configuration),
    # so that each elementwise op below runs over the whole batch in one inner loop.
    a = angles.reshape(-1, J).T
    c, s = np.cos(a)[:, None, None, :], np.sin(a)[:, None, None, :]
    # Rodrigues, a aᵀ (1 - cos) + [a]× sin + I cos, as (J, 3, 3, N) ...
    M = outer * (1.0 - c)
    M += skew * s
    M += identity * c
    # ... copied to (J, N, 3, 3) (no copy at N = 1) for the chain product, where R[i]
    # composes joints 0..i. R[0] is M[0]: the product eye(3) @ M[0] could differ from it
    # only in the sign of a zero, which no keypoint shows.
    M = np.ascontiguousarray(M.transpose(0, 3, 1, 2))
    R = np.empty_like(M)
    R[0] = M[0]
    for i in range(1, J):
        np.matmul(R[i - 1], M[i], out=R[i])
    # Link i lies along +X before rotation, so it points along R[i]'s first column.
    # Keypoint i + 1 sums links 0..i in order, as (J + 1, N, 3); callers get a fresh
    # C-contiguous (..., J + 1, 3) array.
    keypoints = np.zeros((J + 1,) + R.shape[1:3])
    np.multiply(R[..., 0], lengths, out=keypoints[1:])
    np.cumsum(keypoints, axis=0, out=keypoints)
    keypoints = np.ascontiguousarray(keypoints.transpose(1, 0, 2))
    return keypoints.reshape(angles.shape[:-1] + (J + 1, 3))


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
    if len(fracs) != per_link:  # numpy's arange gives no values for lengths near 2**63
        raise ValueError(f"per_link {per_link} is past numpy's index range")
    a, b = keypoints[..., :-1, None, :], keypoints[..., 1:, None, :]
    interior = a + fracs[:, None] * (b - a)
    return np.concatenate(
        [keypoints, interior.reshape(keypoints.shape[:-2] + (-1, 3))], axis=-2
    )
