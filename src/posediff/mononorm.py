"""Bijection between camera-frame poses and a monocular-normalized 9-vector.

A pose (R, t) maps to:

    [ r1 (3) | r2 (3) | tx_n | ty_n | tz_n ]

where r1, r2 are the first two columns of R and

    tx_n = f * t.x / (w * t.z)        # in-plane x, unitless
    ty_n = f * t.y / (h * t.z)        # in-plane y, unitless
    tz_n = t.z - c_z                  # depth offset, meters

The principal point is the image center, so tx_n equals the projected
point's fractional horizontal offset from it, and the translation
projects inside the image exactly when tx_n and ty_n lie in [-0.5, 0.5].
This makes the parameterization invariant to focal length and image size:
the same normalized value means the same relative image position on any
camera.

The inverse recovers depth first (t.z = tz_n + c_z), then the in-plane
translation, then the rotation via Gram-Schmidt. Changing R never changes
the translation components and vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveDepth, fail_where
from .se3_camera import CameraIntrinsics, Pose, gram_schmidt_6d


@dataclass
class NormConfig:
    """Depth normalization offset and the valid working depth range (meters)."""

    c_z: float = 1.5
    z_min: float = 0.3
    z_max: float = 3.0

    def __post_init__(self):
        if not (0.0 < self.z_min < self.c_z < self.z_max):
            raise ValueError(
                f"need 0 < z_min < c_z < z_max, got ({self.z_min}, {self.c_z}, {self.z_max})"
            )


@dataclass
class NormalizedPose:
    """Monocular-normalized pose: 6 rotation components plus (tx_n, ty_n, tz_n).

    Arbitrary reals are legal (diffusion noise lands here); only
    `denormalize` imposes validity requirements. A batch of N poses has
    rot6 (N, 6) and (N,) translation components.
    """

    rot6: np.ndarray
    tx_n: float | np.ndarray
    ty_n: float | np.ndarray
    tz_n: float | np.ndarray

    def __post_init__(self):
        self.rot6 = np.asarray(self.rot6, dtype=float)
        if getattr(self.tz_n, "ndim", 0) == 0:
            self.rot6 = self.rot6.reshape(6)

    def as_vector(self) -> np.ndarray:
        """Pack into the canonical 9-vector layout [rot6 | tx_n, ty_n, tz_n]."""
        vec = np.empty(self.rot6.shape[:-1] + (9,))
        vec[..., :6] = self.rot6
        vec[..., 6] = self.tx_n
        vec[..., 7] = self.ty_n
        vec[..., 8] = self.tz_n
        return vec

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "NormalizedPose":
        """Unpack a 9-vector, or an (N, 9) batch of them."""
        vec = np.asarray(vec, dtype=float)
        if vec.ndim < 2:
            vec = vec.reshape(9)
            return cls(vec[:6].copy(), float(vec[6]), float(vec[7]), float(vec[8]))
        return cls(vec[..., :6].copy(), vec[..., 6].copy(), vec[..., 7].copy(), vec[..., 8].copy())


def normalize(
    pose: Pose, intrinsics: CameraIntrinsics, cfg: NormConfig, reasons: np.ndarray | None = None
) -> NormalizedPose:
    """Map a pose with positive depth to its normalized 9-vector form.

    Batches of poses and cameras map row by row.

    Raises:
        NonPositiveDepth: if pose.t.z <= 0; given `reasons`, such rows are
            recorded there instead (see `errors.fail_where`).
    """
    tx, ty, tz = pose.t.T
    fail_where(tz <= 0, NonPositiveDepth, reasons, "pose depth {} is not positive", tz)
    tx_n = intrinsics.f * tx / (intrinsics.w * tz)
    ty_n = intrinsics.f * ty / (intrinsics.h * tz)
    return NormalizedPose(pose.rot6(), tx_n, ty_n, tz - cfg.c_z)


def denormalize(
    n: NormalizedPose,
    intrinsics: CameraIntrinsics,
    cfg: NormConfig,
    reasons: np.ndarray | None = None,
) -> Pose:
    """Invert `normalize`: depth first, then in-plane translation, then rotation.

    Raises:
        NonPositiveDepth: if the recovered depth tz_n + c_z is not positive.
        DegenerateRotation6D: propagated from Gram-Schmidt.
        Given `reasons`, failing rows are recorded there instead, depth first.
    """
    tz = n.tz_n + cfg.c_z
    fail_where(tz <= 0, NonPositiveDepth, reasons, "recovered depth {} is not positive", tz)
    tx = (intrinsics.w * tz / intrinsics.f) * n.tx_n
    ty = (intrinsics.h * tz / intrinsics.f) * n.ty_n
    R = gram_schmidt_6d(n.rot6, reasons)
    t = np.empty(np.shape(tz) + (3,))
    t[..., 0], t[..., 1], t[..., 2] = tx, ty, tz
    return Pose(R, t)

