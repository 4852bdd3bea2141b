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
    """Monocular-normalized pose: one 9-vector `vec`, laid out [rot6 | tx_n, ty_n, tz_n].

    Arbitrary reals are legal (diffusion noise lands here); only
    `denormalize` imposes validity requirements. A batch of N poses has
    `vec` (N, 9). The named components are views of `vec`: `rot6` (..., 6)
    and `tx_n`, `ty_n`, `tz_n` (...), 0-d for a single pose.
    """

    vec: np.ndarray

    def __post_init__(self):
        self.vec = np.asarray(self.vec, dtype=float)
        self.rot6 = self.vec[..., :6]
        self.tx_n = self.vec[..., 6]
        self.ty_n = self.vec[..., 7]
        self.tz_n = self.vec[..., 8]

    def as_vector(self) -> np.ndarray:
        """The 9-vector itself, `vec`; not a copy."""
        return self.vec


def normalize(
    pose: Pose, intrinsics: CameraIntrinsics, cfg: NormConfig, reasons: np.ndarray | None = None
) -> NormalizedPose:
    """Map a pose with positive depth to its normalized 9-vector form: R's first two
    columns, then the three translation components, written into one array.

    Batches of poses and cameras map row by row.

    Raises:
        NonPositiveDepth: if pose.t.z <= 0; given `reasons`, such rows are
            recorded there instead (see `errors.fail_where`).
    """
    tx, ty, tz = pose.t.T
    fail_where(tz <= 0, NonPositiveDepth, reasons, "pose depth {} is not positive", tz)
    vec = np.empty(pose.t.shape[:-1] + (9,))
    vec[..., :3] = pose.R[..., 0]
    vec[..., 3:6] = pose.R[..., 1]
    vec[..., 6] = intrinsics.f * tx / (intrinsics.w * tz)
    vec[..., 7] = intrinsics.f * ty / (intrinsics.h * tz)
    vec[..., 8] = tz - cfg.c_z
    return NormalizedPose(vec)


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
    # Scalars for one pose, row views for a batch: numpy ops on 0-d views cost far more.
    tx_n, ty_n, tz_n = n.vec[..., 6:].T
    tz = tz_n + cfg.c_z
    fail_where(tz <= 0, NonPositiveDepth, reasons, "recovered depth {} is not positive", tz)
    tx = (intrinsics.w * tz / intrinsics.f) * tx_n
    ty = (intrinsics.h * tz / intrinsics.f) * ty_n
    R = gram_schmidt_6d(n.rot6, reasons)
    t = np.empty(np.shape(tz) + (3,))
    t[..., 0], t[..., 1], t[..., 2] = tx, ty, tz
    return Pose(R, t)

