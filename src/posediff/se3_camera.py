"""SE(3) pose and pinhole-camera primitives.

Coordinate conventions
======================
Camera frame (right-handed, standard computer vision):
  - X right, Y down, Z forward along the optical axis.
  - A robot pose used in the camera frame must have t.z > 0.

Image frame:
  - Origin top-left, u right (width), v down (height), units pixels.
  - The principal point is the image center (w/2, h/2).

6D rotation representation:
  - A length-6 vector holding the first two COLUMNS of a rotation matrix,
    (r1, r2), concatenated. Arbitrary reals are legal input to
    `gram_schmidt_6d`; orthogonalization recovers a full SO(3) matrix with
    the third column u1 x u2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BehindCamera, DegenerateRotation6D, EmptyPointSet, fail_where

# Norm below which a 6D rotation input is treated as degenerate.
GS_EPS = 1e-8

# Slack (pixels / meters) for frustum boundary comparisons, so translations
# clamped exactly onto the boundary still count as inside.
FRUSTUM_TOL = 1e-6


@dataclass
class Pose:
    """Rigid transform: 3x3 orientation `R` plus translation `t` in meters.

    A batch of N poses carries a leading axis: `R` is (N, 3, 3) and `t` is
    (N, 3). The pose-level functions of the reverse process accept either
    form; `matrix`, `rotation_error` and `validate` take a single pose.
    """

    R: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        self.R = np.asarray(self.R, dtype=float)
        if self.R.shape[-2:] != (3, 3) or self.R.ndim > 3:
            raise ValueError(f"R must be 3x3 or a batch of 3x3, got {self.R.shape}")
        self.t = np.asarray(self.t, dtype=float).reshape(self.R.shape[:-2] + (3,))

    @classmethod
    def stack(cls, poses) -> "Pose":
        """One batch from a sequence of single poses."""
        return cls(np.stack([p.R for p in poses]), np.stack([p.t for p in poses]))

    def __getitem__(self, rows) -> "Pose":
        """The poses of the selected batch rows."""
        return Pose(self.R[rows], self.t[rows])

    def rot6(self) -> np.ndarray:
        """First two columns of R, concatenated into a length-6 vector."""
        return np.concatenate([self.R[..., 0], self.R[..., 1]], axis=-1)

    def matrix(self) -> np.ndarray:
        """4x4 homogeneous matrix [[R, t], [0, 1]]."""
        H = np.eye(4)
        H[:3, :3] = self.R
        H[:3, 3] = self.t
        return H

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Apply the transform to (K, 3) points; a batch gives (N, K, 3).

        A batch takes either one shared (K, 3) point set or (N, K, 3).
        """
        pts = np.asarray(points, dtype=float)
        return pts @ self.R.swapaxes(-1, -2) + self.t[..., None, :]

    def rotation_error(self) -> float:
        """Max deviation of R from SO(3): orthonormality plus determinant."""
        ortho = np.abs(self.R.T @ self.R - np.eye(3)).max()
        return max(ortho, abs(np.linalg.det(self.R) - 1.0))

    def validate(self, atol: float = 1e-9) -> "Pose":
        if self.rotation_error() > atol:
            raise ValueError("R is not a rotation matrix within tolerance")
        return self

    def copy(self) -> "Pose":
        return Pose(self.R.copy(), self.t.copy())


@dataclass
class CameraIntrinsics:
    """Pinhole intrinsics: focal length and image size in pixels.

    A single focal length is used for both axes. The principal point is
    the image center: `normalize` relies on it to map the image onto the
    box [-0.5, 0.5]^2, so `cx`/`cy` are derived and cannot be set. For a
    batch of N cameras every field is an (N,) array.
    """

    f: float
    w: int
    h: int

    def __post_init__(self):
        fields = (self.f, self.w, self.h)
        if not all(np.all(v > 0) if isinstance(v, np.ndarray) else v > 0 for v in fields):
            raise ValueError("f, w, h must all be positive")

    @property
    def cx(self) -> float | np.ndarray:
        return self.w / 2.0

    @property
    def cy(self) -> float | np.ndarray:
        return self.h / 2.0

    @classmethod
    def stack(cls, cameras) -> "CameraIntrinsics":
        """One batch of (N,) fields from a sequence of single cameras."""
        f, w, h = (np.array([getattr(k, name) for k in cameras]) for name in ("f", "w", "h"))
        return cls(f, w, h)

    def __getitem__(self, rows) -> "CameraIntrinsics":
        """The cameras of the selected batch rows."""
        return CameraIntrinsics(self.f[rows], self.w[rows], self.h[rows])

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.f, 0.0, self.cx], [0.0, self.f, self.cy], [0.0, 0.0, 1.0]]
        )


def gram_schmidt_6d(r6: np.ndarray, reasons: np.ndarray | None = None) -> np.ndarray:
    """Orthogonalize a 6D rotation representation into an SO(3) matrix.

    Accepts shape (..., 6); returns (..., 3, 3). The first three entries are
    the (unnormalized) first column, the last three the second-column hint:

        u1 = r1 / ||r1||
        u2 = normalize(r2 - (r2 . u1) u1)
        u3 = u1 x u2

    Raises:
        DegenerateRotation6D: if ||r1|| < GS_EPS or the component of r2
            orthogonal to r1 has norm < GS_EPS anywhere in the batch. Given a
            per-row `reasons` array (see `errors.fail_where`), degenerate
            rows are recorded there instead and come back non-finite or
            arbitrary; call under np.errstate to silence their warnings.
    """
    r6 = np.asarray(r6, dtype=float)
    if r6.shape[-1] != 6:
        raise ValueError(f"expected trailing dimension 6, got {r6.shape}")
    # Components along the last axis: scalars for one vector, arrays for a
    # batch. With at most two axes, r6.T moves that axis first at no cost.
    a0, a1, a2, b0, b1, b2 = r6.T if r6.ndim <= 2 else np.moveaxis(r6, -1, 0)
    R = np.empty(r6.shape[:-1] + (3, 3))
    n1 = np.sqrt(a0 * a0 + a1 * a1 + a2 * a2)
    fail_where(n1 < GS_EPS, DegenerateRotation6D, reasons, "first column norm below threshold")
    u0, u1, u2 = a0 / n1, a1 / n1, a2 / n1

    dot = b0 * u0 + b1 * u1 + b2 * u2
    v0, v1, v2 = b0 - dot * u0, b1 - dot * u1, b2 - dot * u2
    n2 = np.sqrt(v0 * v0 + v1 * v1 + v2 * v2)
    fail_where(
        n2 < GS_EPS, DegenerateRotation6D, reasons, "second column is collinear with the first"
    )
    w0, w1, w2 = v0 / n2, v1 / n2, v2 / n2

    R[..., 0, 0], R[..., 1, 0], R[..., 2, 0] = u0, u1, u2
    R[..., 0, 1], R[..., 1, 1], R[..., 2, 1] = w0, w1, w2
    # Third column u x w, written out: np.cross on short vectors costs more
    # than the whole orthogonalization.
    R[..., 0, 2] = u1 * w2 - u2 * w1
    R[..., 1, 2] = u2 * w0 - u0 * w2
    R[..., 2, 2] = u0 * w1 - u1 * w0
    return R


def project_point(p: np.ndarray, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Pinhole projection of a camera-frame point (meters) to pixels.

    Raises:
        BehindCamera: if p.z <= 0.
    """
    p = np.asarray(p, dtype=float).reshape(3)
    if p[2] <= 0:
        raise BehindCamera(f"point depth {p[2]} is not positive")
    u = intrinsics.f * (p[0] / p[2]) + intrinsics.cx
    v = intrinsics.f * (p[1] / p[2]) + intrinsics.cy
    return np.array([u, v])


def project_points(points: np.ndarray, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Batched projection of (N, 3) camera-frame points to (N, 2) pixels."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if pts.shape[0] == 0:
        raise EmptyPointSet("no points to project")
    if np.any(pts[:, 2] <= 0):
        raise BehindCamera("at least one point has non-positive depth")
    uv = pts[:, :2] / pts[:, 2:3]
    uv = uv * intrinsics.f
    uv[:, 0] += intrinsics.cx
    uv[:, 1] += intrinsics.cy
    return uv


def in_frustum(
    pose: Pose,
    intrinsics: CameraIntrinsics,
    margin: float = 0.05,
    z_range: tuple[float, float] = (0.3, 3.0),
) -> bool | np.ndarray:
    """True iff the pose's translation projects inside the margin-shrunk image
    and its depth lies in `z_range`; a batch of poses gives one flag per row.

    Boundary comparisons carry a small tolerance so values clamped exactly to
    the frustum boundary count as inside. A pose behind the camera is False,
    never an error.
    """
    x, y, z = pose.t.T
    z_min, z_max = z_range
    with np.errstate(divide="ignore", invalid="ignore"):
        u = intrinsics.f * (x / z) + intrinsics.cx
        v = intrinsics.f * (y / z) + intrinsics.cy
    inside = (
        (z > 0)
        & (z_min - FRUSTUM_TOL <= z) & (z <= z_max + FRUSTUM_TOL)
        & (margin * intrinsics.w - FRUSTUM_TOL <= u)
        & (u <= (1.0 - margin) * intrinsics.w + FRUSTUM_TOL)
        & (margin * intrinsics.h - FRUSTUM_TOL <= v)
        & (v <= (1.0 - margin) * intrinsics.h + FRUSTUM_TOL)
    )
    return bool(inside) if np.ndim(inside) == 0 else inside
