"""Pose denoiser contract: update strategy, supervision targets, oracles, loss.

A denoiser maps a noisy pose to a prediction triplet:

    v_xy  -- 2D displacement of the projected translation, in pixels
    dr6   -- 6D representation of the corrective rotation (left-multiplied)
    v_z   -- multiplicative depth ratio, > 0

`apply_update` turns the triplet into a denoised pose, depth first:

    z_hat  = v_z * z_t
    xy_hat = (v_xy / f + xy_t / z_t) * z_hat
    R_hat  = gram_schmidt(dr6) @ R_t

`compute_gt_targets` inverts it exactly, so apply_update(compute_gt_targets)
recovers the ground truth to machine precision.

Oracle denoisers replace a learned network at desk scale:

    PERFECT      exact targets.
    NOISY(s0)    targets corrupted by Gaussian noise whose std follows the
                 schedule, s0 * sqrt(1 - alpha_bar_t): predictions degrade
                 at larger conditioning timesteps exactly as the forward
                 noise grows. An imperfect oracle also has a bounded
                 correction range: when the input pose deviates beyond
                 `competence` (k-sigma) times the conditioning scale, the
                 correction is shrunk proportionally, so lying to the
                 denoiser about the timestep degrades it the way an
                 out-of-distribution input degrades a trained network.
                 s0 = 0 is bit-identical to PERFECT.
    BIASED(b)    constant pixel offset on v_xy, modeling systematic drift
                 and premature convergence.

Noise stds are matched per component to the diffusion scales, so a noise
level of s0 means the predicted pose deviates from ground truth by s0
units of forward-process noise regardless of camera intrinsics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyPointSet, InvalidConfig, NonPositiveDepth, fail_where
from .forward_diffusion import NoiseScales, Schedule, standard_normal
from .mononorm import NormConfig, normalize
from .robot_chain import JointConfig
from .se3_camera import CameraIntrinsics, Pose, gram_schmidt_6d

_IDENTITY_ROT6 = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])


@dataclass
class DenoiserOutput:
    """Prediction triplet (v_xy pixels, dr6 rotation columns, v_z depth ratio).

    For a batch of N poses the fields are (N, 2), (N, 6) and (N,) arrays.
    """

    v_xy: np.ndarray
    dr6: np.ndarray
    v_z: float | np.ndarray

    def __post_init__(self):
        if getattr(self.v_z, "ndim", 0) == 0:
            self.v_xy = np.asarray(self.v_xy, dtype=float).reshape(2)
            self.dr6 = np.asarray(self.dr6, dtype=float).reshape(6)
            self.v_z = float(self.v_z)
        else:
            self.v_z = np.asarray(self.v_z, dtype=float)
            self.v_xy = np.asarray(self.v_xy, dtype=float).reshape(self.v_z.shape + (2,))
            self.dr6 = np.asarray(self.dr6, dtype=float).reshape(self.v_z.shape + (6,))

    @classmethod
    def identity(cls) -> "DenoiserOutput":
        return cls(np.zeros(2), _IDENTITY_ROT6.copy(), 1.0)


@dataclass
class Observation:
    """Everything an estimation run may condition on for one scenario.

    Stands in for the image: ground truth (visible only to oracles), the
    camera, the joint configuration, and the projected 2D keypoints.
    Keypoints behind the camera are stored as NaN rows.

    A batch (`Observation.stack`) holds a batched `gt_pose` and `intrinsics`
    and a list of joint configurations; no estimator reads the 2D keypoints,
    so a batch leaves them out.
    """

    gt_pose: Pose
    intrinsics: CameraIntrinsics
    joints: JointConfig | list
    keypoints_2d: np.ndarray | None = None

    @classmethod
    def stack(cls, observations) -> "Observation":
        """One batch from a sequence of single-scenario observations."""
        return cls(
            Pose.stack([o.gt_pose for o in observations]),
            CameraIntrinsics.stack([o.intrinsics for o in observations]),
            [o.joints for o in observations],
        )

    def __getitem__(self, rows) -> "Observation":
        """The observations of the selected batch rows."""
        joints = [self.joints[i] for i in np.arange(len(self.joints))[rows]]
        return Observation(self.gt_pose[rows], self.intrinsics[rows], joints)


def apply_update(
    pose_t: Pose,
    out: DenoiserOutput,
    intrinsics: CameraIntrinsics,
    reasons: np.ndarray | None = None,
) -> Pose:
    """Apply a prediction triplet to a noisy pose; depth is updated first.

    Raises:
        NonPositiveDepth: if the input depth or v_z is not positive.
        DegenerateRotation6D: propagated from dr6 orthogonalization.
        Given `reasons`, failing rows are recorded there instead, in that order.
    """
    z_t = pose_t.t.T[2]
    fail_where(z_t <= 0, NonPositiveDepth, reasons, "input pose depth {} is not positive", z_t)
    fail_where(out.v_z <= 0, NonPositiveDepth, reasons, "depth ratio {} is not positive", out.v_z)
    z_hat = out.v_z * z_t
    f = np.asarray(intrinsics.f)[..., None]
    xy_hat = (out.v_xy / f + pose_t.t[..., :2] / z_t[..., None]) * z_hat[..., None]
    R_hat = gram_schmidt_6d(out.dr6, reasons) @ pose_t.R
    return Pose(R_hat, np.concatenate([xy_hat, z_hat[..., None]], axis=-1))


def compute_gt_targets(
    pose_t: Pose, pose0: Pose, intrinsics: CameraIntrinsics, reasons: np.ndarray | None = None
) -> DenoiserOutput:
    """Supervision triplet that maps pose_t exactly onto pose0 via apply_update.

    Raises:
        NonPositiveDepth: if either pose has non-positive depth; given
            `reasons`, such rows are recorded there instead.
    """
    z_t, z_0 = pose_t.t.T[2], pose0.t.T[2]
    bad = (z_t <= 0) | (z_0 <= 0)
    fail_where(bad, NonPositiveDepth, reasons, "both poses must have positive depth")
    dR = pose0.R @ pose_t.R.swapaxes(-1, -2)
    dr6 = np.concatenate([dR[..., 0], dR[..., 1]], axis=-1)
    v_z = z_0 / z_t
    v_xy = np.asarray(intrinsics.f)[..., None] * (
        pose0.t[..., :2] / z_0[..., None] - pose_t.t[..., :2] / z_t[..., None]
    )
    return DenoiserOutput(v_xy, dr6, v_z)


def point_distance(pose_a: Pose, pose_b: Pose, points: np.ndarray) -> float | np.ndarray:
    """Mean Euclidean distance between the two transforms of a point set.

    Batched poses give one distance per row; `points` is then (K, 3) or
    (N, K, 3).

    Raises:
        EmptyPointSet: on an empty point list.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim < 2:
        pts = pts.reshape(-1, 3)
    if pts.shape[-2] == 0:
        raise EmptyPointSet("point set is empty")
    diff = pose_a.transform(pts) - pose_b.transform(pts)
    dist = np.mean(np.linalg.norm(diff, axis=-1), axis=-1)
    return float(dist) if dist.ndim == 0 else dist


def decomposed_loss(
    pose0: Pose,
    pose_t: Pose,
    out: DenoiserOutput,
    points: np.ndarray,
    intrinsics: CameraIntrinsics,
) -> tuple[float, float, float, float]:
    """Per-prediction point-distance losses (loss_xy, loss_rot, loss_z, total).

    Each term rebuilds the denoised pose using one predicted component with
    the other two replaced by their ground-truth targets, so a term responds
    only to errors in its own component.
    """
    gt = compute_gt_targets(pose_t, pose0, intrinsics)
    pose_xy = apply_update(pose_t, DenoiserOutput(out.v_xy, gt.dr6, gt.v_z), intrinsics)
    pose_rot = apply_update(pose_t, DenoiserOutput(gt.v_xy, out.dr6, gt.v_z), intrinsics)
    pose_z = apply_update(pose_t, DenoiserOutput(gt.v_xy, gt.dr6, out.v_z), intrinsics)
    loss_xy = point_distance(pose0, pose_xy, points)
    loss_rot = point_distance(pose0, pose_rot, points)
    loss_z = point_distance(pose0, pose_z, points)
    return loss_xy, loss_rot, loss_z, loss_xy + loss_rot + loss_z


@dataclass
class PerfectOracle:
    """Returns exact ground-truth targets."""

    def predict(
        self, pose_t: Pose, t: int, obs: Observation, rng, reasons: np.ndarray | None = None
    ) -> DenoiserOutput:
        return compute_gt_targets(pose_t, obs.gt_pose, obs.intrinsics, reasons)


@dataclass
class NoisyOracle:
    """Schedule-coupled imperfect denoiser; see module docstring.

    `competence` is the k-sigma half-width of the correction range relative
    to the conditioning timestep's noise scale. The range limit and the
    additive noise are both disabled at sigma0 = 0.
    """

    sigma0: float
    sched: Schedule
    scales: NoiseScales
    cfg: NormConfig
    competence: float = 3.0

    def predict(
        self, pose_t: Pose, t: int, obs: Observation, rng, reasons: np.ndarray | None = None
    ) -> DenoiserOutput:
        """Noisy targets at timestep `t`, or at one timestep per row; a batch
        draws one 9-vector from each row's generator."""
        exact = compute_gt_targets(pose_t, obs.gt_pose, obs.intrinsics, reasons)
        if self.sigma0 == 0.0:
            return exact

        level = np.sqrt(1.0 - self.sched.alpha_bar[t])
        K = obs.intrinsics
        z_t = pose_t.t.T[2]

        # Correction range limit: deviation measured in units of the
        # per-component diffusion scales, compared with the k-sigma window
        # implied by the conditioning timestep.
        n_t = normalize(pose_t, K, self.cfg, reasons).as_vector()
        n_0 = normalize(obs.gt_pose, K, self.cfg, reasons).as_vector()
        rel = (n_t - n_0) / self.scales.as_vector()
        deviation = np.sqrt((rel * rel).sum(axis=-1)) / 3.0
        window = self.competence * level
        v_xy, dr6, v_z = exact.v_xy, exact.dr6, exact.v_z
        limited = deviation > window
        if limited.any() if isinstance(limited, np.ndarray) else limited:
            c = window / deviation
            rows = limited[..., None]
            v_xy = np.where(rows, c[..., None] * v_xy, v_xy)
            dr6 = np.where(rows, _IDENTITY_ROT6 + c[..., None] * (dr6 - _IDENTITY_ROT6), dr6)
            v_z = np.where(limited, 1.0 + c * (v_z - 1.0), v_z)

        # Additive prediction noise, matched per component to the forward
        # noise scales so sigma0 is in schedule units; one scale per row.
        sigma = self.sigma0 * np.asarray(level)[..., None]
        z = standard_normal(rng)
        dr6 = dr6 + sigma * self.scales.s_rot * z[..., :6]
        v_xy = v_xy + sigma * self.scales.s_xy * np.array([K.w, K.h]).T * z[..., 6:8]
        v_z = v_z + sigma[..., 0] * (self.scales.s_z / z_t) * z[..., 8]
        v_z = np.maximum(v_z, 1e-9)
        return DenoiserOutput(v_xy, dr6, v_z)


@dataclass
class BiasedOracle:
    """Exact targets with a constant pixel offset on v_xy."""

    bias: float

    def predict(
        self, pose_t: Pose, t: int, obs: Observation, rng, reasons: np.ndarray | None = None
    ) -> DenoiserOutput:
        exact = compute_gt_targets(pose_t, obs.gt_pose, obs.intrinsics, reasons)
        return DenoiserOutput(exact.v_xy + self.bias, exact.dr6, exact.v_z)


# Oracle kinds of a denoiser spec, with the default of their parameter.
DENOISER_KINDS = {"perfect": None, "noisy": 0.1, "biased": 5.0}


def parse_denoiser_spec(spec: str) -> tuple[str, float | None]:
    """Kind and parameter of a spec: perfect | noisy:S0 | biased:PX.

    Raises:
        InvalidConfig: on an unknown kind, a parameter that is not a finite
            number, a parameter given to `perfect`, or a negative S0.
    """
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    if name not in DENOISER_KINDS:
        raise InvalidConfig(
            f"denoiser: unknown denoiser kind {spec!r}; use perfect, noisy:S0 or biased:PX"
        )
    if name == "perfect":
        if arg.strip():
            raise InvalidConfig(f"denoiser: perfect takes no parameter, got {spec!r}")
        return name, None
    try:
        value = float(arg) if arg.strip() else DENOISER_KINDS[name]
    except ValueError:
        raise InvalidConfig(f"denoiser: parameter of {spec!r} is not a number") from None
    if not math.isfinite(value):
        raise InvalidConfig(f"denoiser: parameter of {spec!r} is not finite")
    if name == "noisy" and value < 0:
        raise InvalidConfig(f"denoiser: noise level of {spec!r} is negative")
    return name, value


def parse_denoiser(
    spec: str,
    sched: Schedule,
    scales: NoiseScales,
    cfg: NormConfig,
    competence: float = 3.0,
):
    """Build an oracle from a CLI-style spec: perfect | noisy:S0 | biased:PX."""
    name, value = parse_denoiser_spec(spec)
    if name == "perfect":
        return PerfectOracle()
    if name == "noisy":
        return NoisyOracle(sigma0=value, sched=sched, scales=scales, cfg=cfg, competence=competence)
    return BiasedOracle(bias=value)


def denoise(
    pose_t: Pose,
    t: int,
    obs: Observation,
    oracle,
    rng,
    reasons: np.ndarray | None = None,
) -> Pose:
    """One denoiser application: predict a triplet and apply it to pose_t.

    `rng` is one generator, or one per row of a batch; `reasons` records
    failing rows of a batch (see `errors.fail`).
    """
    out = oracle.predict(pose_t, t, obs, rng, reasons=reasons)
    return apply_update(pose_t, out, obs.intrinsics, reasons)
