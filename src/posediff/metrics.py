"""Evaluation metrics (ADD, AUC) and seeded scenario generation.

ADD is the mean Euclidean distance between ground-truth-posed and
predicted-posed 3D keypoints. AUC integrates the ADD success-rate curve
over a linear threshold grid and reports on a 0-100 scale; the grid rule
(range and density) is part of every output's metadata so numbers stay
comparable.

Scenarios are regenerated deterministically from (seed, index): camera
intrinsics from configured ranges, joints uniform in limits, orientation
from a 6D Gaussian through Gram-Schmidt, and translation uniform in the
normalized in-view box so every ground-truth pose is in-frustum by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoising import Observation
from .errors import DegenerateRotation6D, EmptyPointSet, InvalidRange
from .mononorm import NormConfig, NormalizedPose, denormalize
from .robot_chain import ChainSpec, JointConfig, forward_kinematics
from .se3_camera import CameraIntrinsics, Pose

# Stream tags appended to (seed, index) when deriving per-scenario RNGs, so
# generation and the various run kinds never share draws.
STREAM_SCENARIO = 0
STREAM_ESTIMATE = 1
STREAM_DIFFUSE = 2
STREAM_TRAINSIM = 3


def scenario_rng(seed: int, index: int, stream: int) -> np.random.Generator:
    """Independent generator for one (seed, scenario, purpose) triple."""
    return np.random.default_rng([seed, index, stream])


def add_metric(gt: Pose, pred: Pose, keypoints: np.ndarray) -> float | np.ndarray:
    """Mean keypoint distance between the two poses, in meters.

    Kept independent of `denoising.point_distance` so the two serve as
    cross-checks. Batched poses with (N, K, 3) keypoints give one ADD per row.

    Raises:
        EmptyPointSet: on an empty keypoint list.
    """
    pts = np.asarray(keypoints, dtype=float)
    if pts.ndim < 2:
        pts = pts.reshape(-1, 3)
    if pts.shape[-2] == 0:
        raise EmptyPointSet("keypoint list is empty")
    cols = np.swapaxes(pts, -1, -2)
    a = np.swapaxes(gt.R @ cols, -1, -2) + gt.t[..., None, :]
    b = np.swapaxes(pred.R @ cols, -1, -2) + pred.t[..., None, :]
    add = np.sqrt(((a - b) ** 2).sum(axis=-1)).mean(axis=-1)
    return float(add) if add.ndim == 0 else add


def auc(
    adds,
    t_min: float = 1e-5,
    t_max: float = 0.1,
    n_thresholds: int = 2000,
) -> float:
    """Area under the ADD success curve on a linear threshold grid, 0-100.

    Success at threshold tau means add < tau (strict). Non-finite ADD values
    (aborted scenarios) never succeed.

    Raises:
        EmptyPointSet: on an empty ADD list.
        InvalidRange: on a bad grid specification.
    """
    values = np.asarray(list(adds), dtype=float)
    if values.size == 0:
        raise EmptyPointSet("ADD list is empty")
    if n_thresholds < 2:
        raise InvalidRange(f"n_thresholds must be >= 2, got {n_thresholds}")
    if not (0 <= t_min < t_max):
        raise InvalidRange(f"need 0 <= t_min < t_max, got ({t_min}, {t_max})")
    finite = np.sort(values[np.isfinite(values)])
    thresholds = np.linspace(t_min, t_max, n_thresholds)
    below = np.searchsorted(finite, thresholds, side="left")
    return float(100.0 * below.mean() / values.size)


@dataclass
class ScenarioRanges:
    """Sampling ranges for scenario generation."""

    f_range: tuple[float, float] = (400.0, 900.0)
    image_sizes: tuple = ((640, 480), (1280, 720))
    margin: float = 0.05
    joint_limit: float = np.pi

    def __post_init__(self):
        if not (0 < self.f_range[0] <= self.f_range[1]):
            raise InvalidRange(f"bad focal range {self.f_range}")
        if not self.image_sizes:
            raise InvalidRange("need at least one image size")
        if not (0 <= self.margin < 0.5):
            raise InvalidRange(f"margin must be in [0, 0.5), got {self.margin}")
        if self.joint_limit <= 0:
            raise InvalidRange("joint_limit must be positive")


@dataclass
class Scenario:
    index: int
    intrinsics: CameraIntrinsics
    joints: JointConfig
    gt_pose: Pose


@dataclass
class ScenarioSet:
    seed: int
    count: int
    scenarios: list

    def __iter__(self):
        return iter(self.scenarios)

    def __len__(self):
        return len(self.scenarios)


def generate_scenarios(
    seed: int,
    count: int,
    ranges: ScenarioRanges | None = None,
    chain: ChainSpec | None = None,
    cfg: NormConfig | None = None,
) -> ScenarioSet:
    """Deterministic scenario set; every ground-truth pose is in-frustum.

    Raises:
        InvalidRange: if count < 1 or the ranges are invalid.
    """
    if count < 1:
        raise InvalidRange(f"count must be >= 1, got {count}")
    ranges = ranges or ScenarioRanges()
    chain = chain or ChainSpec()
    cfg = cfg or NormConfig()

    xy_bound = 0.5 - ranges.margin
    z_lo, z_hi = cfg.z_min - cfg.c_z, cfg.z_max - cfg.c_z
    scenarios = []
    for i in range(count):
        rng = scenario_rng(seed, i, STREAM_SCENARIO)
        f = float(rng.uniform(*ranges.f_range))
        w, h = ranges.image_sizes[int(rng.integers(len(ranges.image_sizes)))]
        intrinsics = CameraIntrinsics(f=f, w=int(w), h=int(h))
        joints = JointConfig(
            rng.uniform(-ranges.joint_limit, ranges.joint_limit, chain.n_joints)
        )
        tx_n = float(rng.uniform(-xy_bound, xy_bound))
        ty_n = float(rng.uniform(-xy_bound, xy_bound))
        tz_n = float(rng.uniform(z_lo, z_hi))
        while True:
            # Gaussian 6D draws are degenerate only on a measure-zero set;
            # redrawing keeps generation total and deterministic.
            rot6 = rng.standard_normal(6)
            try:
                gt = denormalize(NormalizedPose(rot6, tx_n, ty_n, tz_n), intrinsics, cfg)
                break
            except DegenerateRotation6D:
                continue
        scenarios.append(Scenario(index=i, intrinsics=intrinsics, joints=joints, gt_pose=gt))
    return ScenarioSet(seed=seed, count=count, scenarios=scenarios)


def make_observation(scenario: Scenario, chain: ChainSpec, seed: int) -> Observation:
    """Observation for one scenario, with its projected keypoints.

    Keypoints that fall behind the camera project to NaN rows; the robot
    base itself is always in front by construction. An observation draws
    no random numbers, so `seed` does not change it.
    """
    keypoints = forward_kinematics(chain, scenario.joints)
    cam_pts = scenario.gt_pose.transform(keypoints)
    K = scenario.intrinsics
    uv = np.full((cam_pts.shape[0], 2), np.nan)
    visible = cam_pts[:, 2] > 0
    uv[visible, 0] = K.f * cam_pts[visible, 0] / cam_pts[visible, 2] + K.cx
    uv[visible, 1] = K.f * cam_pts[visible, 1] / cam_pts[visible, 2] + K.cy
    return Observation(
        gt_pose=scenario.gt_pose,
        intrinsics=K,
        joints=scenario.joints,
        keypoints_2d=uv,
    )
