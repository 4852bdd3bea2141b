"""Timestep-aware reverse process: noise recovery, DDIM steps, full loops.

One reverse iteration (the scheduled mode) runs:

    normalize -> denoise -> normalize prediction -> ddim_step -> denormalize

over a decreasing timestep sub-sequence, then finishes with a tail of
direct denoiser applications conditioned at t=1 (the "almost converged"
signal). The deterministic DDIM step is

    n_prev = sqrt(a_prev) * n0_hat + sqrt(max(0, 1 - a_prev - sigma_t^2)) * eps_hat

with eps_hat recovered algebraically from the current state and the
prediction; no stochastic term is added. Two sigma_t forms are available:

    "paper"     sigma_t^2 = eta^2 * (a_prev / a_t - 1) * (1 - a_t) / (1 - a_prev)
    "standard"  sigma_t^2 = eta^2 * (1 - a_prev) / (1 - a_t) * (1 - a_t / a_prev)

The paper form can push the square-root radicand negative at small t; the
max(0, .) clamp is the total fix and collapses the terminal step to the
prediction exactly. At t_prev = 0 both forms collapse likewise.

The direct-regression baseline skips the interpolation entirely: it jumps
to each prediction, always conditioned at t=1.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .denoising import Observation, denoise, point_distance
from .errors import (
    InvalidConfig,
    InvalidIterationCount,
    InvalidTimestepOrder,
    NonFiniteState,
    fail_where,
)
from .forward_diffusion import FrustumBox, NoiseScales, Schedule, ddim_timesteps, standard_normal
from .mononorm import NormConfig, NormalizedPose, denormalize, normalize
from .robot_chain import ChainSpec, forward_kinematics
from .se3_camera import Pose

logger = logging.getLogger(__name__)

# The estimate modes, initializations and DDIM sigma forms, by name.
MODES = ("ddim", "direct", "tracking")
INIT_MODES = ("canonical", "prior-sample", "previous-estimate")
SIGMA_FORMS = ("paper", "standard")


@dataclass
class ReverseConfig:
    """Knobs for the reverse loop; defaults give 5 DDIM + 5 refinement steps."""

    ddim_steps: int = 5
    refine_steps: int = 5
    eta: float = 1.0
    init_mode: str = "canonical"
    sigma_form: str = "paper"
    margin: float = 0.05

    def __post_init__(self):
        if self.ddim_steps < 1:
            raise InvalidConfig("ddim_steps must be >= 1")
        if self.refine_steps < 0:
            raise InvalidConfig("refine_steps must be >= 0")
        if self.eta < 0:
            raise InvalidConfig("eta must be >= 0")
        if self.init_mode not in INIT_MODES:
            raise InvalidConfig(f"init_mode must be one of {INIT_MODES}")
        if self.sigma_form not in SIGMA_FORMS:
            raise InvalidConfig(f"sigma_form must be one of {SIGMA_FORMS}")


@dataclass
class TrajectoryStep:
    """One reverse step: the pose after the step and its ADD.

    `timestep` labels the pose's position on the schedule: the DDIM target
    timestep for scheduled steps, counting down through negative values for
    the refinement tail (which lives past the end of the schedule).
    `cond_t` is the timestep the denoiser was conditioned on. In a batch
    run `pose` is the batch (None unless poses are recorded) and `add` has
    one entry per row, NaN for rows aborted before the step.
    """

    index: int
    timestep: int
    cond_t: int
    pose: Pose | None
    add: float | np.ndarray | None = None


@dataclass
class Trajectory:
    """Steps of a reverse run; a batch run also names each row's abort.

    `reasons` (batch runs only) holds, per row, the class name of the check
    that aborted it, or "" for a row that ran every step.
    """

    steps: list = field(default_factory=list)
    reasons: np.ndarray | None = None

    def append(self, step: TrajectoryStep) -> None:
        self.steps.append(step)

    def timesteps(self) -> list[int]:
        return [s.timestep for s in self.steps]

    def adds(self) -> list[float]:
        return [s.add for s in self.steps]

    def __len__(self) -> int:
        return len(self.steps)


def predicted_noise(
    n_t: NormalizedPose | np.ndarray,
    n0_hat: NormalizedPose | np.ndarray,
    t: int,
    sched: Schedule,
) -> np.ndarray:
    """Noise implied by a prediction: (n_t - sqrt(a_t) n0_hat) / sqrt(1 - a_t)."""
    if t < 1:
        raise InvalidTimestepOrder(f"noise recovery needs t >= 1, got {t}")
    v_t = n_t.as_vector() if isinstance(n_t, NormalizedPose) else np.asarray(n_t, dtype=float)
    v_0 = (
        n0_hat.as_vector()
        if isinstance(n0_hat, NormalizedPose)
        else np.asarray(n0_hat, dtype=float)
    )
    a = sched.alpha_bar[t]
    return (v_t - np.sqrt(a) * v_0) / np.sqrt(1.0 - a)


def sigma_squared(sched: Schedule, t: int, t_prev: int, eta: float, form: str = "paper") -> float:
    """DDIM noise variance for the step t -> t_prev under the chosen form.

    The paper form diverges at t_prev = 0 (its denominator vanishes); the
    caller's radicand clamp absorbs that, so +inf is returned rather than
    raising.
    """
    if eta == 0.0:
        return 0.0
    a_t = sched.alpha_bar[t]
    a_prev = sched.alpha_bar[t_prev]
    if form == "standard":
        return eta**2 * (1.0 - a_prev) / (1.0 - a_t) * (1.0 - a_t / a_prev)
    if form == "paper":
        if a_prev >= 1.0:
            return float("inf")
        return eta**2 * (a_prev / a_t - 1.0) * (1.0 - a_t) / (1.0 - a_prev)
    raise InvalidConfig(f"sigma_form must be one of {SIGMA_FORMS}")


def ddim_step(
    n_t: NormalizedPose | np.ndarray,
    n0_hat: NormalizedPose | np.ndarray,
    t: int,
    t_prev: int,
    sched: Schedule,
    eta: float = 1.0,
    sigma_form: str = "paper",
) -> NormalizedPose:
    """Deterministic DDIM update of the normalized pose from t to t_prev.

    Raises:
        InvalidTimestepOrder: unless t > t_prev >= 0.
    """
    if not (t > t_prev >= 0):
        raise InvalidTimestepOrder(f"need t > t_prev >= 0, got t={t}, t_prev={t_prev}")
    eps = predicted_noise(n_t, n0_hat, t, sched)
    v_0 = (
        n0_hat.as_vector()
        if isinstance(n0_hat, NormalizedPose)
        else np.asarray(n0_hat, dtype=float)
    )
    a_prev = sched.alpha_bar[t_prev]
    s2 = sigma_squared(sched, t, t_prev, eta, sigma_form)
    radicand = 1.0 - a_prev - s2
    if radicand < 0.0:
        logger.debug("ddim radicand clamp at t=%d -> %d (%.3e)", t, t_prev, radicand)
        radicand = 0.0
    out = np.sqrt(a_prev) * v_0 + np.sqrt(radicand) * eps
    return NormalizedPose.from_vector(out)


def _initial_pose(
    rcfg: ReverseConfig,
    scales: NoiseScales,
    cfg: NormConfig,
    obs: Observation,
    rng,
    prev_pose: Pose | None,
    reasons: np.ndarray | None,
) -> Pose:
    if rcfg.init_mode == "previous-estimate":
        if prev_pose is None:
            raise InvalidConfig("previous-estimate init requires prev_pose")
        return prev_pose.copy()
    if rcfg.init_mode == "prior-sample":
        box = FrustumBox.for_config(cfg, rcfg.margin)
        n = box.clamp(standard_normal(rng) * scales.as_vector())
        return denormalize(NormalizedPose.from_vector(n), obs.intrinsics, cfg, reasons)
    t = np.array([0.0, 0.0, cfg.c_z])
    batch = obs.gt_pose.t.shape[:-1]
    return Pose(
        np.broadcast_to(np.eye(3), batch + (3, 3)).copy(), np.broadcast_to(t, batch + (3,)).copy()
    )


def _lockstep(
    plan: list[tuple[int, int, int | None]],
    obs: Observation,
    sched: Schedule,
    scales: NoiseScales,
    cfg: NormConfig,
    rcfg: ReverseConfig,
    oracle,
    rng,
    prev_pose: Pose | None,
    keypoints: np.ndarray,
    record_poses: bool,
) -> tuple[Pose, Trajectory]:
    """Run every row of `obs` through `plan`, one step at a time.

    Each plan entry is (timestep label, conditioning timestep, DDIM target);
    a target of None is a direct jump to the denoiser's prediction. A single
    observation runs unbatched and raises at the first failing check. A
    batch records each row's first failing check in `Trajectory.reasons`,
    freezes that row and advances the others; rows aborted at the initial
    pose never run.
    """
    batched = obs.gt_pose.t.ndim == 2
    reasons = np.full(obs.gt_pose.t.shape[0], "", dtype=object) if batched else None
    traj = Trajectory(reasons=reasons)
    with np.errstate(all="ignore"):
        pose = _initial_pose(rcfg, scales, cfg, obs, rng, prev_pose, reasons)
        for index, (label, t, t_prev) in enumerate(plan):
            if batched:
                live = np.flatnonzero(reasons == "")
                if live.size == 0:
                    break
                if live.size == len(reasons):
                    rows, p, o, kp, r, g = slice(None), pose, obs, keypoints, reasons, rng
                else:
                    rows, p, o, kp, r = live, pose[live], obs[live], keypoints[live], reasons[live]
                    g = [rng[i] for i in live]
            else:
                p, o, kp, r, g = pose, obs, keypoints, None, rng

            if t_prev is None:
                new = denoise(p, t, o, oracle, g, r)
            else:
                n_t = normalize(p, o.intrinsics, cfg, r)
                prediction = denoise(p, t, o, oracle, g, r)
                n0_hat = normalize(prediction, o.intrinsics, cfg, r)
                n_prev = ddim_step(n_t, n0_hat, t, t_prev, sched, rcfg.eta, rcfg.sigma_form)
                new = denormalize(n_prev, o.intrinsics, cfg, r)
            # A pose with a NaN or an infinity, or one so far out that its ADD
            # overflows, has a non-finite ADD.
            add = point_distance(o.gt_pose, new, kp)
            fail_where(~np.isfinite(add), NonFiniteState, r, "pose not finite after step {}", index)

            if batched:
                pose.R[rows], pose.t[rows], reasons[rows] = new.R, new.t, r
                adds = np.full(len(reasons), np.nan)
                adds[rows] = add
                add = adds
            else:
                pose = new
            recorded = pose.copy() if record_poses else None
            traj.append(TrajectoryStep(index, label, t, recorded, add))
    return pose, traj


def _keypoints(chain: ChainSpec, obs: Observation) -> np.ndarray:
    if isinstance(obs.joints, list):
        return np.stack([forward_kinematics(chain, j) for j in obs.joints])
    return forward_kinematics(chain, obs.joints)


def run_reverse(
    obs: Observation,
    chain: ChainSpec,
    sched: Schedule,
    scales: NoiseScales,
    cfg: NormConfig,
    rcfg: ReverseConfig,
    oracle,
    rng,
    prev_pose: Pose | None = None,
    keypoints: np.ndarray | None = None,
    record_poses: bool = True,
) -> tuple[Pose, Trajectory]:
    """Full scheduled estimation: DDIM sweep plus direct refinement tail.

    Per-step ADD against the observation's ground truth is recorded in the
    trajectory; pass precomputed `keypoints` to skip the forward-kinematics
    call. For a single observation, degenerate rotations, non-positive
    depths or a non-finite pose inside the loop propagate to the caller,
    which is expected to record the aborted scenario rather than hide it.

    For a batch observation (`Observation.stack`), `rng` holds one
    generator per row, `prev_pose` and `keypoints` are batched, and all rows
    advance in lockstep; `Trajectory.reasons` names the rows that aborted.
    `record_poses=False` leaves the per-step poses out of the trajectory.
    """
    if keypoints is None:
        keypoints = _keypoints(chain, obs)
    ts = ddim_timesteps(sched.T, rcfg.ddim_steps)
    plan = [(t_prev, t, t_prev) for t, t_prev in zip(ts, ts[1:] + [0])]
    plan += [(-k, 1, None) for k in range(1, rcfg.refine_steps + 1)]
    return _lockstep(
        plan, obs, sched, scales, cfg, rcfg, oracle, rng, prev_pose, keypoints, record_poses
    )


def run_direct_regression(
    obs: Observation,
    chain: ChainSpec,
    sched: Schedule,
    scales: NoiseScales,
    cfg: NormConfig,
    iterations: int,
    oracle,
    rng,
    init_mode: str = "canonical",
    keypoints: np.ndarray | None = None,
    record_poses: bool = True,
) -> tuple[Pose, Trajectory]:
    """Unscheduled baseline: `iterations` full jumps to the denoiser prediction.

    Every call is conditioned at t=1 (no timestep awareness). Trajectory
    timesteps count down from iterations-1 to 0. Batches and aborts work as
    in `run_reverse`.

    Raises:
        InvalidIterationCount: if iterations < 1.
    """
    if iterations < 1:
        raise InvalidIterationCount(f"iterations must be >= 1, got {iterations}")
    rcfg = ReverseConfig(init_mode=init_mode)
    if keypoints is None:
        keypoints = _keypoints(chain, obs)
    plan = [(iterations - 1 - k, 1, None) for k in range(iterations)]
    return _lockstep(
        plan, obs, sched, scales, cfg, rcfg, oracle, rng, None, keypoints, record_poses
    )
