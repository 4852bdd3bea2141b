"""Timestep-aware reverse process: noise recovery, DDIM steps, full loops.

One reverse iteration (the scheduled mode) runs:

    normalize -> predict -> apply_update -> normalize prediction -> ddim_step -> denormalize

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

from dataclasses import dataclass

import numpy as np

from .denoising import Observation, apply_update
from .errors import (
    InvalidConfig,
    InvalidIterationCount,
    InvalidTimestepOrder,
    NonFiniteState,
    fail_where,
)
from .forward_diffusion import (
    FrustumBox,
    NoiseScales,
    Schedule,
    ddim_timesteps,
    noise_blocks,
    standard_normal,
)
from .metrics import add_metric
from .mononorm import NormConfig, NormalizedPose, denormalize, normalize
from .robot_chain import ChainSpec, forward_kinematics
from .se3_camera import IDENTITY_ROT6, Pose

# The estimate modes, initializations and DDIM sigma forms, by name.
MODES = ("ddim", "direct", "tracking")
INIT_MODES = ("canonical", "prior-sample")
SIGMA_FORMS = ("paper", "standard")


@dataclass
class ReverseConfig:
    """Knobs for the reverse loop; defaults give 5 DDIM + 5 refinement steps. A loop
    given a previous pose starts there; `init_mode` names the start of any other loop."""

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
class Trajectory:
    """Every step of a reverse run, step-major; a batch run also names each row's abort.

    `timestep[k]` labels step k's pose on the schedule: the DDIM target timestep for
    scheduled steps, counting down through negative values for the refinement tail (which
    lives past the end of the schedule). `cond_t[k]` is the timestep the denoiser was
    conditioned on. `R`, `t` and `add` hold each step's pose and ADD: (steps, 3, 3),
    (steps, 3) and (steps,) for one observation; (steps, N, 3, 3), (steps, N, 3) and
    (steps, N) for a batch, aborted rows included, with a row's ADD NaN at and after the
    step that aborted it. `reasons` (batch runs only) holds, per row, the class name of the
    check that aborted it, or "" for a row that passed every check.
    """

    timestep: list
    cond_t: list
    R: np.ndarray
    t: np.ndarray
    add: np.ndarray
    reasons: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.timestep)


def predicted_noise(n_t: np.ndarray, n0_hat: np.ndarray, t: int, sched: Schedule) -> np.ndarray:
    """Noise implied by a prediction: (n_t - sqrt(a_t) n0_hat) / sqrt(1 - a_t), on normalized
    9-vectors or (N, 9) batches of them."""
    if t < 1:
        raise InvalidTimestepOrder(f"noise recovery needs t >= 1, got {t}")
    a = sched.alpha_bar[t]
    n_t, n0_hat = np.asarray(n_t, dtype=float), np.asarray(n0_hat, dtype=float)
    return (n_t - np.sqrt(a) * n0_hat) / np.sqrt(1.0 - a)


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
    n_t: np.ndarray,
    n0_hat: np.ndarray,
    t: int,
    t_prev: int,
    sched: Schedule,
    eta: float = 1.0,
    sigma_form: str = "paper",
) -> NormalizedPose:
    """Deterministic DDIM update of a normalized 9-vector (or an (N, 9) batch) from t to
    t_prev, given the prediction `n0_hat` in the same form.

    Raises:
        InvalidTimestepOrder: unless t > t_prev >= 0.
    """
    if not (t > t_prev >= 0):
        raise InvalidTimestepOrder(f"need t > t_prev >= 0, got t={t}, t_prev={t_prev}")
    n0_hat = np.asarray(n0_hat, dtype=float)
    eps = predicted_noise(n_t, n0_hat, t, sched)
    a_prev = sched.alpha_bar[t_prev]
    s2 = sigma_squared(sched, t, t_prev, eta, sigma_form)
    radicand = 1.0 - a_prev - s2
    if radicand < 0.0:
        radicand = 0.0
    return NormalizedPose(np.sqrt(a_prev) * n0_hat + np.sqrt(radicand) * eps)


def _initial_pose(
    rcfg: ReverseConfig,
    scales: NoiseScales,
    cfg: NormConfig,
    obs: Observation,
    rng,
    prev_pose: Pose | None,
    reasons: np.ndarray | None,
) -> Pose:
    """The start of the reverse loop: `prev_pose` if given, else the denormalized start vector
    of `rcfg.init_mode`, the identity at zero normalized translation or a clamped prior draw."""
    if prev_pose is not None:
        return prev_pose
    if rcfg.init_mode == "prior-sample":
        box = FrustumBox.for_config(cfg, rcfg.margin)
        n = box.clamp(standard_normal(rng) * scales.as_vector())
    else:
        n = np.broadcast_to(np.append(IDENTITY_ROT6, np.zeros(3)), obs.gt_pose.t.shape[:-1] + (9,))
    return denormalize(NormalizedPose(n), obs.intrinsics, cfg, reasons)


def _lockstep(
    plan: list[tuple[int, int, int | None]],
    obs: Observation,
    chain: ChainSpec,
    sched: Schedule,
    scales: NoiseScales,
    cfg: NormConfig,
    rcfg: ReverseConfig,
    oracle,
    rng,
    prev_pose: Pose | None,
    keypoints: np.ndarray | None,
) -> tuple[Pose, Trajectory]:
    """Run every row of `obs` through every step of `plan`.

    Each plan entry is (timestep label, conditioning timestep, DDIM target); a
    target of None is a direct jump to the denoiser's prediction. Each step's ADD
    is `add_metric` on `keypoints`, by default the forward kinematics of `chain`
    at `obs.joints`. A single observation raises at the first failing check. A
    batch records each row's first failing check in `Trajectory.reasons` and runs
    the row on; every step works row by row, so the other rows are unaffected,
    and nothing computed for an aborted row after its abort is reported.

    The trajectory's arrays are allocated once, after the initial pose, at the plan's
    length, and each step writes its pose and ADD into its own slot. After the initial
    pose, a batch's oracle noise comes from `noise_blocks`: each row's generator draws its
    whole loop's noise in one call, at the first oracle draw, so an oracle that draws
    nothing leaves it untouched.
    """
    batched = obs.gt_pose.t.ndim == 2
    reasons = np.full(obs.gt_pose.t.shape[0], "", dtype=object) if batched else None
    if keypoints is None:
        keypoints = forward_kinematics(chain, obs.joints)
    with np.errstate(all="ignore"):
        pose = _initial_pose(rcfg, scales, cfg, obs, rng, prev_pose, reasons)
        shape = (len(plan), *pose.t.shape[:-1])
        traj = Trajectory([p[0] for p in plan], [p[1] for p in plan], np.empty(shape + (3, 3)),
                          np.empty(shape + (3,)), np.empty(shape), reasons)
        if batched:
            rng = noise_blocks(rng, len(plan))
        for index, (_, t, t_prev) in enumerate(plan):
            # A DDIM step normalizes the pose before the oracle call, so a row failing both
            # records the normalization's check, and then steps toward the prediction.
            if t_prev is not None:
                n_t = normalize(pose, obs.intrinsics, cfg, reasons).as_vector()
            out = oracle.predict(pose, t, obs, rng, reasons)
            pose = apply_update(pose, out, obs.intrinsics, reasons)
            if t_prev is not None:
                n0_hat = normalize(pose, obs.intrinsics, cfg, reasons).as_vector()
                n_prev = ddim_step(n_t, n0_hat, t, t_prev, sched, rcfg.eta, rcfg.sigma_form)
                pose = denormalize(n_prev, obs.intrinsics, cfg, reasons)
            # A pose with a NaN or an infinity, or one so far out that its ADD
            # overflows, has a non-finite ADD.
            add = add_metric(obs.gt_pose, pose, keypoints)
            fail_where(
                ~np.isfinite(add), NonFiniteState, reasons, "pose not finite after step {}", index
            )
            if batched:
                add = np.where(reasons == "", add, np.nan)
            traj.R[index], traj.t[index], traj.add[index] = pose.R, pose.t, add
    return pose, traj


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
) -> tuple[Pose, Trajectory]:
    """Full scheduled estimation: DDIM sweep plus direct refinement tail.

    The loop starts at `prev_pose` if one is given, else at the start `rcfg.init_mode`
    names. Each step's ADD, `add_metric` on `keypoints` (by default the forward kinematics
    of `chain` at `obs.joints`), is recorded in the trajectory. For a single observation,
    degenerate rotations, non-positive depths or a non-finite pose inside the loop
    propagate to the caller, which is expected to record the aborted scenario rather
    than hide it.

    For a batch observation (`Observation.stack`), `rng` holds one
    generator per row, `prev_pose` and `keypoints` are batched, and all rows
    advance in lockstep; `Trajectory.reasons` names the rows that aborted.
    The trajectory's `R`, `t` and `add` hold every row at every step, aborted rows included.
    """
    ts = ddim_timesteps(sched.T, rcfg.ddim_steps)
    plan = [(t_prev, t, t_prev) for t, t_prev in zip(ts, ts[1:] + [0])]
    plan += [(-k, 1, None) for k in range(1, rcfg.refine_steps + 1)]
    return _lockstep(plan, obs, chain, sched, scales, cfg, rcfg, oracle, rng, prev_pose, keypoints)


def run_direct_regression(
    obs: Observation,
    chain: ChainSpec,
    sched: Schedule,
    scales: NoiseScales,
    cfg: NormConfig,
    iterations: int,
    oracle,
    rng,
    rcfg: ReverseConfig | None = None,
    keypoints: np.ndarray | None = None,
) -> tuple[Pose, Trajectory]:
    """Unscheduled baseline: `iterations` full jumps to the denoiser prediction.

    Every call is conditioned at t=1 (no timestep awareness). Trajectory
    timesteps count down from iterations-1 to 0. Of `rcfg` (default
    `ReverseConfig()`), only the initialization and its margin apply.
    Batches and aborts work as in `run_reverse`.

    Raises:
        InvalidIterationCount: if iterations < 1.
    """
    if iterations < 1:
        raise InvalidIterationCount(f"iterations must be >= 1, got {iterations}")
    rcfg = rcfg or ReverseConfig()
    plan = [(iterations - 1 - k, 1, None) for k in range(iterations)]
    return _lockstep(plan, obs, chain, sched, scales, cfg, rcfg, oracle, rng, None, keypoints)
