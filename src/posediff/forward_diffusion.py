"""Noise schedule and the visibility-constrained forward diffusion.

The forward process perturbs a pose in its normalized 9-vector form:

    n_t = sqrt(alpha_bar_t) * n_0 + sqrt(1 - alpha_bar_t) * (eps * scales)

with eps drawn i.i.d. standard normal per component and per-component
scales sized so that `gamma` standard deviations of translation noise span
the visible half-range. The translation components are then clamped into
the frustum box, which makes the in-view guarantee unconditional: every
pose this module returns projects inside the image margin and stays inside
the working depth range. Rotation components are never clamped; orientation
noise must cover all of SO(3).

Clamping (rather than rejection sampling) keeps the draw deterministic per
seed; a `clamp=False` hook exposes the raw process for verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRotation6D, InvalidScheduleParams
from .mononorm import NormConfig, NormalizedPose, denormalize, normalize
from .se3_camera import CameraIntrinsics, Pose


@dataclass
class Schedule:
    """Precomputed beta / alpha_bar sequences.

    `beta[i]` is the noise coefficient for timestep t = i + 1;
    `alpha_bar[t]` is the cumulative product for timestep t, with
    alpha_bar[0] = 1; an array of timesteps indexes one value per entry.
    """

    T: int
    beta: np.ndarray
    alpha_bar: np.ndarray

    def validate(self) -> "Schedule":
        if self.T < 1 or self.beta.shape != (self.T,) or self.alpha_bar.shape != (self.T + 1,):
            raise InvalidScheduleParams("inconsistent schedule array sizes")
        if not (np.all(self.beta > 0) and np.all(self.beta < 1)):
            raise InvalidScheduleParams("beta values must lie in (0, 1)")
        if self.alpha_bar[0] != 1.0 or np.any(np.diff(self.alpha_bar) >= 0):
            raise InvalidScheduleParams("alpha_bar must start at 1 and strictly decrease")
        return self


def make_linear_schedule(
    T: int = 100,
    beta_start: float = 1e-4,
    beta_end: float = 0.02,
) -> Schedule:
    """Linear beta schedule with alpha_bar[t] = prod_{s<=t} (1 - beta_s).

    Raises:
        InvalidScheduleParams: unless 0 < beta_start <= beta_end < 1 and T >= 1.
    """
    if T < 1:
        raise InvalidScheduleParams(f"T must be >= 1, got {T}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise InvalidScheduleParams(
            f"need 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})"
        )
    if T == 1:
        beta = np.array([beta_start])
    else:
        beta = np.linspace(beta_start, beta_end, T)
    alpha_bar = np.concatenate([[1.0], np.cumprod(1.0 - beta)])
    return Schedule(T=T, beta=beta, alpha_bar=alpha_bar)


def ddim_timesteps(T: int, n: int) -> list[int]:
    """Evenly spaced decreasing sub-sequence of n timesteps ending above 0.

    For T=100, n=5 this is [100, 80, 60, 40, 20]; the sampler appends the
    terminal step to 0 itself.
    """
    if not (1 <= n <= T):
        raise InvalidScheduleParams(f"need 1 <= ddim steps <= T, got n={n}, T={T}")
    ts = [int(round(T * k / n)) for k in range(n, 0, -1)]
    if len(set(ts)) != len(ts) or min(ts) < 1:
        raise InvalidScheduleParams(f"sub-sequence for n={n}, T={T} is not strictly decreasing")
    return ts


@dataclass
class NoiseScales:
    """Per-component noise scales for the normalized 9-vector.

    Translation scales derive from the containment multiplier `gamma`:
    gamma standard deviations of fully developed noise span the visible
    half-range in each translation coordinate. Rotation components use unit
    scale so the 6D representation covers orientation space.
    """

    s_rot: float = 1.0
    s_xy: float = 0.5 / 3.0
    s_z: float = 0.45
    gamma: float = 3.0

    def __post_init__(self):
        if min(self.s_rot, self.s_xy, self.s_z, self.gamma) <= 0:
            raise ValueError("all noise scales must be positive")

    @classmethod
    def for_config(cls, cfg: NormConfig, gamma: float = 3.0) -> "NoiseScales":
        return cls(
            s_rot=1.0,
            s_xy=0.5 / gamma,
            s_z=(cfg.z_max - cfg.z_min) / (2.0 * gamma),
            gamma=gamma,
        )

    def as_vector(self) -> np.ndarray:
        return np.array([self.s_rot] * 6 + [self.s_xy, self.s_xy, self.s_z])


@dataclass
class FrustumBox:
    """Bounds for the translation components of a normalized pose."""

    xy_bound: float = 0.45
    z_bound: tuple[float, float] = (-1.2, 1.5)

    def __post_init__(self):
        if self.xy_bound <= 0:
            raise ValueError("xy_bound must be positive")
        if self.z_bound[0] >= self.z_bound[1]:
            raise ValueError("z interval is empty")

    @classmethod
    def for_config(cls, cfg: NormConfig, margin: float = 0.05) -> "FrustumBox":
        return cls(
            xy_bound=0.5 - margin,
            z_bound=(cfg.z_min - cfg.c_z, cfg.z_max - cfg.c_z),
        )

    def clamp(self, n: np.ndarray) -> np.ndarray:
        """Clamp translation components of (..., 9) normalized vectors in place-free form."""
        out = np.array(n, dtype=float, copy=True)
        out[..., 6] = np.clip(out[..., 6], -self.xy_bound, self.xy_bound)
        out[..., 7] = np.clip(out[..., 7], -self.xy_bound, self.xy_bound)
        out[..., 8] = np.clip(out[..., 8], self.z_bound[0], self.z_bound[1])
        return out


def sample_timestep(sched: Schedule, rng: np.random.Generator) -> int:
    """Uniform timestep in {1, ..., T}."""
    return int(rng.integers(1, sched.T + 1))


def standard_normal(rng) -> np.ndarray:
    """Nine standard normal draws from one generator, or an (N, 9) array
    holding nine from each generator of a sequence, in order."""
    if isinstance(rng, np.random.Generator):
        return rng.standard_normal(9)
    return np.array([g.standard_normal(9) for g in rng]).reshape(-1, 9)


def diffuse_normalized(
    n0: np.ndarray,
    t: int | np.ndarray,
    sched: Schedule,
    scales: NoiseScales,
    eps: np.ndarray,
    box: FrustumBox | None = None,
) -> np.ndarray:
    """Closed-form forward step on normalized vectors; the verification core.

    `n0` broadcasts against `eps` (shape (..., 9)), so one ground truth can
    be diffused under many noise draws at once. `t` is one timestep for
    every vector, or an array with one timestep per vector of the batch.
    Pass box=None to disable the frustum clamp.
    """
    a = np.asarray(sched.alpha_bar[t])[..., None]
    n_t = np.sqrt(a) * np.asarray(n0, dtype=float) + np.sqrt(1.0 - a) * (
        np.asarray(eps, dtype=float) * scales.as_vector()
    )
    if box is not None:
        n_t = box.clamp(n_t)
    return n_t


def diffuse(
    pose0: Pose,
    t: int | np.ndarray,
    sched: Schedule,
    scales: NoiseScales,
    box: FrustumBox,
    intrinsics: CameraIntrinsics,
    cfg: NormConfig,
    rng,
    clamp: bool = True,
    eps: np.ndarray | None = None,
    max_retries: int = 16,
) -> Pose:
    """Draw noisy in-frustum poses from the forward process.

    A single pose takes an int `t` and one generator. A batch of N poses and
    cameras takes N timesteps and a sequence of N generators, one per row; a
    single pose runs as a batch of one. Each row draws nine standard normals
    from its own generator. If a row's noised rotation components are
    degenerate under Gram-Schmidt, that row alone redraws from its generator,
    up to `max_retries` times, before the error propagates. Passing an
    explicit `eps` of shape (9,) or (N, 9) (test hook) disables retries.

    t = 0 is permitted and returns pose0 reconstructed exactly (alpha_bar
    is 1 there); training draws use t in [1, T].

    Raises:
        InvalidScheduleParams: if a timestep is outside [0, T].
        NonPositiveDepth: if a row's noised depth is not positive (clamp=False).
        DegenerateRotation6D: after a row exhausts its retries.
    """
    t = np.asarray(t)
    if np.any((t < 0) | (t > sched.T)):
        raise InvalidScheduleParams(f"timestep {t} outside [0, {sched.T}]")
    single = pose0.t.ndim == 1
    if single:
        pose0, intrinsics, rng = Pose.stack([pose0]), CameraIntrinsics.stack([intrinsics]), [rng]
        t = t.reshape(1)
    n0 = normalize(pose0, intrinsics, cfg).as_vector()
    e = standard_normal(rng) if eps is None else np.array(eps, dtype=float).reshape(n0.shape)
    attempts = max_retries if eps is None else 0
    for attempt in range(attempts + 1):
        n_t = diffuse_normalized(n0, t, sched, scales, e, box if clamp else None)
        reasons = np.full(len(n0), "", dtype=object)
        # Degenerate rows divide by a vanishing norm; they are redrawn or raise below.
        with np.errstate(all="ignore"):
            pose = denormalize(NormalizedPose.from_vector(n_t), intrinsics, cfg, reasons)
        redo = reasons == DegenerateRotation6D.__name__
        if attempt == attempts or not redo.any():
            break
        e[redo] = standard_normal([rng[i] for i in np.flatnonzero(redo)])
    failed = np.flatnonzero(reasons != "")
    if failed.size:
        # Alone and without a record, the first failing row raises its error.
        denormalize(NormalizedPose.from_vector(n_t[failed[0]]), intrinsics[failed[0]], cfg)
    return pose[0] if single else pose
