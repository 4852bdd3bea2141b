"""Visibility-constrained SE(3) pose diffusion with DDIM reverse sampling.

Poses are diffused in a monocular-normalized space whose translation
components are intrinsics-invariant, clamped into the camera frustum, and
recovered through Gram-Schmidt orthogonalization of a 6D rotation
representation. Reverse estimation runs a timestep-aware DDIM sweep with a
direct-regression refinement tail, driven by analytic oracle denoisers,
and a seeded Monte-Carlo harness evaluates ADD/AUC over synthetic
articulated-robot scenarios.
"""

from . import errors
from .denoising import (
    BiasedOracle,
    DenoiserOutput,
    NoisyOracle,
    Observation,
    PerfectOracle,
    apply_update,
    compute_gt_targets,
    decomposed_loss,
    denoise,
    parse_denoiser,
    point_distance,
)
from .forward_diffusion import (
    FrustumBox,
    NoiseScales,
    Schedule,
    ddim_timesteps,
    diffuse,
    diffuse_normalized,
    make_linear_schedule,
    sample_timestep,
)
from .metrics import (
    Scenario,
    ScenarioRanges,
    ScenarioSet,
    add_metric,
    auc,
    generate_scenarios,
    make_observation,
    scenario_rng,
)
from .mononorm import NormalizedPose, NormConfig, denormalize, normalize
from .reverse import (
    ReverseConfig,
    Trajectory,
    TrajectoryStep,
    ddim_step,
    predicted_noise,
    run_direct_regression,
    run_reverse,
    sigma_squared,
)
from .robot_chain import ChainSpec, JointConfig, forward_kinematics, sample_points
from .se3_camera import (
    CameraIntrinsics,
    Pose,
    gram_schmidt_6d,
    in_frustum,
    project_point,
    project_points,
)

__version__ = "0.1.0"
