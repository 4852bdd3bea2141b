"""Evaluation metrics (ADD, AUC) and seeded scenario generation.

ADD is the mean Euclidean distance between ground-truth-posed and
predicted-posed 3D keypoints. AUC integrates the ADD success-rate curve
over a linear threshold grid and reports on a 0-100 scale; the grid rule
(range and density) is part of every output's metadata so numbers stay
comparable.

Scenarios are regenerated deterministically from (seed, index): camera
intrinsics from fixed ranges, joints uniform in limits, orientation
from a 6D Gaussian through Gram-Schmidt, and translation uniform in the
run's `FrustumBox`, the same box the forward clamp uses, so every
ground-truth pose is in-frustum by construction.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .denoising import Observation, point_distance
from .errors import DegenerateRotation6D, EmptyPointSet, InvalidRange
from .forward_diffusion import FrustumBox
from .mononorm import NormConfig, NormalizedPose, denormalize
from .robot_chain import ChainSpec, JointConfig, forward_kinematics
from .se3_camera import CameraIntrinsics, Pose

# Stream tags appended to (seed, index) when deriving per-scenario RNGs, so
# generation and the various run kinds never share draws.
STREAM_SCENARIO = 0
STREAM_ESTIMATE = 1
STREAM_DIFFUSE = 2
STREAM_TRAINSIM = 3

# Scenario cameras and joints: focal length (pixels) and image size (w, h)
# uniform over these, each joint angle uniform in [-JOINT_LIMIT, JOINT_LIMIT].
FOCAL_RANGE = (400.0, 900.0)
IMAGE_SIZES = ((640, 480), (1280, 720))
JOINT_LIMIT = np.pi

# The threshold grid `auc` integrates over, which every estimate JSON reports as `auc_grid`.
AUC_GRID = {"t_min": 1e-5, "t_max": 0.1, "n_thresholds": 2000}

# numpy's SeedSequence (numpy/random/bit_generator.pyx) hashes and mixes a pool of 4 uint32
# words. `_block_words` does so for `_BLOCK` consecutive indices at once; 2**32 is a multiple
# of `_BLOCK`, so every index of a block splits into the same number of 32-bit words.
_BLOCK = 256
_MASK32 = 0xFFFFFFFF


def scenario_rng(seed: int, index: int, stream: int) -> np.random.Generator:
    """Independent generator for one (seed, scenario, purpose) triple: the state of
    `np.random.default_rng([seed, index, stream])`, from its seeding words."""
    block, row = divmod(int(index), _BLOCK)
    words = _block_words(int(seed), int(stream), block)[row]
    return np.random.Generator(np.random.PCG64(_given_words()(words)))


@functools.cache
def _given_words() -> type:
    """An `ISeedSequence` that hands PCG64 its seeding words, built at the first call so
    that importing posediff does not load `numpy.random`."""

    class GivenWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("holds PCG64's 4 uint64 seeding words only")
            return self.words

    return GivenWords


@functools.lru_cache(maxsize=32)
def _block_words(seed: int, stream: int, block: int) -> np.ndarray:
    """`SeedSequence([seed, i, stream]).generate_state(4, np.uint64)` for the `_BLOCK`
    indices `i` of `block`, one read-only row each, hashed for all rows at once."""
    index = _words32(block * _BLOCK)
    index[0] = index[0] + np.arange(_BLOCK, dtype=np.uint64)
    entropy = _words32(seed) + index + _words32(stream)
    # mix_entropy: hash the first words into the pool (zeros past the end), mix every pool
    # word into every other, then mix each remaining word into every pool word.
    hashes = _hashes(0x43B0D7E5, 0x931E8875)
    pool = [_hash(entropy[i] if i < len(entropy) else 0, hashes) for i in range(4)]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], _hash(pool[src], hashes))
    for word, dst in itertools.product(entropy[4:], range(4)):
        pool[dst] = _mix(pool[dst], _hash(word, hashes))
    # generate_state(4, np.uint64): 8 words cycled from the pool, paired little-endian.
    hashes = _hashes(0x8B51F9DD, 0x58F38DED)
    state = np.array([_hash(pool[i % 4], hashes) for i in range(8)])
    words = np.ascontiguousarray((state[0::2] | state[1::2] << 32).T)
    words.flags.writeable = False
    return words


def _words32(n: int) -> list:
    """The little-endian 32-bit words SeedSequence splits an entropy int into; 0 is one word."""
    if n < 0:
        raise ValueError(f"expected non-negative integer, got {n}")
    return [n >> shift & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


def _hashes(h: int, mult: int):
    """SeedSequence's running hash constant: each hash XORs one and multiplies by the next."""
    while True:
        yield h, (h := h * mult & _MASK32)


def _hash(value, hashes):
    x, m = next(hashes)
    value = (value ^ x) * m & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return value ^ value >> 16


def add_metric(gt: Pose, pred: Pose, keypoints: np.ndarray) -> np.ndarray:
    """Mean keypoint distance between the two poses, in meters.

    Single poses give a numpy scalar; batched poses with (N, K, 3)
    keypoints give one ADD per row.

    Raises:
        EmptyPointSet: on an empty keypoint list.
    """
    return point_distance(gt, pred, keypoints)


def auc(adds) -> float:
    """Area under the ADD success curve on the `AUC_GRID` thresholds, 0-100.

    Success at threshold tau means add < tau (strict). Non-finite ADD values
    (aborted scenarios) never succeed.

    Raises:
        EmptyPointSet: on an empty ADD list.
    """
    values = np.asarray(list(adds), dtype=float)
    if values.size == 0:
        raise EmptyPointSet("ADD list is empty")
    finite = np.sort(values[np.isfinite(values)])
    thresholds = np.linspace(AUC_GRID["t_min"], AUC_GRID["t_max"], AUC_GRID["n_thresholds"])
    below = np.searchsorted(finite, thresholds, side="left")
    return float(100.0 * below.mean() / values.size)


@dataclass
class ScenarioSet:
    scenarios: list

    def __iter__(self):
        return iter(self.scenarios)


def generate_scenarios(
    seed: int,
    count: int,
    box: FrustumBox | None = None,
    chain: ChainSpec | None = None,
    cfg: NormConfig | None = None,
    start: int = 0,
) -> ScenarioSet:
    """Deterministic scenario set with every normalized translation in `box`
    (default `FrustumBox.for_config(cfg)`), so every ground truth is in-frustum.

    The scenarios are those of indices `start` to `start + count - 1`. Each draws from its
    own generator, so they equal those rows of a set drawn from index 0.

    Raises:
        InvalidRange: if count < 1.
    """
    if count < 1:
        raise InvalidRange(f"count must be >= 1, got {count}")
    chain = chain or ChainSpec()
    cfg = cfg or NormConfig()
    box = box or FrustumBox.for_config(cfg)

    # The joints, tx, ty and tz are consecutive uniforms: one `random` call
    # scaled as `Generator.uniform` scales each element, lo + (hi - lo) * u.
    J = chain.n_joints
    lo = np.array([-JOINT_LIMIT] * J + [-box.xy_bound, -box.xy_bound, box.z_bound[0]])
    span = np.array([JOINT_LIMIT] * J + [box.xy_bound, box.xy_bound, box.z_bound[1]]) - lo
    scenarios = []
    for i in range(start, start + count):
        rng = scenario_rng(seed, i, STREAM_SCENARIO)
        f = float(rng.uniform(*FOCAL_RANGE))
        w, h = IMAGE_SIZES[int(rng.integers(len(IMAGE_SIZES)))]
        intrinsics = CameraIntrinsics(f=f, w=w, h=h)
        u = lo + span * rng.random(J + 3)
        joints = JointConfig(u[:J])
        while True:
            # Gaussian 6D draws are degenerate only on a measure-zero set;
            # redrawing keeps generation total and deterministic.
            rot6 = rng.standard_normal(6)
            try:
                gt = denormalize(NormalizedPose(np.concatenate((rot6, u[J:]))), intrinsics, cfg)
                break
            except DegenerateRotation6D:
                continue
        scenarios.append(Observation(index=i, gt_pose=gt, intrinsics=intrinsics, joints=joints))
    return ScenarioSet(scenarios)


def make_observation(scenario: Observation, chain: ChainSpec, seed: int) -> Observation:
    """The scenario with its projected keypoints.

    Keypoints that fall behind the camera project to NaN rows; the robot
    base itself is always in front by construction. An observation draws
    no random numbers, so `seed` does not change it.
    """
    keypoints = forward_kinematics(chain, scenario.joints)
    cam_pts = scenario.gt_pose.transform(keypoints)
    K = scenario.intrinsics
    z = cam_pts[:, 2:]
    uv = np.divide(K.f * cam_pts[:, :2], z, out=np.full((len(z), 2), np.nan), where=z > 0)
    uv += (K.cx, K.cy)
    return Observation(
        index=scenario.index,
        gt_pose=scenario.gt_pose,
        intrinsics=K,
        joints=scenario.joints,
        keypoints_2d=uv,
    )
