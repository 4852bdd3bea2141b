"""Draw order and batching pins: fewer generator calls, the same draws.

The engine draws runs of consecutive numbers in one generator call: a batch's
oracle noise as one (steps, 9) block per row, and a scenario's joints and
translation as one `random` call. These tests pin that every generator ends
in the state, and every value has the bits, that one call per draw gave.
The references below are the code these calls replaced, kept verbatim.
"""

import csv
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from posediff import metrics
from posediff import (
    CameraIntrinsics,
    ChainSpec,
    FrustumBox,
    JointConfig,
    NoiseScales,
    NormalizedPose,
    NormConfig,
    Observation,
    Pose,
    denormalize,
    forward_kinematics,
    generate_scenarios,
    make_linear_schedule,
    make_observation,
    parse_denoiser,
    scenario_rng,
)
from posediff.cli import main
from posediff.errors import DegenerateRotation6D
from posediff.metrics import (
    FOCAL_RANGE,
    IMAGE_SIZES,
    JOINT_LIMIT,
    STREAM_ESTIMATE,
    STREAM_SCENARIO,
)
from posediff.reverse import ReverseConfig, run_direct_regression, run_reverse

from conftest import assert_same_bits

SRC = Path(__file__).resolve().parents[1] / "src"


def test_one_block_call_equals_successive_nine_vector_draws():
    for seed in range(200):
        for k in range(1, 13):
            block = np.random.default_rng(seed).standard_normal((k, 9))
            g = np.random.default_rng(seed)
            assert_same_bits(block, np.array([g.standard_normal(9) for _ in range(k)]))


@pytest.mark.parametrize("init", ["canonical", "prior-sample"])
@pytest.mark.parametrize("spec", ["perfect", "biased:5", "noisy:0", "noisy:0.3"])
def test_batch_leaves_each_generator_as_a_run_alone_does(spec, init):
    seed, count = 9, 12
    cfg, sched = NormConfig(), make_linear_schedule()
    scales, chain = NoiseScales.for_config(cfg), ChainSpec()
    oracle = parse_denoiser(spec, sched, scales, cfg)
    rcfg = ReverseConfig(ddim_steps=3, refine_steps=2, init_mode=init)
    scenarios = generate_scenarios(seed, count, cfg=cfg).scenarios
    batch = Observation.stack([make_observation(sc, chain, seed) for sc in scenarios])

    def rngs():
        return [scenario_rng(seed, sc.index, STREAM_ESTIMATE) for sc in scenarios]

    runs = {
        "reverse": lambda obs, rng: run_reverse(
            obs, chain, sched, scales, cfg, rcfg, oracle, rng),
        "direct": lambda obs, rng: run_direct_regression(
            obs, chain, sched, scales, cfg, 4, oracle, rng, rcfg=rcfg),
    }
    for name, run in runs.items():
        batch_rngs = rngs()
        _, traj = run(batch, batch_rngs)
        assert list(traj.reasons) == [""] * count, name  # no row stopped drawing early
        alone_rngs = rngs()
        for sc, g in zip(scenarios, alone_rngs):
            run(make_observation(sc, chain, seed), g)
        for sc, got, want in zip(scenarios, batch_rngs, alone_rngs):
            assert got.bit_generator.state == want.bit_generator.state, (name, sc.index)
        if spec != "noisy:0.3" and init == "canonical":
            fresh = rngs()
            assert [g.bit_generator.state for g in batch_rngs] == [
                g.bit_generator.state for g in fresh
            ], name


def reference_generate_scenarios(seed, count, box, chain, cfg):
    """The one-call-per-draw scenario loop that `generate_scenarios` replaced."""
    scenarios = []
    for i in range(count):
        rng = scenario_rng(seed, i, STREAM_SCENARIO)
        f = float(rng.uniform(*FOCAL_RANGE))
        w, h = IMAGE_SIZES[int(rng.integers(len(IMAGE_SIZES)))]
        intrinsics = CameraIntrinsics(f=f, w=w, h=h)
        joints = JointConfig(rng.uniform(-JOINT_LIMIT, JOINT_LIMIT, chain.n_joints))
        tx_n = float(rng.uniform(-box.xy_bound, box.xy_bound))
        ty_n = float(rng.uniform(-box.xy_bound, box.xy_bound))
        tz_n = float(rng.uniform(*box.z_bound))
        while True:
            # Gaussian 6D draws are degenerate only on a measure-zero set;
            # redrawing keeps generation total and deterministic.
            rot6 = rng.standard_normal(6)
            try:
                gt = denormalize(NormalizedPose(np.append(rot6, (tx_n, ty_n, tz_n))),
                                 intrinsics, cfg)
                break
            except DegenerateRotation6D:
                continue
        scenarios.append(Observation(index=i, gt_pose=gt, intrinsics=intrinsics, joints=joints))
    return scenarios


@pytest.mark.parametrize("seed", [0, 31])
def test_merged_scenario_draws_match_one_call_per_draw(seed):
    cfg = NormConfig()
    box = FrustumBox.for_config(cfg, margin=0.2)
    chain = ChainSpec(n_joints=3, link_lengths=(0.3, 0.2, 0.1))
    got = generate_scenarios(seed, 500, box, chain, cfg).scenarios
    want = reference_generate_scenarios(seed, 500, box, chain, cfg)
    for a, b in zip(got, want, strict=True):
        assert a.index == b.index
        assert (a.intrinsics.w, a.intrinsics.h) == (b.intrinsics.w, b.intrinsics.h)
        assert_same_bits(a.intrinsics.f, b.intrinsics.f)
        assert_same_bits(a.joints.angles, b.joints.angles)
        assert_same_bits(a.gt_pose.R, b.gt_pose.R)
        assert_same_bits(a.gt_pose.t, b.gt_pose.t)


class DegenerateFirstRotation:
    """A generator that logs each call by name and returns zeros, a degenerate 6D
    rotation, for its first `standard_normal(6)`; every other call is delegated."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        def call(*args, **kwargs):
            self.calls.append(name)
            if name == "standard_normal" and args == (6,) and self.calls.count(name) == 1:
                return np.zeros(6)
            return getattr(self.rng, name)(*args, **kwargs)
        return call


def test_degenerate_rotation_draw_is_redrawn(monkeypatch):
    seed, count = 5, 4
    cfg, chain = NormConfig(), ChainSpec()
    box = FrustumBox.for_config(cfg)
    want = generate_scenarios(seed, count, box, chain, cfg).scenarios
    wrapped = {}

    def patched_rng(seed, index, stream):
        rng = scenario_rng(seed, index, stream)
        if (index, stream) == (1, STREAM_SCENARIO):
            rng = wrapped[index] = DegenerateFirstRotation(rng)
        return rng

    monkeypatch.setattr(metrics, "scenario_rng", patched_rng)
    got = generate_scenarios(seed, count, box, chain, cfg).scenarios
    for a, b in zip(got, want, strict=True):
        if a.index != 1:
            assert_same_bits(a.gt_pose.R, b.gt_pose.R)
            assert_same_bits(a.gt_pose.t, b.gt_pose.t)
    # Stream 0 in FORMATS.md's order: the focal length, the image-size index, the
    # J + 3 joint and translation uniforms, then six normals per rotation draw.
    assert wrapped[1].calls == ["uniform", "integers", "random",
                                "standard_normal", "standard_normal"]
    # The reference's one call per draw, then the six normals after the degenerate draw.
    rng = scenario_rng(seed, 1, STREAM_SCENARIO)
    f = float(rng.uniform(*FOCAL_RANGE))
    w, h = IMAGE_SIZES[int(rng.integers(len(IMAGE_SIZES)))]
    rng.uniform(-JOINT_LIMIT, JOINT_LIMIT, chain.n_joints)
    tx_n = float(rng.uniform(-box.xy_bound, box.xy_bound))
    ty_n = float(rng.uniform(-box.xy_bound, box.xy_bound))
    tz_n = float(rng.uniform(*box.z_bound))
    n = NormalizedPose(np.append(rng.standard_normal(6), (tx_n, ty_n, tz_n)))
    gt = denormalize(n, CameraIntrinsics(f=f, w=w, h=h), cfg)
    assert_same_bits(got[1].gt_pose.R, gt.R)
    assert_same_bits(got[1].gt_pose.t, gt.t)
    assert wrapped[1].rng.bit_generator.state == rng.bit_generator.state


def reference_projection(cam_pts, K):
    """The boolean-indexed projection that `make_observation` replaced."""
    uv = np.full((cam_pts.shape[0], 2), np.nan)
    visible = cam_pts[:, 2] > 0
    uv[visible, 0] = K.f * cam_pts[visible, 0] / cam_pts[visible, 2] + K.cx
    uv[visible, 1] = K.f * cam_pts[visible, 1] / cam_pts[visible, 2] + K.cy
    return uv


def test_projection_matches_boolean_indexed_reference():
    chain = ChainSpec()
    flip = np.diag([1.0, -1.0, -1.0])
    behind = zero = 0
    for sc in generate_scenarios(5, 300).scenarios:
        R, t = sc.gt_pose.R, sc.gt_pose.t
        pose = [
            sc.gt_pose,  # every keypoint in front
            Pose(R @ flip, t * [1.0, 1.0, 0.02]),  # some behind the camera
            Pose(np.eye(3), t * [1.0, 1.0, 0.0]),  # the base and first joint at z = 0
            Pose(np.eye(3), t * [1.0, 1.0, -0.0]),
        ][sc.index % 4]
        sc = Observation(index=sc.index, gt_pose=pose, intrinsics=sc.intrinsics, joints=sc.joints)
        cam_pts = pose.transform(forward_kinematics(chain, sc.joints))
        behind += int((cam_pts[:, 2] < 0).sum())
        zero += int((cam_pts[:, 2] == 0).sum())
        got = make_observation(sc, chain, 5).keypoints_2d
        assert_same_bits(got, reference_projection(cam_pts, sc.intrinsics))
    assert behind > 0 and zero > 0


def test_estimate_imports_neither_numpy_ma_nor_concurrent_futures(tmp_path):
    code = (
        "import sys\n"
        "from posediff.cli import main\n"
        "main(sys.argv[1:])\n"
        "print(sorted(m for m in ('numpy.ma', 'concurrent.futures') if m in sys.modules))\n"
    )
    argv = ["estimate", "--scenarios", "20", "--denoiser", "noisy:0.2"]

    def loaded(*extra):
        out = subprocess.run(
            [sys.executable, "-c", code, *argv, *extra, "--out", str(tmp_path / "run")],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        ).stdout
        return out.splitlines()[-1]

    assert loaded() == "[]"
    assert loaded("--workers", "2") == "['concurrent.futures']"


def read_adds(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.DictReader(line for line in fh if not line.startswith("#"))
        return [float(r["add"]) for r in rows]


@pytest.mark.parametrize("argv", [
    ["--scenarios", "41", "--seed", "3", "--denoiser", "noisy:0.2"],
    ["--scenarios", "40", "--seed", "4", "--mode", "direct", "--denoiser", "noisy:0.5"],
    ["--scenarios", "60", "--seed", "2", "--denoiser", "biased:3e156"],  # 17 aborts
])
def test_median_add_is_numpy_median_of_finite_adds(argv, tmp_path):
    main(["estimate", *argv, "--out", str(tmp_path / "run")])
    adds = np.array(read_adds(tmp_path / "run.csv"))
    finite = adds[np.isfinite(adds)]
    summary = json.loads((tmp_path / "run.json").read_text(encoding="utf-8"))
    assert_same_bits(summary["median_add"], float(np.median(finite)))


def test_statistics_median_is_numpy_median_on_non_negative_floats():
    draw = np.random.default_rng(17)
    cases = [[0.0], [0.0, 0.0], [0.0, 5e-324], [5e-324, 5e-324], [0.1, 0.2], [2.0, 2.0, 1.0]]
    for n in range(1, 41):
        values = draw.exponential(1e-3, n)
        # Ties and exact zeros: some values repeated, some set to 0.0.
        values[draw.random(n) < 0.3] = 0.0
        values[draw.random(n) < 0.3] = values[0]
        cases.append(values.tolist())
    for values in cases:
        assert_same_bits(statistics.median(values), float(np.median(values)))
