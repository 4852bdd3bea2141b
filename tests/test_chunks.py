"""Differential tests: the diffuse and trainsim chunk batches against per-scenario loops.

The references below run one scenario at a time through the scalar calls,
drawing from the scenario's own generator in the order the batch must keep:
for diffuse, one (T, 9) noise block; for trainsim, per draw, the timestep,
the forward noise and any redraws of it, then the oracle's noise. The
reference forward draw is the scalar retry loop written out, so it does not
share the batch code of `forward_diffusion.diffuse`. Integer columns must
agree exactly and floats to 1e-12 relative.
"""

import itertools
import json
import math
import os
import sys
import threading
import time

import numpy as np
import pytest

from posediff import (
    NormalizedPose,
    decomposed_loss,
    denormalize,
    diffuse,
    diffuse_normalized,
    generate_scenarios,
    in_frustum,
    make_observation,
    normalize,
    sample_points,
    sample_timestep,
    scenario_rng,
)
from posediff import cli
from posediff.denoising import Observation
from posediff.errors import DegenerateRotation6D, NonPositiveDepth
from posediff.metrics import STREAM_DIFFUSE, STREAM_TRAINSIM
from posediff.se3_camera import IDENTITY_ROT6


def scenarios(cfg, world):
    return generate_scenarios(cfg.seed, cfg.scenarios, world[3], world[4], world[1]).scenarios


def reference_diffuse_rows(cfg, world, sc):
    """CSV rows and noised vectors of one scenario, one timestep at a time."""
    sched, norm, scales, box, _, _ = world
    ts = cfg.parse_timesteps()
    K = sc.intrinsics
    n0 = normalize(sc.gt_pose, K, norm).as_vector()
    eps = scenario_rng(cfg.seed, sc.index, STREAM_DIFFUSE).standard_normal((len(ts), 9))
    rows, vecs = [], []
    for j, t in enumerate(ts):
        n = diffuse_normalized(n0, t, sched, scales, eps[j], box if cfg.clamp else None)
        # in_frustum reads only the translation, so a degenerate rotation does not
        # matter: the identity stands in for it.
        try:
            inside = in_frustum(denormalize(NormalizedPose(IDENTITY_ROT6, *n[6:]), K, norm), K,
                                cfg.margin, (norm.z_min, norm.z_max))
        except NonPositiveDepth:
            inside = False
        behind = n[8] + norm.c_z <= 0
        u = math.nan if behind else K.w * n[6] + K.cx
        v = math.nan if behind else K.h * n[7] + K.cy
        rows.append((sc.index, t, int(inside), *n[6:], u, v))
        vecs.append(n)
    return rows, vecs


def reference_forward_draw(sc, t, world, rng, clamp):
    """The forward draw of one pose: redraw a degenerate rotation up to 16 times."""
    sched, norm, scales, box, _, _ = world
    n0 = normalize(sc.gt_pose, sc.intrinsics, norm).as_vector()
    for attempt in range(17):
        n_t = diffuse_normalized(n0, t, sched, scales, rng.standard_normal(9),
                                 box if clamp else None)
        try:
            return denormalize(NormalizedPose.from_vector(n_t), sc.intrinsics, norm)
        except DegenerateRotation6D:
            if attempt == 16:
                raise


def reference_trainsim_rows(cfg, world, sc):
    """(t, loss_xy, loss_rot, loss_z, total) rows of one scenario, draw by draw."""
    sched, _, _, _, chain, oracle = world
    obs = make_observation(sc, chain, cfg.seed)
    rng = scenario_rng(cfg.seed, sc.index, STREAM_TRAINSIM)
    points = sample_points(chain, sc.joints, cfg.per_link)
    rows = []
    for _ in range(cfg.draws):
        t = sample_timestep(sched, rng)
        pose_t = reference_forward_draw(sc, t, world, rng, cfg.clamp)
        pred = oracle.predict(pose_t, t, obs, rng)
        rows.append((t, *decomposed_loss(sc.gt_pose, pose_t, pred, points, sc.intrinsics)))
    return rows


def assert_rows_match(got, want):
    got, want = np.array(got, dtype=float), np.array(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def assert_diffuse_chunk_matches_reference(cfg, world):
    """Compare the chunk of every scenario with the reference; the chunk's rows and flags."""
    scen = scenarios(cfg, world)
    got_inside, got_n, got_rows = cli._diffuse_chunk(cfg, world, scen)
    got_rows = list(got_rows)
    want = [reference_diffuse_rows(cfg, world, sc) for sc in scen]
    want_rows = [row for rows, _ in want for row in rows]
    assert [r[:3] for r in got_rows] == [r[:3] for r in want_rows]
    assert_rows_match([r[3:] for r in got_rows], [r[3:] for r in want_rows])
    np.testing.assert_array_equal(got_inside.ravel(), [r[2] == 1 for r in want_rows])
    np.testing.assert_allclose(got_n, [vecs for _, vecs in want], rtol=1e-12, atol=1e-15)
    return got_rows, got_inside


DENOISERS = ("perfect", "noisy:0.2", "biased:4")
DIFFUSE_CASES = list(itertools.product((True, False), ("all", "50,50,10", "1,100,37")))


@pytest.mark.parametrize("case", range(len(DIFFUSE_CASES)))
def test_diffuse_chunk_matches_per_scenario_reference(case):
    clamp, timesteps = DIFFUSE_CASES[case]
    cfg = cli.RunConfig(clamp=clamp, timesteps=timesteps, seed=100 + case,
                        scenarios=60).validate()
    world = cli._build_world(cfg)
    got_rows, got_inside = assert_diffuse_chunk_matches_reference(cfg, world)
    if not clamp and timesteps == "all":
        # The unclamped process leaves the frustum and goes behind the camera.
        assert not got_inside.all() and any(math.isnan(r[6]) for r in got_rows)


class CancellingRotation:
    """A generator whose (T, 9) noise blocks carry `rot_eps` as every row's rotation noise."""

    def __init__(self, rng, rot_eps):
        self.rng, self.rot_eps = rng, rot_eps

    def standard_normal(self, shape):
        eps = self.rng.standard_normal(shape)
        eps[:, :6] = self.rot_eps
        return eps


def test_degenerate_noised_rotation_is_judged_by_its_translation(monkeypatch):
    """A row whose rotation noise cancels its ground-truth rot6 is degenerate after
    diffusion, and still in the frustum: in_frustum reads only the translation."""
    t = 50
    cfg = cli.RunConfig(timesteps=str(t), seed=3, scenarios=8).validate()
    world = cli._build_world(cfg)
    sched, norm = world[:2]
    sc = scenarios(cfg, world)[2]
    a = sched.alpha_bar[t]
    rot0 = normalize(sc.gt_pose, sc.intrinsics, norm).as_vector()[:6]
    real_rng = scenario_rng

    def cancelling_rng(seed, index, stream):
        rng = real_rng(seed, index, stream)
        if index != sc.index:
            return rng
        return CancellingRotation(rng, -np.sqrt(a / (1 - a)) * rot0)  # s_rot is 1

    monkeypatch.setattr(cli, "scenario_rng", cancelling_rng)
    monkeypatch.setattr(sys.modules[__name__], "scenario_rng", cancelling_rng)
    got_rows, got_inside = assert_diffuse_chunk_matches_reference(cfg, world)
    n = np.array(got_rows[sc.index][3:6])
    assert got_inside[sc.index].tolist() == [True] and got_rows[sc.index][2] == 1
    noised = cli._diffuse_chunk(cfg, world, [sc])[1][0, 0]
    assert np.linalg.norm(noised[:6]) < 1e-12 and np.array_equal(noised[6:], n)
    with pytest.raises(DegenerateRotation6D):
        denormalize(NormalizedPose.from_vector(noised), sc.intrinsics, norm)


TRAINSIM_CASES = list(itertools.product((True, False), DENOISERS))


@pytest.mark.parametrize("case", range(len(TRAINSIM_CASES)))
def test_trainsim_chunk_matches_per_scenario_reference(case):
    clamp, denoiser = TRAINSIM_CASES[case]
    # Unclamped draws reach behind the camera now and then, which aborts the
    # run; a 30-step schedule has less noise, and these seeds run whole.
    cfg = cli.RunConfig(clamp=clamp, denoiser=denoiser, seed=200 + case, scenarios=19,
                        draws=3, steps=100 if clamp else 30, timesteps="all").validate()
    world = cli._build_world(cfg)
    scen = scenarios(cfg, world)
    want = [row for sc in scen for row in reference_trainsim_rows(cfg, world, sc)]
    got = cli._trainsim_chunk(cfg, world, scen)
    assert got[:, 0].tolist() == [row[0] for row in want]
    assert_rows_match(got, want)


def test_unclamped_trainsim_chunk_aborts_like_the_reference():
    cfg = cli.RunConfig(clamp=False, seed=1, scenarios=40, draws=4).validate()
    world = cli._build_world(cfg)
    scen = scenarios(cfg, world)
    with pytest.raises(NonPositiveDepth):
        [reference_trainsim_rows(cfg, world, sc) for sc in scen]
    with pytest.raises(NonPositiveDepth):
        cli._trainsim_chunk(cfg, world, scen)


class ScriptedRng:
    """A real generator, except that its first `bad` draws are `degenerate`."""

    def __init__(self, seed, degenerate, bad):
        self.rng = np.random.default_rng(seed)
        self.degenerate, self.bad, self.calls = degenerate, bad, 0

    def standard_normal(self, size):
        self.calls += 1
        if self.calls <= self.bad:
            return self.degenerate.copy()
        return self.rng.standard_normal(size)


def degenerate_eps(sc, t, world):
    """Noise whose rotation part cancels the first rotation column at timestep t."""
    sched, norm = world[0], world[1]
    n0 = normalize(sc.gt_pose, sc.intrinsics, norm).as_vector()
    eps = np.zeros(9)
    eps[:3] = -math.sqrt(sched.alpha_bar[t]) * n0[:3] / math.sqrt(1 - sched.alpha_bar[t])
    return eps


def forward_batch(world, scen, t, rngs):
    sched, norm, scales, box, chain, _ = world
    obs = Observation.stack([make_observation(sc, chain, 0) for sc in scen])
    return diffuse(obs.gt_pose, t, sched, scales, box, obs.intrinsics, norm, rngs)


@pytest.mark.parametrize("bad", [1, 3])
def test_only_the_degenerate_row_redraws(bad):
    cfg = cli.RunConfig(seed=5, scenarios=6).validate()
    world = cli._build_world(cfg)
    scen = scenarios(cfg, world)
    t = np.array([50, 10, 99, 50, 1, 70])

    def scripted():
        return ScriptedRng(77, degenerate_eps(scen[2], 99, world), bad)

    rngs = [scripted() if i == 2 else np.random.default_rng([9, i]) for i in range(6)]

    got = forward_batch(world, scen, t, rngs)
    assert rngs[2].calls == bad + 1
    for i, sc in enumerate(scen):
        rng = scripted() if i == 2 else np.random.default_rng([9, i])
        want = reference_forward_draw(sc, int(t[i]), world, rng, True)
        np.testing.assert_allclose(got.R[i], want.R, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(got.t[i], want.t, rtol=1e-12, atol=1e-15)
        if i != 2:
            # One 9-vector drawn, exactly as a scenario run alone draws it.
            fresh = np.random.default_rng([9, i])
            fresh.standard_normal(9)
            assert rngs[i].bit_generator.state == fresh.bit_generator.state


def test_a_row_out_of_redraws_raises():
    cfg = cli.RunConfig(seed=5, scenarios=3).validate()
    world = cli._build_world(cfg)
    scen = scenarios(cfg, world)
    rngs = [np.random.default_rng(0), ScriptedRng(1, degenerate_eps(scen[1], 40, world), 17),
            np.random.default_rng(2)]
    with pytest.raises(DegenerateRotation6D):
        forward_batch(world, scen, np.full(3, 40), rngs)


def test_trainsim_chunk_samples_points_once(monkeypatch):
    cfg = cli.RunConfig(seed=3, scenarios=19, draws=2).validate()
    world = cli._build_world(cfg)
    calls = []

    def counted(*args):
        calls.append(args)
        return sample_points(*args)

    monkeypatch.setattr(cli, "sample_points", counted)
    cli._trainsim_chunk(cfg, world, scenarios(cfg, world))
    assert len(calls) == 1


def test_run_chunks_keeps_at_most_workers_chunks_in_flight():
    # More than 2 * MAX_CHUNK scenarios, so two workers get six chunks.
    cfg = cli.RunConfig(seed=3, scenarios=1300, workers=2).validate()
    started, lock = [], threading.Lock()

    def record(cfg, world, chunk):
        with lock:
            started.append(chunk[0].index)
            k = len(started)
        time.sleep(0.03 if k % 2 else 0.0)  # the first of each pair finishes second
        return chunk[0].index

    results = cli._run_chunks(cfg, cli._build_world(cfg), record)
    first = next(results)
    assert len(started) <= cfg.workers + 1
    want = [chunk[0] for chunk in cli._chunks(list(range(cfg.scenarios)), cfg.workers)]
    assert len(want) == 6
    assert [first, *results] == want


@pytest.mark.parametrize("seed", [4, 2**40 + 3])
def test_scenarios_from_a_start_index_are_rows_of_the_whole_run(seed):
    cfg = cli.RunConfig(seed=seed, scenarios=60).validate()
    world = cli._build_world(cfg)
    whole = scenarios(cfg, world)
    for start, count in ((0, 60), (0, 1), (1, 7), (17, 30), (59, 1)):
        part = generate_scenarios(seed, count, world[3], world[4], world[1], start=start).scenarios
        for got, want in zip(part, whole[start:start + count], strict=True):
            assert got.index == want.index
            for a, b in ((got.gt_pose.R, want.gt_pose.R), (got.gt_pose.t, want.gt_pose.t),
                         (got.joints.angles, want.joints.angles)):
                assert a.tobytes() == b.tobytes()
            assert got.intrinsics == want.intrinsics


@pytest.mark.parametrize("rows, lengths, worker_lengths", [
    (1, [250] * 4, [8] * 3),  # MAX_CHUNK scenarios bound the chunk
    (3, [250] * 4, [8] * 3),
    (100, [40] * 25, [8] * 3),  # MAX_BATCH_ROWS rows bound it
    (1000, [4] * 250, [4] * 6),
    (5000, [1] * 1000, [1] * 24),  # a scenario of more rows than the cap is a chunk alone
])
def test_chunks_keep_within_the_row_cap(rows, lengths, worker_lengths):
    chunks = cli._chunks(range(1000), 1, rows)
    assert [len(c) for c in chunks] == lengths
    assert [i for c in chunks for i in c] == list(range(1000))
    assert all(len(c) * rows <= max(cli.MAX_BATCH_ROWS, rows) for c in chunks)
    # 24 scenarios on 3 workers: one chunk per worker while the caps allow it.
    assert [len(c) for c in cli._chunks(range(24), 3, rows)] == worker_lengths


CHUNK_RULE_RUNS = {
    "diffuse-all": ["diffuse", "--scenarios", "20", "--steps", "3", "--timesteps", "all",
                    "--seed", "6"],
    "estimate-trajectories": ["estimate", "--scenarios", "20", "--denoiser", "noisy:0.2",
                              "--seed", "6", "--trajectories", "traj.csv"],
    "trainsim": ["trainsim", "--scenarios", "20", "--draws", "2", "--denoiser", "noisy:0.2",
                 "--seed", "6"],
}


def run_outputs(argv, folder):
    """Each output file of `argv` run in `folder`, as bytes; the `#` lines of CSVs and the
    JSON metadata block, which record the config, are left out."""
    folder.mkdir()
    old = os.getcwd()
    os.chdir(folder)
    try:
        assert cli.main([*argv, "--out", "run"]) == 0
    finally:
        os.chdir(old)
    outputs = {}
    for path in sorted(folder.iterdir()):
        if path.suffix == ".json":
            outputs[path.name] = {k: v for k, v in json.loads(path.read_text()).items()
                                  if k != "metadata"}
        else:
            outputs[path.name] = b"".join(line for line in path.read_bytes().splitlines(True)
                                          if not line.startswith(b"#"))
    return outputs


@pytest.mark.parametrize("name", CHUNK_RULE_RUNS)
def test_chunk_caps_and_workers_leave_the_bytes_unchanged(name, tmp_path, monkeypatch):
    argv = CHUNK_RULE_RUNS[name]
    want = run_outputs(argv, tmp_path / "default")
    assert want
    for max_chunk, max_rows in itertools.product((1, 7), (1, 7)):
        monkeypatch.setattr(cli, "MAX_CHUNK", max_chunk)
        monkeypatch.setattr(cli, "MAX_BATCH_ROWS", max_rows)
        assert run_outputs(argv, tmp_path / f"caps{max_chunk}_{max_rows}") == want
        assert run_outputs([*argv, "--workers", "3"], tmp_path / f"w{max_chunk}_{max_rows}") == want
    monkeypatch.undo()
    assert run_outputs([*argv, "--workers", "3"], tmp_path / "workers") == want
