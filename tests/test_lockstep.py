"""Differential tests: the lockstep estimate engine against a per-scenario loop.

The reference below is the per-scenario reverse loop built from the scalar
primitives, one scenario and one generator at a time, raising at the first
failing check. The engine runs a whole chunk of scenarios as one batch and
must agree with it row by row: ADD to 1e-12 relative, and `steps`,
`aborted` and `reason` exactly.
"""

import itertools
import json
from dataclasses import dataclass

import numpy as np
import pytest

from posediff import (
    DenoiserOutput,
    FrustumBox,
    NormalizedPose,
    Pose,
    add_metric,
    ddim_step,
    ddim_timesteps,
    denoise,
    denormalize,
    forward_kinematics,
    generate_scenarios,
    make_observation,
    normalize,
    point_distance,
    scenario_rng,
)
from posediff import cli
from posediff.errors import ABORTS, NonFiniteState
from posediff.metrics import STREAM_ESTIMATE, ScenarioRanges
from posediff.reverse import INIT_MODES, MODES, SIGMA_FORMS


@dataclass
class ForcingOracle:
    """The `base` oracle's targets, except in rows picked by their ground-truth
    depth once conditioned at or below `t_from`: a zero dr6
    (DegenerateRotation6D), a negative depth ratio (NonPositiveDepth) or an
    infinite v_xy (NonFiniteState). Other rows never abort."""

    base: object
    t_from: int

    def predict(self, pose_t, t, obs, rng, reasons=None):
        out = self.base.predict(pose_t, t, obs, rng, reasons=reasons)
        if t > self.t_from:
            return out
        kind = np.floor(obs.gt_pose.t[..., 2] * 1e4) % 7
        return DenoiserOutput(
            np.where((kind == 2)[..., None], np.inf, out.v_xy),
            np.where((kind == 0)[..., None], 0.0, out.dr6),
            np.where(kind == 1, -1.0, out.v_z),
        )


def reference_row(cfg, world, rcfg, oracle, sc):
    """(add, steps, aborted, reason) of one scenario, run on its own."""
    sched, norm, scales, _, chain, _ = world
    obs = make_observation(sc, chain, cfg.seed)
    rng = scenario_rng(cfg.seed, sc.index, STREAM_ESTIMATE)
    kp = forward_kinematics(chain, sc.joints)
    if cfg.mode == "direct":
        plan = [(1, None)] * (cfg.ddim_steps + cfg.refine_steps)
    else:
        ts = ddim_timesteps(sched.T, rcfg.ddim_steps)
        plan = list(zip(ts, ts[1:] + [0])) + [(1, None)] * rcfg.refine_steps
    try:
        if cfg.mode == "tracking":
            pose = sc.gt_pose.copy()
        elif cfg.init == "prior-sample":
            box = FrustumBox.for_config(norm, cfg.margin)
            n = box.clamp(rng.standard_normal(9) * scales.as_vector())
            pose = denormalize(NormalizedPose.from_vector(n), obs.intrinsics, norm)
        else:
            pose = Pose(np.eye(3), [0.0, 0.0, norm.c_z])
        for t, t_prev in plan:
            if t_prev is None:
                pose = denoise(pose, t, obs, oracle, rng)
            else:
                n_t = normalize(pose, obs.intrinsics, norm)
                n0_hat = normalize(denoise(pose, t, obs, oracle, rng), obs.intrinsics, norm)
                n_prev = ddim_step(n_t, n0_hat, t, t_prev, sched, rcfg.eta, rcfg.sigma_form)
                pose = denormalize(n_prev, obs.intrinsics, norm)
            if not np.isfinite(point_distance(obs.gt_pose, pose, kp)):
                raise NonFiniteState("pose is not finite")
    except ABORTS as exc:
        return float("inf"), 0, 1, type(exc).__name__
    return add_metric(sc.gt_pose, pose, kp), len(plan), 0, ""


ORACLES = ("perfect", "noisy", "biased", "forcing")
CASES = list(itertools.product(MODES, ORACLES, INIT_MODES[:2], SIGMA_FORMS))


@pytest.mark.parametrize("case", range(len(CASES)))
def test_lockstep_matches_per_scenario_reference(case):
    mode, kind, init, form = CASES[case]
    draw = np.random.default_rng([4242, case])
    spec = {
        "perfect": "perfect",
        "noisy": f"noisy:{draw.uniform(0.01, 0.4):.3f}",
        "biased": f"biased:{draw.uniform(-20, 20):.2f}",
        "forcing": f"noisy:{draw.uniform(0.01, 0.4):.3f}",
    }[kind]
    cfg = cli.RunConfig(
        mode=mode,
        init=init,
        sigma_form=form,
        denoiser=spec,
        eta=float(draw.choice([0.0, 0.5, 1.0])),
        ddim_steps=int(draw.integers(1, 7)),
        refine_steps=int(draw.integers(0, 4)),
        seed=int(draw.integers(0, 1000)),
        scenarios=int(draw.integers(15, 30)),
    ).validate()
    world = cli._build_world(cfg)
    if kind == "forcing":
        world = (*world[:5], ForcingOracle(world[5], t_from=int(draw.choice([1, 40, 100]))))
    oracle = world[5]
    rcfg = cli._estimate_reverse_config(cfg)
    scen = generate_scenarios(cfg.seed, cfg.scenarios, ScenarioRanges(margin=cfg.margin),
                              world[4], world[1])

    got = [row for row, _ in cli._estimate_chunk(cfg, world, rcfg, scen.scenarios)]
    with np.errstate(all="ignore"):
        want = [reference_row(cfg, world, rcfg, oracle, sc) for sc in scen]

    assert [r[0] for r in got] == [sc.index for sc in scen]
    assert [r[2:3] + r[4:] for r in got] == [w[1:] for w in want]
    np.testing.assert_allclose([r[1] for r in got], [w[0] for w in want], rtol=1e-12, atol=1e-15)


def test_forcing_oracle_covers_every_abort_kind():
    reasons = set()
    for seed in range(4):
        cfg = cli.RunConfig(scenarios=40, seed=seed).validate()
        world = cli._build_world(cfg)
        world = (*world[:5], ForcingOracle(world[5], t_from=40))
        scen = generate_scenarios(cfg.seed, cfg.scenarios, cfg=world[1])
        rows = cli._estimate_chunk(cfg, world, cli._estimate_reverse_config(cfg), scen.scenarios)
        reasons.update(row[5] for row, _ in rows)
    assert reasons == {"", *(exc.__name__ for exc in ABORTS)}


def test_workers_split_into_contiguous_chunks():
    assert [len(c) for c in cli._chunks(list(range(25)), 3)] == [8, 8, 9]
    assert [len(c) for c in cli._chunks(list(range(4)), 2)] == [4]
    assert sum(cli._chunks(list(range(50)), 4), []) == list(range(50))
    # Every subcommand caps a chunk at MAX_CHUNK scenarios, with or without workers.
    assert [len(c) for c in cli._chunks(list(range(1000)), 1)] == [250] * 4
    assert [len(c) for c in cli._chunks(list(range(513)), 2)] == [171] * 3
    assert [len(c) for c in cli._chunks(list(range(600)), 8)] == [75] * 8


def test_uneven_worker_chunks_give_byte_identical_rows(tmp_path):
    def data(path):
        return [line for line in path.read_bytes().splitlines() if not line.startswith(b"#")]

    argv = ["estimate", "--scenarios", "25", "--seed", "12", "--denoiser", "noisy:0.2"]
    outs = {}
    for workers in (1, 3):
        out = tmp_path / f"w{workers}"
        traj = tmp_path / f"w{workers}_traj.csv"
        assert cli.main(argv + ["--workers", str(workers), "--out", str(out),
                                "--trajectories", str(traj)]) == 0
        summary = json.loads((tmp_path / f"w{workers}.json").read_text())
        outs[workers] = (data(tmp_path / f"w{workers}.csv"), data(traj), summary["auc"])
    assert outs[1] == outs[3]
    assert len(outs[1][0]) == 26 and len(outs[1][1]) == 1 + 25 * 10
