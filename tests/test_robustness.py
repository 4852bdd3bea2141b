"""Bad configurations exit 2 with one line; aborts exit 1 and non-finite poses are named."""

import json
import math
import sys

import numpy as np
import pytest

from posediff import (
    BiasedOracle,
    ChainSpec,
    FrustumBox,
    JointConfig,
    NoiseScales,
    NormConfig,
    Pose,
    ReverseConfig,
    generate_scenarios,
    gram_schmidt_6d,
    make_linear_schedule,
    make_observation,
    run_reverse,
    sample_points,
    scenario_rng,
)
from posediff.cli import main
from posediff.errors import InvalidConfig, InvalidScheduleParams, NonFiniteState
from posediff.reverse import sigma_squared


@pytest.mark.parametrize("spec", ["bogus", "noisy:abc", "noisy:-0.1", "noisy:nan", "biased:inf"])
def test_bad_denoiser_exits_2_with_one_line(spec, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["estimate", "--scenarios", "2", "--denoiser", spec, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: denoiser: ") and err.count("\n") == 1
    assert not (tmp_path / "run.csv").exists()


def test_eta_whose_square_is_finite_runs(tmp_path):
    """The largest eta whose square is a float, sqrt(max float), still runs."""
    out = str(tmp_path / "run")
    assert main(["schedule", "--eta", "1e154", "--out", out]) == 0
    assert main(["schedule", "--eta", repr(math.sqrt(sys.float_info.max)), "--out", out]) == 0


def test_overflowing_denoiser_aborts_every_row_as_non_finite(tmp_path):
    out = str(tmp_path / "big")
    code = main(["estimate", "--scenarios", "12", "--seed", "3", "--denoiser", "biased:1e308",
                 "--out", out])
    summary = json.loads(open(out + ".json").read())
    assert code == 1
    assert summary["aborted"] == 12 and summary["abort_reasons"] == ["NonFiniteState"]
    assert summary["auc"] == 0.0
    rows = [l.split(",") for l in open(out + ".csv").read().splitlines()
            if not l.startswith("#")][1:]
    assert all(r[1:3] == ["inf", "0"] and r[4:] == ["1", "NonFiniteState"] for r in rows)


def test_single_scenario_run_raises_non_finite_state(norm_cfg, sched, chain):
    sc = generate_scenarios(3, 1, cfg=norm_cfg).scenarios[0]
    obs = make_observation(sc, chain, 3)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteState):
        run_reverse(obs, chain, sched, NoiseScales.for_config(norm_cfg), norm_cfg,
                    ReverseConfig(), BiasedOracle(1e308), scenario_rng(3, 0, 1))


@pytest.mark.parametrize("chain", [None, {"link_lengths": [0.3, -0.2]}, {"link_lengths": 3},
                                   [0.3, 0.2], {"link_lenghts": [0.3, 0.2]},
                                   {"n_joints": 2.7, "link_lengths": [0.3, 0.2]},
                                   {"link_lengths": ["0.3", True]},
                                   {"n_joints": True, "link_lengths": [0.3]},
                                   {"link_lengths": [np.nan, 0.2]},
                                   {"link_lengths": [np.inf, 0.2]},
                                   {"link_lengths": [0.3], "joint_axes": [[np.nan, 0.0, 1.0]]},
                                   {"link_lengths": []},
                                   {"n_joints": 2, "link_lengths": [0.3, 0.2],
                                    "joint_axes": [[0, 0, 1], [1, 0]]},
                                   {"link_lengths": [0.3, 0.2], "joint_axes": [[0, 0, 1]]}])
def test_bad_chain_file_exits_2_with_one_line(chain, tmp_path, capsys):
    path = tmp_path / "chain.json"
    if chain is not None:
        path.write_text(json.dumps(chain))
    out = str(tmp_path / "run")
    assert main(["estimate", "--scenarios", "2", "--chain", str(path), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: chain: ") and err.count("\n") == 1
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("command", ["schedule", "diffuse", "estimate", "trainsim"])
@pytest.mark.parametrize("values", [None, {"scenarios": "5"}, {"margin": None}, {"denoiser": 3},
                                    {"timesteps": 5}, {"clamp": "no"}, {"workers": 2.5}],
                         ids=["seed-flag", "scenarios", "margin", "denoiser", "timesteps", "clamp",
                              "workers"])
def test_bad_config_value_exits_2_with_one_line(command, values, tmp_path, capsys):
    """`values` is a config file's content; None passes --seed -1 instead."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(values))
    flags = ["--seed", "-1"] if values is None else ["--config", str(path)]
    field = "seed" if values is None else next(iter(values))
    scenarios = [] if command == "schedule" else ["--scenarios", "2"]  # schedule draws none
    assert main([command, *flags, *scenarios, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("run*"))


@pytest.mark.parametrize("values", [[], 5, None, ["scenarios"]])
def test_config_file_not_an_object_exits_2_with_one_line(values, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(values))
    assert main(["estimate", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config file: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("run*"))


# Finite depth ranges whose pose arithmetic overflows (the farthest in-view
# translation's squared norm) or cancels ((z_min - cz) + cz comes back 0, so the
# clamp can put a pose at depth 0).
DEPTH_LOST = [["--cz", "1e308", "--z-max", "1.7e308"], ["--z-max", "1e200"],
              ["--cz", "1e150", "--z-max", "1e200"], ["--cz", "1e100", "--z-max", "1e150"],
              ["--z-min", "1e-17"]]
DEPTH_LOST_IDS = ["cz-1e308", "z-max-1e200", "cz-1e150", "cz-1e100", "z-min-1e-17"]


@pytest.mark.parametrize("flags, field", [
    (["--gamma", "inf"], "gamma"),
    (["--z-max", "inf"], "z_max"),
    (["--eta", "inf"], "eta"),
    (["--competence", "inf"], "competence"),
    (["--eta", "inf", "--sigma-form", "standard"], "eta"),
    (["--cz", "nan"], "cz"),
    # Finite, but its noise scales overflow.
    (["--gamma", "1e-320"], "gamma/margin"),
    *((flags, "cz") for flags in DEPTH_LOST),
], ids=["gamma-inf", "z-max-inf", "eta-inf", "competence-inf", "eta-inf-standard", "cz-nan",
        "gamma-tiny", *DEPTH_LOST_IDS])
def test_non_finite_config_value_exits_2_with_one_line(flags, field, tmp_path, capsys):
    assert main(["estimate", "--scenarios", "20", *flags, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("run*"))


# A config-file integer past float range: 1 followed by 400 zeros.
HUGE_INT = "1" + "0" * 400


@pytest.mark.parametrize("field", ["gamma", "eta", "margin", "cz", "beta_end"])
def test_config_file_int_past_float_range_exits_2_with_one_line(field, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(f'{{"{field}": {HUGE_INT}}}')
    out = str(tmp_path / "run")
    assert main(["estimate", "--scenarios", "2", "--config", str(path), "--out", out]) == 2
    assert capsys.readouterr().err == f"error: {field}: must be finite\n"
    assert not list(tmp_path.glob("run*"))


@pytest.mark.parametrize("argv, text, field", [
    (["estimate", "--mode", "tracking", "--scenarios", "2"], '{"eta": Infinity}', "eta"),
    (["estimate", "--scenarios", "2"], f'{{"competence": {HUGE_INT}}}', "competence"),
    (["diffuse", "--scenarios", "2"], '{"competence": -Infinity}', "competence"),
    (["schedule"], '{"gamma": NaN}', "gamma"),
], ids=["tracking-eta-inf", "perfect-competence-past-float-range", "diffuse-competence-inf",
        "schedule-gamma-nan"])
def test_non_finite_float_exits_2_where_the_run_does_not_read_it(argv, text, field, tmp_path,
                                                                  capsys):
    """The JSON metadata spells no Infinity or NaN, so a run that accepted one would record a
    config that does not reload: a float field must be finite whether the run reads it or not."""
    path = tmp_path / "c.json"
    path.write_text(text)
    assert main([*argv, "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: {field}: must be finite\n"
    assert not list(tmp_path.glob("run*"))


@pytest.mark.parametrize("command", ["estimate", "diffuse", "trainsim"])
@pytest.mark.parametrize("flags", DEPTH_LOST, ids=DEPTH_LOST_IDS)
def test_depth_range_lost_to_float_arithmetic_exits_2(command, flags, tmp_path, capsys):
    assert main([command, "--scenarios", "20", *flags, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cz: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("run*"))


def test_trainsim_abort_exits_1_with_one_line(tmp_path, capsys):
    out = str(tmp_path / "ts")
    code = main(["trainsim", "--scenarios", "40", "--draws", "4", "--no-clamp", "--seed", "1",
                 "--out", out])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: recovered depth ") and err.count("\n") == 1
    assert not (tmp_path / "ts.json").exists()


# Constructor and kernel arguments that fail a check, with its error type and exact message.
BAD_ARGUMENTS = {
    "ddim-steps-0": (lambda: ReverseConfig(ddim_steps=0), InvalidConfig,
                     "ddim_steps must be >= 1"),
    "refine-steps-negative": (lambda: ReverseConfig(refine_steps=-1), InvalidConfig,
                              "refine_steps must be >= 0"),
    "eta-negative": (lambda: ReverseConfig(eta=-0.1), InvalidConfig, "eta must be >= 0"),
    "init-mode-unknown": (lambda: ReverseConfig(init_mode="x"), InvalidConfig,
                          "init_mode must be one of ('canonical', 'prior-sample')"),
    "sigma-form-unknown": (lambda: ReverseConfig(sigma_form="x"), InvalidConfig,
                           "sigma_form must be one of ('paper', 'standard')"),
    "sigma-squared-form-unknown": (
        lambda: sigma_squared(make_linear_schedule(), 50, 25, 1.0, "x"), InvalidConfig,
        "sigma_form must be one of ('paper', 'standard')"),
    "schedule-beta-rounds-away": (
        lambda: make_linear_schedule(100, 1e-320, 1e-320), InvalidScheduleParams,
        "need alpha_bar to decrease strictly to above 0, got 100 steps over betas "
        "(1e-320, 1e-320)"),
    "schedule-alpha-bar-underflows": (
        lambda: make_linear_schedule(200000), InvalidScheduleParams,
        "need alpha_bar to decrease strictly to above 0, got 200000 steps over betas "
        "(0.0001, 0.02)"),
    "cz-past-z-max": (lambda: NormConfig(c_z=5.0), ValueError,
                      "need 0 < z_min < c_z < z_max, got (0.3, 5.0, 3.0)"),
    "z-bound-empty": (lambda: FrustumBox(xy_bound=0.45, z_bound=(1.0, 1.0)), ValueError,
                      "z interval is empty"),
    "link-lengths-short": (lambda: ChainSpec(n_joints=3, link_lengths=(0.1, 0.1)), ValueError,
                           "expected 3 link lengths, got 2"),
    "per-link-0": (lambda: sample_points(ChainSpec(), JointConfig(np.zeros(7)), per_link=0),
                   ValueError, "per_link must be >= 1"),
    "rot6-short": (lambda: gram_schmidt_6d(np.zeros(5)), ValueError,
                   "expected trailing dimension 6, got (5,)"),
    "rotation-4x4": (lambda: Pose(np.eye(4), np.zeros(3)), ValueError,
                     "R must be 3x3 or a batch of 3x3, got (4, 4)"),
}


@pytest.mark.parametrize("name", BAD_ARGUMENTS)
def test_bad_argument_raises_its_check(name):
    make, error, message = BAD_ARGUMENTS[name]
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error and str(info.value) == message
