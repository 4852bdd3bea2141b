"""Bad configurations exit 2 with one line; aborts exit 1 and non-finite poses are named."""

import json

import numpy as np
import pytest

from posediff import (
    BiasedOracle,
    NoiseScales,
    ReverseConfig,
    generate_scenarios,
    make_observation,
    run_reverse,
    scenario_rng,
)
from posediff.cli import main
from posediff.errors import NonFiniteState


@pytest.mark.parametrize("spec", ["bogus", "noisy:abc", "noisy:-0.1", "noisy:nan", "biased:inf"])
def test_bad_denoiser_exits_2_with_one_line(spec, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["estimate", "--scenarios", "2", "--denoiser", spec, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: denoiser: ") and err.count("\n") == 1
    assert not (tmp_path / "run.csv").exists()


def test_previous_estimate_init_needs_tracking_mode(tmp_path, capsys):
    out = str(tmp_path / "pe")
    assert main(["estimate", "--scenarios", "2", "--init", "previous-estimate", "--out", out]) == 2
    assert capsys.readouterr().err == (
        "error: init: previous-estimate needs --mode tracking, which starts from the ground truth\n"
    )
    assert main(["estimate", "--scenarios", "2", "--mode", "tracking", "--init",
                 "previous-estimate", "--out", out]) == 0


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
                                   [0.3, 0.2], {"link_lenghts": [0.3, 0.2]}])
def test_bad_chain_file_exits_2_with_one_line(chain, tmp_path, capsys):
    path = tmp_path / "chain.json"
    if chain is not None:
        path.write_text(json.dumps(chain))
    out = str(tmp_path / "run")
    assert main(["estimate", "--scenarios", "2", "--chain", str(path), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: chain: ") and err.count("\n") == 1
    assert not (tmp_path / "run.csv").exists()


def test_trainsim_abort_exits_1_with_one_line(tmp_path, capsys):
    out = str(tmp_path / "ts")
    code = main(["trainsim", "--scenarios", "40", "--draws", "4", "--no-clamp", "--seed", "1",
                 "--out", out])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: recovered depth ") and err.count("\n") == 1
    assert not (tmp_path / "ts.json").exists()
