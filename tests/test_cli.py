"""CLI harness tests: subcommands, determinism, config validation."""

import argparse
import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from posediff import ChainSpec, FrustumBox, NormConfig, Pose, auc, generate_scenarios, in_frustum
from posediff import cli, mononorm
from posediff.cli import RunConfig, main
from posediff.errors import ABORTS, InvalidConfig, NonFiniteState
from posediff.metrics import AUC_GRID
from posediff.reverse import MODES

SRC = Path(__file__).resolve().parents[1] / "src"


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def data_rows(path):
    return [l for l in read(path).decode().splitlines() if not l.startswith("#")]


class TestRunConfig:
    def test_defaults_validate(self):
        RunConfig().validate()

    def test_field_level_messages(self):
        with pytest.raises(InvalidConfig, match="gamma"):
            RunConfig(gamma=-1).validate()
        with pytest.raises(InvalidConfig, match="ddim_steps"):
            RunConfig(ddim_steps=0).validate()
        with pytest.raises(InvalidConfig, match="mode"):
            RunConfig(mode="turbo").validate()
        with pytest.raises(InvalidConfig, match="timesteps"):
            RunConfig(timesteps="5,banana").validate()

    def test_workers_are_bounded(self):
        for command in ("diffuse", "estimate", "trainsim"):
            RunConfig(workers=cli.MAX_WORKERS).validate(command)
            with pytest.raises(InvalidConfig, match=f"workers: must be <= {cli.MAX_WORKERS}"):
                RunConfig(workers=cli.MAX_WORKERS + 1).validate(command)
        RunConfig(workers=cli.MAX_WORKERS + 1).validate("schedule")  # a file's unread field

    def test_timesteps_parsing(self):
        assert RunConfig(timesteps="all", steps=10).parse_timesteps() == range(1, 11)
        assert RunConfig(timesteps="1, 50,100").parse_timesteps() == [1, 50, 100]


@pytest.mark.parametrize("command", ["schedule", "diffuse", "estimate", "trainsim"])
def test_world_is_built_once_per_run(command, tmp_path, monkeypatch):
    calls = []
    build_world = cli._build_world

    def counted(cfg, *args):
        calls.append(cfg)
        return build_world(cfg, *args)

    monkeypatch.setattr(cli, "_build_world", counted)
    scenarios = [] if command == "schedule" else ["--scenarios", "2"]  # schedule draws none
    assert main([command, *scenarios, "--out", str(tmp_path / "run")]) == 0
    assert len(calls) == 1


class TestScheduleCommand:
    def test_writes_rows_and_metadata(self, tmp_path):
        out = str(tmp_path / "sched")
        assert main(["schedule", "--out", out]) == 0
        lines = read(out + ".csv").decode().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        data = [l for l in lines if not l.startswith("#")]
        assert any("command=schedule" in l for l in meta)
        assert data[0] == "t,beta,alpha_bar,sigma"
        assert len(data) == 101
        first = data[1].split(",")
        assert float(first[2]) == 1.0 - 1e-4

    def test_final_alpha_bar_matches_product(self, tmp_path):
        out = str(tmp_path / "s")
        main(["schedule", "--out", out])
        rows = [l for l in read(out + ".csv").decode().splitlines() if not l.startswith("#")]
        last = rows[-1].split(",")
        assert float(last[2]) == pytest.approx(0.3635632480554922, rel=1e-12)


class TestDiffuseCommand:
    def test_clamped_run_reports_full_visibility(self, tmp_path):
        out = str(tmp_path / "dif")
        assert main([
            "diffuse", "--scenarios", "50", "--seed", "3", "--out", out,
        ]) == 0
        summary = json.loads(read(out + ".json"))
        assert summary["in_frustum_rate"] == 1.0

    def test_unclamped_run_leaks_at_high_t(self, tmp_path):
        out = str(tmp_path / "leak")
        main([
            "diffuse", "--scenarios", "200", "--seed", "3", "--no-clamp",
            "--timesteps", "100", "--out", out,
        ])
        summary = json.loads(read(out + ".json"))
        assert summary["per_timestep"]["100"]["in_frustum_rate"] < 1.0

    def test_in_frustum_column_is_the_shared_predicate(self, tmp_path):
        out = str(tmp_path / "pred")
        assert main([
            "diffuse", "--scenarios", "40", "--seed", "5", "--no-clamp", "--timesteps", "all",
            "--out", out,
        ]) == 0
        cfg = RunConfig()
        norm = NormConfig(c_z=cfg.cz, z_min=cfg.z_min, z_max=cfg.z_max)
        scen = generate_scenarios(5, 40, FrustumBox.for_config(norm, cfg.margin), ChainSpec(), norm)
        rows = [l for l in read(out + ".csv").decode().splitlines() if not l.startswith("#")]
        flags = []
        for row in rows[1:]:
            index, _, flag, tx_n, ty_n, tz_n, _, _ = row.split(",")
            K = scen.scenarios[int(index)].intrinsics
            tz = float(tz_n) + norm.c_z
            t = [(K.w * tz / K.f) * float(tx_n), (K.h * tz / K.f) * float(ty_n), tz]
            want = in_frustum(Pose(np.eye(3), t), K, cfg.margin, (norm.z_min, norm.z_max))
            assert flag == str(int(want)), row
            flags.append(want)
        assert len(flags) == 40 * 100 and 0 < sum(flags) < len(flags)

    def test_repeated_timestep_pools_its_columns(self, tmp_path):
        out = str(tmp_path / "dup")
        assert main([
            "diffuse", "--scenarios", "60", "--seed", "3", "--no-clamp",
            "--timesteps", "100,100,10", "--out", out,
        ]) == 0
        summary = json.loads(read(out + ".json"))
        rows = [row.split(",") for row in data_rows(out + ".csv")[1:]]
        flags = [int(r[2]) for r in rows]
        assert summary["in_frustum_rate"] == sum(flags) / len(flags) < 1.0
        at_100 = [r for r in rows if r[1] == "100"]
        assert len(at_100) == 120
        pooled = summary["per_timestep"]["100"]
        assert pooled["in_frustum_rate"] == sum(int(r[2]) for r in at_100) / 120
        assert pooled["component_mean"][6:] == pytest.approx(
            np.mean([[float(x) for x in r[3:6]] for r in at_100], axis=0), rel=1e-12
        )

    def test_byte_identical_reruns(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        argv = ["diffuse", "--scenarios", "30", "--seed", "11"]
        main(argv + ["--out", a])
        main(argv + ["--out", b])
        assert read(a + ".csv").replace(a.encode(), b"X") == read(b + ".csv").replace(
            b.encode(), b"X"
        )


class TestEstimateCommand:
    def test_perfect_oracle_full_auc(self, tmp_path):
        out = str(tmp_path / "est")
        assert main([
            "estimate", "--scenarios", "40", "--seed", "2", "--out", out,
        ]) == 0
        summary = json.loads(read(out + ".json"))
        assert summary["auc"] == pytest.approx(100.0, abs=0.01)
        assert summary["mean_add"] < 1e-6
        assert summary["aborted"] == 0

    def test_auc_grid_is_the_grid_auc_integrates_over(self, tmp_path):
        out = str(tmp_path / "est")
        assert main(["estimate", "--scenarios", "8", "--seed", "2", "--out", out]) == 0
        assert json.loads(read(out + ".json"))["auc_grid"] == AUC_GRID
        grid = np.linspace(AUC_GRID["t_min"], AUC_GRID["t_max"], AUC_GRID["n_thresholds"])
        # A single ADD succeeds at exactly the thresholds above it; grid[1000] is on the grid.
        for x in (0.0, 1e-5, 0.0123, grid[1000], 0.1, 0.2):
            assert auc([x]) == 100 * np.mean(grid > x)

    def test_modes_produce_ablation_pair(self, tmp_path):
        oa, ob = str(tmp_path / "ddim"), str(tmp_path / "direct")
        base = ["estimate", "--scenarios", "60", "--seed", "4", "--denoiser", "noisy:0.15"]
        main(base + ["--mode", "ddim", "--out", oa])
        main(base + ["--mode", "direct", "--out", ob])
        a = json.loads(read(oa + ".json"))
        b = json.loads(read(ob + ".json"))
        assert a["auc"] >= b["auc"]

    def test_tracking_mode(self, tmp_path):
        out = str(tmp_path / "track")
        assert main([
            "estimate", "--mode", "tracking", "--scenarios", "25", "--seed", "6",
            "--out", out,
        ]) == 0
        summary = json.loads(read(out + ".json"))
        assert summary["auc"] == pytest.approx(100.0, abs=0.01)

    def test_parallel_run_is_reproducible_bytewise(self, tmp_path):
        a, b = str(tmp_path / "p1"), str(tmp_path / "p2")
        argv = ["estimate", "--scenarios", "24", "--seed", "8", "--denoiser",
                "noisy:0.1", "--workers", "4"]
        main(argv + ["--out", a])
        main(argv + ["--out", b])
        assert read(a + ".csv").replace(a.encode(), b"X") == read(b + ".csv").replace(
            b.encode(), b"X"
        )

    def test_parallel_matches_serial_data(self, tmp_path):
        a, b = str(tmp_path / "ser"), str(tmp_path / "par")
        argv = ["estimate", "--scenarios", "24", "--seed", "8", "--denoiser", "noisy:0.1"]
        main(argv + ["--workers", "1", "--out", a])
        main(argv + ["--workers", "4", "--out", b])
        rows_a = [l for l in read(a + ".csv").decode().splitlines() if not l.startswith("#")]
        rows_b = [l for l in read(b + ".csv").decode().splitlines() if not l.startswith("#")]
        assert rows_a == rows_b
        ja = json.loads(read(a + ".json"))
        jb = json.loads(read(b + ".json"))
        assert ja["auc"] == jb["auc"] and ja["mean_add"] == jb["mean_add"]
        # diffuse and trainsim split their scenarios into the same chunks.
        for argv in (["diffuse", "--scenarios", "30", "--seed", "8", "--timesteps", "all"],
                     ["trainsim", "--scenarios", "30", "--seed", "8", "--draws", "3",
                      "--denoiser", "noisy:0.1"]):
            outs = []
            for workers in ("1", "3"):
                out = str(tmp_path / f"{argv[0]}{workers}")
                main(argv + ["--workers", workers, "--out", out])
                summary = json.loads(read(out + ".json"))
                del summary["metadata"]
                rows = data_rows(out + ".csv") if argv[0] == "diffuse" else []
                outs.append((rows, summary))
            assert outs[0] == outs[1]

    def test_trajectory_export(self, tmp_path):
        out = str(tmp_path / "est")
        traj = str(tmp_path / "traj.csv")
        main([
            "estimate", "--scenarios", "3", "--seed", "1", "--out", out,
            "--trajectories", traj,
        ])
        rows = [l for l in read(traj).decode().splitlines() if not l.startswith("#")]
        header = rows[0].split(",")
        assert header[:4] == ["scenario", "step", "timestep", "cond_t"]
        assert header[4:16] == [
            "r00", "r01", "r02", "tx", "r10", "r11", "r12", "ty", "r20", "r21", "r22", "tz",
        ]
        assert len(rows) - 1 == 3 * 10

    def test_trajectory_rows_are_written_before_the_next_chunk_runs(self, tmp_path, monkeypatch):
        events = []
        estimate_chunk = cli._estimate_chunk

        def wrapped(cfg, world, scenarios):
            k = scenarios[0].index
            events.append(("compute", k))
            rows, traj_rows = estimate_chunk(cfg, world, scenarios)

            def consumed():
                events.append(("consume", k))
                yield from traj_rows

            return rows, consumed()

        monkeypatch.setattr(cli, "_estimate_chunk", wrapped)
        n = cli.MAX_CHUNK + 8  # two chunks
        out = str(tmp_path / "est")
        assert main(["estimate", "--scenarios", str(n), "--seed", "1", "--out", out,
                     "--trajectories", out + "_traj.csv"]) == 0
        firsts = [chunk[0] for chunk in cli._chunks(list(range(n)), 1)]
        assert len(firsts) == 2
        assert events == [(kind, k) for k in firsts for kind in ("compute", "consume")]

    def test_a_failed_run_leaves_what_it_wrote(self, tmp_path, monkeypatch):
        """An abort raised in the second chunk ends the run with exit 1; both CSVs keep their
        header and the first chunk's rows, and no JSON is written."""
        monkeypatch.setattr(cli, "MAX_CHUNK", 8)
        argv = ["estimate", "--scenarios", "24", "--seed", "1", "--out", "run",
                "--trajectories", "traj.csv"]
        for name in ("full", "failed"):
            (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / "full")
        assert main(argv) == 0
        calls = []
        estimate_chunk = cli._estimate_chunk

        def second_chunk_raises(cfg, world, scenarios):
            calls.append(len(scenarios))
            if len(calls) == 2:
                raise NonFiniteState("second chunk")
            return estimate_chunk(cfg, world, scenarios)

        monkeypatch.setattr(cli, "_estimate_chunk", second_chunk_raises)
        monkeypatch.chdir(tmp_path / "failed")
        assert main(argv) == 1
        assert calls == [8, 8]
        assert sorted(p.name for p in (tmp_path / "failed").iterdir()) == ["run.csv", "traj.csv"]
        # Four `#` lines and the header, then 8 rows, or 8 scenarios of 10 steps each.
        for name, rows in (("run.csv", 8), ("traj.csv", 8 * 10)):
            want = read(tmp_path / "full" / name).splitlines(keepends=True)[:5 + rows]
            assert read(tmp_path / "failed" / name).splitlines(keepends=True) == want

    def test_timing_flag_adds_nondeterministic_field(self, tmp_path):
        out = str(tmp_path / "timed")
        main(["estimate", "--scenarios", "5", "--seed", "1", "--timing", "--out", out])
        summary = json.loads(read(out + ".json"))
        assert "runtime_seconds" in summary

    def test_tracking_is_at_least_5x_faster_per_scenario(self):
        # time the per-scenario estimation work only (1 denoiser call vs 10); the two loops
        # alternate, so that a slow spell of a shared machine reaches both minima alike, and
        # the collector is off while they run, as in `timeit`
        import gc
        import time

        from posediff import (
            ChainSpec,
            NoiseScales,
            NormConfig,
            PerfectOracle,
            ReverseConfig,
            forward_kinematics,
            generate_scenarios,
            make_linear_schedule,
            make_observation,
            run_reverse,
            scenario_rng,
        )

        cfg = NormConfig()
        sched = make_linear_schedule()
        scales = NoiseScales.for_config(cfg)
        chain = ChainSpec()
        scen = generate_scenarios(14, 300, cfg=cfg)
        observations = [make_observation(sc, chain, 14) for sc in scen]
        keypoints = [forward_kinematics(chain, sc.joints) for sc in scen]
        oracle = PerfectOracle()
        full = ReverseConfig()
        tracking = ReverseConfig(ddim_steps=1, refine_steps=0)

        def run(rcfg, prev):
            start = time.perf_counter()
            for sc, obs, kp in zip(scen, observations, keypoints):
                run_reverse(
                    obs, chain, sched, scales, cfg, rcfg, oracle,
                    scenario_rng(14, sc.index, 1),
                    prev_pose=sc.gt_pose if prev else None,
                    keypoints=kp,
                )
            return time.perf_counter() - start

        run(tracking, True)  # warm-up
        fulls, tracks = [], []
        gc.disable()
        try:
            for _ in range(7):
                fulls.append(run(full, False))
                tracks.append(run(tracking, True))
        finally:
            gc.enable()
        t_full, t_track = min(fulls), min(tracks)
        ratio = t_full / t_track
        assert ratio >= 5.0, (
            f"t_full / t_track = {ratio:.2f} ({t_full:.4f} s / {t_track:.4f} s), below 5.0"
        )

    def test_aborted_scenarios_are_recorded_and_fail_the_run(self, tmp_path, monkeypatch):
        # force one scenario to abort; the harness must count it, record the
        # reason, score it as a failure, and exit nonzero
        import posediff.cli as cli_mod

        real = cli_mod.run_reverse

        def flaky(obs, chain, sched, scales, norm, rcfg, oracle, rng, **kw):
            final, traj = real(obs, chain, sched, scales, norm, rcfg, oracle, rng, **kw)
            picked = np.abs(obs.gt_pose.t[:, 0] * 1e6) % 10 < 2  # a few scenarios
            traj.reasons[picked] = "DegenerateRotation6D"
            return final, traj

        monkeypatch.setattr(cli_mod, "run_reverse", flaky)
        out = str(tmp_path / "abort")
        code = main(["estimate", "--scenarios", "30", "--seed", "13", "--out", out])
        summary = json.loads(read(out + ".json"))
        assert summary["aborted"] > 0
        assert code == 1
        assert summary["abort_reasons"] == ["DegenerateRotation6D"]
        assert summary["auc"] < 100.0
        rows = [
            l for l in read(out + ".csv").decode().splitlines() if not l.startswith("#")
        ][1:]
        flagged = [r for r in rows if r.split(",")[4] == "1"]
        assert len(flagged) == summary["aborted"]
        assert all(r.split(",")[1] == "inf" for r in flagged)


class TestTrainsimCommand:
    def test_perfect_oracle_losses_vanish(self, tmp_path):
        out = str(tmp_path / "ts")
        assert main([
            "trainsim", "--scenarios", "30", "--draws", "2", "--seed", "5", "--out", out,
        ]) == 0
        summary = json.loads(read(out + ".json"))
        assert summary["max_total"] < 1e-9

    def test_noisy_losses_trend_upward_with_t(self, tmp_path):
        out = str(tmp_path / "tsn")
        main([
            "trainsim", "--scenarios", "150", "--draws", "4", "--seed", "5",
            "--denoiser", "noisy:0.15", "--out", out,
        ])
        summary = json.loads(read(out + ".json"))
        assert summary["spearman_t_vs_total"] > 0.9

    def test_deterministic_summary(self, tmp_path):
        a, b = str(tmp_path / "x"), str(tmp_path / "y")
        argv = ["trainsim", "--scenarios", "20", "--seed", "9", "--denoiser", "noisy:0.1"]
        main(argv + ["--out", a])
        main(argv + ["--out", b])
        ja, jb = json.loads(read(a + ".json")), json.loads(read(b + ".json"))
        ja["metadata"]["config"].pop("out")
        jb["metadata"]["config"].pop("out")
        assert ja == jb

    def test_percentile_is_numpy_percentile_bit_for_bit(self):
        draw = np.random.default_rng(23)
        for n in range(1, 65):
            for values in (draw.exponential(1e-3, n), draw.integers(0, 3, n) * 0.1,
                           draw.standard_normal(n) * 10.0 ** draw.integers(-300, 300)):
                for q in (50, 90):
                    got = cli._percentile(np.sort(values), q)
                    assert got.hex() == float(np.percentile(values, q)).hex(), (n, q, values)

    def test_trainsim_does_not_import_numpy_ma(self, tmp_path):
        code = (
            "import sys\n"
            "from posediff.cli import main\n"
            "main(sys.argv[1:])\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, "trainsim", "--scenarios", "20", "--denoiser",
             "noisy:0.1", "--out", str(tmp_path / "run")],
            capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        ).stdout
        assert out.splitlines()[-1] == "False"


class TestConfigHandling:
    def test_config_file_plus_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenarios": 7, "seed": 42, "denoiser": "perfect"}))
        out = str(tmp_path / "run")
        assert main([
            "estimate", "--config", str(cfg_path), "--scenarios", "5", "--out", out,
        ]) == 0
        summary = json.loads(read(out + ".json"))
        assert summary["metadata"]["config"]["scenarios"] == 5
        assert summary["metadata"]["config"]["seed"] == 42

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"turbo": True}))
        assert main(["estimate", "--config", str(cfg_path)]) == 2

    def test_removed_obs_noise_knob_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--obs-noise", "1", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        cfg_path = tmp_path / "old.json"
        cfg_path.write_text(json.dumps({"obs_noise": 0}))
        capsys.readouterr()
        assert main(["estimate", "--config", str(cfg_path), "--out", str(tmp_path / "y")]) == 2
        assert capsys.readouterr().err == "error: config file: unknown fields ['obs_noise']\n"

    def test_invalid_flag_value_exits_2(self, tmp_path):
        assert main(["estimate", "--gamma", "-3", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("command", ["schedule", "diffuse", "estimate", "trainsim"])
    def test_timesteps_range_binds_only_diffuse(self, command, tmp_path, capsys):
        out = str(tmp_path / "run")
        scenarios = [] if command == "schedule" else ["--scenarios", "3"]  # schedule draws none
        code = main([command, "--steps", "50", *scenarios, "--out", out])
        if command == "diffuse":
            # The default --timesteps reaches 100, past the 50 steps.
            assert code == 2
            assert capsys.readouterr().err == "error: timesteps: values must lie in [1, 50]\n"
            assert not list(tmp_path.glob("run*"))
        else:
            assert code == 0

    def test_chain_file_flag(self, tmp_path):
        chain_path = str(tmp_path / "chain.json")
        with open(chain_path, "w", encoding="utf-8") as fh:
            json.dump({"n_joints": 4, "link_lengths": [0.4, 0.3, 0.2, 0.1]}, fh)
        out = str(tmp_path / "run")
        assert main([
            "estimate", "--chain", chain_path, "--scenarios", "5", "--seed", "3",
            "--out", out,
        ]) == 0
        assert json.loads(read(out + ".json"))["auc"] == pytest.approx(100.0, abs=0.01)


# Invocations that must exit 2 with one `error: ...` line and write nothing.
BAD_INVOCATIONS = {
    # Flags that the subcommand does not read.
    "schedule-unread-flags": ["schedule", "--draws", "5", "--trajectories", "t.csv",
                              "--workers", "3", "--timing"],
    "estimate-per-link": ["estimate", "--per-link", "2"],
    "diffuse-timing": ["diffuse", "--timing"],
    # Flags that the run's mode or denoiser does not read.
    "tracking-ddim-steps": ["estimate", "--mode", "tracking", "--ddim-steps", "3"],
    "tracking-refine-steps": ["estimate", "--mode", "tracking", "--refine-steps", "7"],
    "tracking-eta": ["estimate", "--mode", "tracking", "--eta", "0.2"],
    "tracking-sigma-form": ["estimate", "--mode", "tracking", "--sigma-form", "standard"],
    "tracking-init": ["estimate", "--mode", "tracking", "--init", "prior-sample"],
    "tracking-init-canonical": ["estimate", "--mode", "tracking", "--init", "canonical"],
    "direct-eta": ["estimate", "--mode", "direct", "--eta", "0.3"],
    "direct-sigma-form": ["estimate", "--mode", "direct", "--sigma-form", "standard"],
    "competence-perfect": ["estimate", "--competence", "1"],
    "competence-biased": ["trainsim", "--competence", "1", "--denoiser", "biased:0.1"],
    "competence-noisy-0": ["estimate", "--competence", "0.001", "--denoiser", "noisy:0"],
    "trainsim-competence-noisy-0": ["trainsim", "--competence", "0.001", "--denoiser", "noisy:0"],
    "ddim-eta-0-sigma-form": ["estimate", "--eta", "0", "--sigma-form", "standard"],
    "schedule-eta-0-sigma-form": ["schedule", "--eta", "0", "--sigma-form", "paper"],
    # Command lines that argparse rejects.
    "bad-mode": ["estimate", "--mode", "bogus"],
    "previous-estimate-init": ["estimate", "--mode", "tracking", "--init", "previous-estimate"],
    "fractional-scenarios": ["estimate", "--scenarios", "2.5"],
    "unknown-flag": ["estimate", "--bogus"],
    "no-subcommand": [],
    # Output paths that cannot be written.
    "schedule-out-missing-dir": ["schedule", "--out", "missing/x"],
    "diffuse-out-missing-dir": ["diffuse", "--out", "missing/x"],
    "estimate-out-missing-dir": ["estimate", "--out", "missing/x"],
    "trainsim-out-missing-dir": ["trainsim", "--out", "missing/x"],
    "estimate-out-under-a-file": ["estimate", "--out", "a_file/x"],
    "estimate-out-csv-is-a-directory": ["estimate", "--out", "d"],
    "trainsim-out-json-is-a-directory": ["trainsim", "--out", "e"],
    "trajectories-missing-dir": ["estimate", "--trajectories", "missing/t.csv"],
    "trajectories-is-a-directory": ["estimate", "--trajectories", "d.csv", "--out", "o"],
    "trajectories-is-out-csv": ["estimate", "--trajectories", "same.csv", "--out", "same"],
    "trajectories-is-out-json": ["estimate", "--trajectories", "./same.json", "--out", "same"],
    # Empty --timesteps lists, which hold no value out of range.
    "diffuse-empty-timesteps": ["diffuse", "--timesteps", ""],
    "diffuse-commas-timesteps": ["diffuse", "--timesteps", ",,"],
    "diffuse-blank-timesteps": ["diffuse", "--timesteps", " "],
    # Values that fail a check outside RunConfig.
    "estimate-cz-past-z-max": ["estimate", "--cz", "5"],
    "estimate-perfect-with-parameter": ["estimate", "--denoiser", "perfect:3"],
    # An eta whose square overflows a float.
    "estimate-eta-square-overflows": ["estimate", "--scenarios", "2", "--eta", "1e200"],
    "schedule-eta-square-overflows": ["schedule", "--eta", "1e200"],
    # Schedules whose alpha_bar stops decreasing: a beta that rounds away in 1 - beta, or a
    # product that underflows to 0.
    "schedule-beta-rounds-away": ["schedule", "--beta-start", "1e-320", "--beta-end", "1e-320",
                                  "--sigma-form", "standard", "--eta", "0.5"],
    "estimate-beta-rounds-away": ["estimate", "--scenarios", "3", "--beta-start", "1e-320",
                                  "--beta-end", "1e-320"],
    "trainsim-beta-rounds-away": ["trainsim", "--scenarios", "3", "--beta-start", "1e-320",
                                  "--beta-end", "1e-320", "--denoiser", "noisy:0.1"],
    "schedule-alpha-bar-underflows": ["schedule", "--steps", "200000"],
    # Step counts that numpy cannot make an array of.
    "schedule-steps-past-int64": ["schedule", "--steps", "100000000000000000000"],
    "schedule-steps-int64-max": ["schedule", "--steps", "9223372036854775807"],
    "schedule-steps-array-too-big": ["schedule", "--steps", "1152921504606846976"],
    "estimate-config-steps-past-int64": ["estimate", "--scenarios", "2", "--config", "steps.json"],
    # "all" timesteps of a step count that numpy cannot make an array of.
    "diffuse-all-steps-past-int64": ["diffuse", "--steps", "100000000000000000000",
                                     "--timesteps", "all"],
    # Loss point counts that numpy cannot make an array of, or miscounts.
    "trainsim-per-link-past-int64": ["trainsim", "--scenarios", "2", "--per-link",
                                     "100000000000000000000"],
    "trainsim-per-link-int64-max": ["trainsim", "--scenarios", "2", "--per-link",
                                    "9223372036854775807"],
    # More threads than the fixed bound, which a run of few scenarios would not start.
    "estimate-workers-past-bound": ["estimate", "--scenarios", "16", "--workers", "100000"],
}
# The exact error line of some of them.
BAD_INVOCATION_ERRORS = {
    "diffuse-empty-timesteps": "error: timesteps: the list is empty",
    "diffuse-commas-timesteps": "error: timesteps: the list is empty",
    "diffuse-blank-timesteps": "error: timesteps: the list is empty",
    "estimate-cz-past-z-max": "error: cz: need 0 < z_min < c_z < z_max, got (0.3, 5.0, 3.0)",
    "estimate-perfect-with-parameter":
        "error: denoiser: perfect takes no parameter, got 'perfect:3'",
    "tracking-init": "error: init: not read by --mode tracking",
    "tracking-init-canonical": "error: init: not read by --mode tracking",
    "competence-noisy-0": "error: competence: not read by --denoiser noisy:0",
    "trainsim-competence-noisy-0": "error: competence: not read by --denoiser noisy:0",
    "ddim-eta-0-sigma-form": "error: sigma_form: not read with --eta 0",
    "schedule-eta-0-sigma-form": "error: sigma_form: not read with --eta 0",
    "estimate-eta-square-overflows": "error: eta: its square must be finite",
    "schedule-eta-square-overflows": "error: eta: its square must be finite",
    "schedule-beta-rounds-away": "error: steps/beta_start/beta_end: need alpha_bar to decrease "
                                 "strictly to above 0, got 100 steps over betas (1e-320, 1e-320)",
    "estimate-beta-rounds-away": "error: steps/beta_start/beta_end: need alpha_bar to decrease "
                                 "strictly to above 0, got 100 steps over betas (1e-320, 1e-320)",
    "trainsim-beta-rounds-away": "error: steps/beta_start/beta_end: need alpha_bar to decrease "
                                 "strictly to above 0, got 100 steps over betas (1e-320, 1e-320)",
    "schedule-alpha-bar-underflows": "error: steps/beta_start/beta_end: need alpha_bar to "
                                     "decrease strictly to above 0, got 200000 steps over betas "
                                     "(0.0001, 0.02)",
    "schedule-steps-past-int64": "error: steps: no schedule of this length can be built: "
                                 "Maximum allowed size exceeded",
    "schedule-steps-int64-max": "error: steps: no schedule of this length can be built: "
                                "index -1 is out of bounds for axis 0 with size 0",
    "schedule-steps-array-too-big": "error: steps: no schedule of this length can be built: "
                                    "array is too big; `arr.size * arr.dtype.itemsize` is larger "
                                    "than the maximum possible size.",
    "estimate-config-steps-past-int64": "error: steps: no schedule of this length can be built: "
                                        "Maximum allowed size exceeded",
    "diffuse-all-steps-past-int64": "error: steps: no schedule of this length can be built: "
                                    "Maximum allowed size exceeded",
    "trainsim-per-link-past-int64": "error: per_link: no loss point set of this size can be "
                                    "built: Maximum allowed size exceeded",
    "trainsim-per-link-int64-max": "error: per_link: no loss point set of this size can be "
                                   "built: per_link 9223372036854775807 is past numpy's index "
                                   "range",
    "estimate-workers-past-bound": "error: workers: must be <= 64",
}


@pytest.mark.parametrize("name", BAD_INVOCATIONS)
def test_bad_invocation_exits_2_with_one_line_and_no_file(name, tmp_path, monkeypatch, capsys):
    argv = BAD_INVOCATIONS[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a_file").write_text("")
    (tmp_path / "d.csv").mkdir()
    (tmp_path / "e.json").mkdir()
    (tmp_path / "steps.json").write_text('{"steps": 1' + "0" * 400 + "}")
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's errors
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if name in BAD_INVOCATION_ERRORS:
        assert err == BAD_INVOCATION_ERRORS[name] + "\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_file", "d.csv", "e.json",
                                                          "steps.json"]
    assert not any((tmp_path / "d.csv").iterdir()) and not any((tmp_path / "e.json").iterdir())


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps allocations on Linux")
def test_steps_past_memory_exits_2_with_one_line_and_no_file(tmp_path):
    """A schedule too long to allocate is a configuration error. The child's address space
    is capped at 1.5 GiB, which the first 1.49 GiB array of 200M steps cannot fit beside."""
    code = (
        "import resource, sys\n"
        "soft, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        "cap = 1536 * 2**20 if hard == resource.RLIM_INFINITY else min(hard, 1536 * 2**20)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
        "from posediff.cli import main\n"
        "raise SystemExit(main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, "schedule", "--steps", "200000000", "--out", "run"],
        capture_output=True, text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (
        "error: steps: no schedule of this length can be built: Unable to allocate 1.49 GiB "
        "for an array with shape (200000000,) and data type float64\n"
    )
    assert proc.stdout == "" and not list(tmp_path.iterdir())


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps allocations on Linux")
def test_huge_chain_joint_count_exits_2_with_one_line_and_no_file(tmp_path):
    """A chain file whose n_joints disagrees with its link lengths is rejected before anything
    n_joints long is built: under a 1.5 GiB address space, a billion default joint axes
    would end in a MemoryError."""
    code = (
        "import resource, sys\n"
        "soft, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        "cap = 1536 * 2**20 if hard == resource.RLIM_INFINITY else min(hard, 1536 * 2**20)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
        "from posediff.cli import main\n"
        "raise SystemExit(main(sys.argv[1:]))\n"
    )
    (tmp_path / "chain.json").write_text('{"n_joints": 1000000000}')
    proc = subprocess.run(
        [sys.executable, "-c", code, "diffuse", "--scenarios", "2", "--chain", "chain.json",
         "--out", "run"],
        capture_output=True, text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: chain: expected 1000000000 link lengths, got 7\n"
    assert proc.stdout == "" and [p.name for p in tmp_path.iterdir()] == ["chain.json"]


# One run of each subcommand; the biased oracle aborts some of estimate's rows.
SHARED_PATH_RUNS = {
    "schedule": ["schedule", "--steps", "20", "--eta", "0.5"],
    "diffuse": ["diffuse", "--scenarios", "5", "--timesteps", "1,50"],
    "estimate": ["estimate", "--scenarios", "40", "--denoiser", "biased:3e156",
                 "--trajectories", "traj.csv"],
    "trainsim": ["trainsim", "--scenarios", "5", "--draws", "2"],
}


@pytest.mark.parametrize("command", SHARED_PATH_RUNS)
def test_main_writes_each_summary_line_and_exit_code(command, tmp_path, monkeypatch, capsys):
    """`main` builds the run's metadata once; every CSV's `#` lines and the JSON's metadata
    give that config, stdout is the one summary line, and the run exits 1 exactly when its
    summary counts aborted rows."""
    monkeypatch.chdir(tmp_path)
    argv = [*SHARED_PATH_RUNS[command], "--out", "run"]
    metadata = cli._metadata
    metas = []

    def counted(cfg, cmd):
        metas.append(metadata(cfg, cmd))
        return metas[-1]

    monkeypatch.setattr(cli, "_metadata", counted)
    code = main(argv)
    assert len(metas) == 1
    meta = metas[0]
    assert meta == metadata(cli.load_config(cli.build_parser().parse_args(argv)), command)
    heads = [f"# command={command}", f"# seed={meta['seed']}", f"# version={meta['version']}",
             f"# config={json.dumps(meta['config'], sort_keys=True)}"]
    csvs = sorted(tmp_path.glob("*.csv"))
    assert len(csvs) == {"schedule": 1, "diffuse": 1, "estimate": 2, "trainsim": 0}[command]
    for path in csvs:
        assert [l for l in read(path).decode().splitlines() if l.startswith("#")] == heads
    summary = {}
    if command == "schedule":
        assert not (tmp_path / "run.json").exists()
    else:
        summary = json.loads(read(tmp_path / "run.json"))
        assert summary.pop("metadata") == meta
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith(command) and captured.out.count("\n") == 1
    assert captured.out.rstrip().endswith("run.csv" if command == "schedule" else
                                          "run.json" if command == "trainsim" else "run.csv/.json")
    aborted = summary.get("aborted", 0)
    if command == "estimate":
        assert 0 < aborted < 40 and f" aborted={aborted} " in captured.out
    assert code == (1 if aborted > 0 else 0)


# Runs that leave a field at a value they would reject, and do not read that field.
UNREAD_VALUES = {
    # The default ddim_steps, 5, exceeds the 3 steps; only ddim and direct read it.
    "schedule-3-steps": ["schedule", "--steps", "3"],
    "diffuse-3-steps": ["diffuse", "--steps", "3", "--timesteps", "1,3"],
    "trainsim-3-steps": ["trainsim", "--steps", "3"],
    "tracking-3-steps": ["estimate", "--mode", "tracking", "--steps", "3"],
}


@pytest.mark.parametrize("argv", UNREAD_VALUES.values(), ids=UNREAD_VALUES.keys())
def test_a_field_the_run_does_not_read_is_not_checked(argv, tmp_path):
    scenarios = [] if argv[0] == "schedule" else ["--scenarios", "2"]  # schedule draws none
    assert main([*argv, *scenarios, "--out", str(tmp_path / "run")]) == 0
    with pytest.raises(InvalidConfig, match="ddim_steps"):
        RunConfig(steps=3, timesteps="1").validate()  # without a command, every field


@pytest.mark.parametrize("command, values", [
    ("schedule", {"chain": "nope.json"}),
    ("schedule", {"z_min": 5}),
    ("diffuse", {"denoiser": "nope"}),
], ids=["schedule-chain", "schedule-z-min", "diffuse-denoiser"])
def test_a_config_file_field_the_run_does_not_read_is_not_built(command, values, tmp_path):
    """Only what the subcommand reads is built from a shared config file: `schedule` builds
    no scenario world and `diffuse` no oracle."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(values))
    scenarios = [] if command == "schedule" else ["--scenarios", "2"]  # schedule draws none
    outs = [str(tmp_path / "plain"), str(tmp_path / "file")]
    assert main([command, *scenarios, "--out", outs[0]]) == 0
    assert main([command, *scenarios, "--config", str(path), "--out", outs[1]]) == 0
    assert data_rows(outs[0] + ".csv") == data_rows(outs[1] + ".csv")


def test_modes_other_than_ddim_do_not_read_eta(tmp_path):
    """A config file's eta reaches only ddim, so tracking with one whose square overflows, which
    ddim rejects, still runs."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"eta": 1e300, "sigma_form": "standard"}))
    outs = [str(tmp_path / "plain"), str(tmp_path / "file")]
    for mode in ("tracking", "direct"):
        base = ["estimate", "--mode", mode, "--scenarios", "4", "--denoiser", "noisy:0.1"]
        assert main([*base, "--out", outs[0]]) == 0
        assert main([*base, "--config", str(path), "--out", outs[1]]) == 0
        assert data_rows(outs[0] + ".csv") == data_rows(outs[1] + ".csv")


@pytest.mark.parametrize("argv, values", [
    (["estimate", "--eta", "0"], {"sigma_form": "bogus"}),
    (["schedule", "--eta", "0"], {"sigma_form": "bogus"}),
    (["estimate", "--denoiser", "noisy:0"], {"competence": -1.0}),
    (["trainsim", "--denoiser", "noisy:0"], {"competence": -1.0}),
    (["estimate"], {"competence": -1.0}),
], ids=["ddim-eta-0", "schedule-eta-0", "estimate-noisy-0", "trainsim-noisy-0", "perfect"])
def test_a_config_file_field_unread_at_eta_0_or_noisy_0_is_not_checked(argv, values, tmp_path):
    """At eta = 0 no sigma form is read, and noisy:0 (like perfect) reads no competence, so a
    config file may set either to a finite value that a run reading it rejects; the data stay
    the same."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(values))
    scenarios = [] if argv[0] == "schedule" else ["--scenarios", "4"]  # schedule draws none
    outs = [str(tmp_path / "plain"), str(tmp_path / "file")]
    assert main([*argv, *scenarios, "--out", outs[0]]) == 0
    assert main([*argv, *scenarios, "--config", str(path), "--out", outs[1]]) == 0
    if argv[0] == "trainsim":  # JSON only; its metadata holds the config
        plain, file = (json.loads(read(out + ".json")) for out in outs)
        del plain["metadata"], file["metadata"]
        assert plain == file
    else:
        assert data_rows(outs[0] + ".csv") == data_rows(outs[1] + ".csv")


def documented_flags() -> dict[str, set[str]]:
    """The flag table of FORMATS.md's Flags section: an `x` marks a subcommand's flag."""
    text = (Path(__file__).resolve().parents[1] / "FORMATS.md").read_text(encoding="utf-8")
    section = text.split("\n## Flags\n", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in section.splitlines() if line.startswith("|")]
    header, table = rows[0], {}
    for flag, *marks in rows[2:]:
        for command, mark in zip(header[1:], marks):
            if command in cli.COMMANDS and mark == "x":
                table.setdefault(command, set()).update(flag.strip("`").split("/"))
    return table


def test_every_field_is_read_and_the_flag_table_matches_the_parser():
    assert set(cli.ALL) == set(cli.COMMANDS) and set(cli.SCENE) < set(cli.ALL)
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    read = {a.dest for p in subs.values() for a in p._actions}
    assert {f.name for f in dataclasses.fields(RunConfig)} <= read
    registered = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
                  for name, p in subs.items()}
    assert documented_flags() == registered


class TestCsvWriter:
    """`cli._csv_file` and `cli._write_csv` format rows themselves; their bytes must be
    csv.writer's."""

    HEADER = ["a", "b", "c", "d", "e", "f", "g"]
    ROWS = [
        (float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e16, 0.1),
        (np.float64(0.1), np.float64("nan"), np.float64("-inf"), np.float64(-0.0),
         np.float64(5e-324), np.float64(1e16), 1 / 3),
        (True, False, 257, 10**20, -300, np.int64(65537), np.bool_(True)),
        # An empty last field, as in an estimate row that did not abort.
        (0, 1.5e-7, 10, "ddim", 0, 2.220446049250313e-16, ""),
    ]

    def test_bytes_match_csv_writer(self, tmp_path):
        path = tmp_path / "rows.csv"
        meta = cli._metadata(RunConfig(), "estimate")
        with cli._csv_file(str(path), meta, self.HEADER) as write:
            write(iter(self.ROWS))
        with open(tmp_path / "ref.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.HEADER)
            writer.writerows(self.ROWS)
        lines = read(path).splitlines(keepends=True)
        assert all(l.endswith(b"\n") and not l.endswith(b"\r\n") for l in lines[:4])
        assert all(l.startswith(b"#") for l in lines[:4])
        assert b"".join(lines[4:]) == read(tmp_path / "ref.csv")

    def test_every_csv_string_is_quote_free(self, tmp_path, monkeypatch):
        """No header or string field holds a character csv would quote, so
        writing fields unquoted gives csv's bytes."""
        strings = [*MODES, *(exc.__name__ for exc in (*ABORTS, NonFiniteState))]
        csv_file, write = cli._csv_file, cli._write_csv

        def header_spy(path, meta, header):
            strings.extend(header)
            return csv_file(path, meta, header)

        def spy(fh, fmt, rows):
            rows = list(rows)
            strings.extend(v for row in rows for v in row if isinstance(v, str))
            write(fh, fmt, rows)

        monkeypatch.setattr(cli, "_csv_file", header_spy)
        monkeypatch.setattr(cli, "_write_csv", spy)
        out = str(tmp_path / "run")
        assert main(["schedule", "--steps", "5", "--out", out]) == 0
        assert main(["diffuse", "--scenarios", "2", "--out", out]) == 0
        for mode in MODES:
            main(["estimate", "--scenarios", "4", "--mode", mode, "--denoiser", "biased:3e156",
                  "--seed", "2", "--trajectories", out + "_traj.csv", "--out", out])
        assert {"t", "in_frustum", "reason", "r22", "NonFiniteState"} <= set(strings)
        assert all(not set(s) & set(',"\r\n') for s in strings)

    def test_the_writer_computes_no_chunk(self, tmp_path, monkeypatch):
        """Each chunk runs before the writer is called, and each CSV gets one `_write_csv`
        call per chunk."""
        writing, writes = [], []
        write = cli._write_csv

        def flagged(*args):
            writing.append(True)
            writes.append(args[0])
            try:
                write(*args)
            finally:
                writing.pop()

        def outside_the_writer(chunk):
            def run(cfg, world, scenarios):
                assert not writing
                return chunk(cfg, world, scenarios)
            return run

        monkeypatch.setattr(cli, "_write_csv", flagged)
        for name in ("_diffuse_chunk", "_estimate_chunk"):
            monkeypatch.setattr(cli, name, outside_the_writer(getattr(cli, name)))
        n = cli.MAX_CHUNK + 8  # two chunks
        out = str(tmp_path / "run")
        assert main(["diffuse", "--scenarios", str(n), "--out", out]) == 0
        assert len(writes) == 2 and len(set(writes)) == 1
        writes.clear()
        assert main(["estimate", "--scenarios", str(n), "--out", out,
                     "--trajectories", out + "_traj.csv"]) == 0
        assert len(writes) == 4 and len(set(writes)) == 2


STRICT_JSON_RUNS = {
    "estimate": ["estimate", "--scenarios", "5", "--denoiser", "biased:1e300"],
    "trainsim": ["trainsim", "--scenarios", "20", "--denoiser", "biased:1e300"],
}


def test_finite_summary_is_written_without_a_strict_copy(tmp_path, monkeypatch):
    def refuse(value):
        raise AssertionError("a finite summary was copied")

    monkeypatch.setattr(cli, "_strict", refuse)
    payload = {"b": [1.5, {"c": -0.0, "d": 5e-324}], "a": (1, 2), "s": "x"}
    cli._write_json(str(tmp_path / "s.json"), payload)
    want = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert read(tmp_path / "s.json").decode() == want


def test_metadata_names_numpy_and_csv_lines_do_not(tmp_path):
    out = str(tmp_path / "run")
    assert main(["diffuse", "--scenarios", "2", "--out", out]) == 0
    assert json.loads(read(out + ".json"))["metadata"]["numpy"] == np.__version__
    comments = [l for l in read(out + ".csv").decode().splitlines() if l.startswith("#")]
    assert [l.split("=")[0] for l in comments] == ["# command", "# seed", "# version", "# config"]


def test_estimate_stdout_has_wall_clock_only_with_timing(tmp_path, capsys):
    out = str(tmp_path / "run")
    argv = ["estimate", "--scenarios", "3", "--out", out]
    lines = []
    for _ in range(2):
        assert main(argv) == 0
        lines.append(capsys.readouterr().out)
    assert lines[0] == lines[1]
    assert lines[0].endswith(f" aborted=0 -> {out}.csv/.json\n")
    assert main([*argv, "--timing"]) == 0
    assert re.search(r" aborted=0 \(\d+\.\d\ds\) -> ", capsys.readouterr().out)


@pytest.mark.parametrize("command", STRICT_JSON_RUNS)
def test_non_finite_summary_values_are_written_as_null(command, tmp_path):
    """The JSON holds no `Infinity` or `NaN` token; the stdout line keeps `inf`. A child
    process runs the command, since its loss arithmetic overflows with numpy warnings."""
    def reject(token):
        raise ValueError(f"{token} is not strict JSON")

    proc = subprocess.run(
        [sys.executable, "-m", "posediff.cli", *STRICT_JSON_RUNS[command], "--out", "run"],
        cwd=tmp_path, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    summary = json.loads(read(tmp_path / "run.json"), parse_constant=reject)
    if command == "estimate":
        assert proc.returncode == 1 and summary["aborted"] == 5
        assert summary["mean_add"] is None and summary["median_add"] is None
        assert " mean_add=inf " in proc.stdout
    else:
        assert proc.returncode == 0
        assert summary["max_total"] is None and summary["bins"][0]["p50_total"] is None
        assert "mean_total=inf " in proc.stdout


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("denoiser", ["biased:1e300", "noisy:1e300"])
def test_trainsim_overflow_is_recorded_without_a_warning(denoiser, workers, tmp_path):
    """An overflowing loss is inf (null in the JSON) and stderr stays empty, on the main thread
    and on pool threads. A child process runs the command, since the suite turns numpy's
    RuntimeWarning into an error."""
    def reject(token):
        raise ValueError(f"{token} is not strict JSON")

    argv = ["trainsim", "--scenarios", "20", "--denoiser", denoiser, "--workers", workers]
    proc = subprocess.run(
        [sys.executable, "-m", "posediff.cli", *argv, "--out", "run"],
        cwd=tmp_path, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(read(tmp_path / "run.json"), parse_constant=reject)["max_total"] is None


RELOAD_RUNS = {
    "estimate": ["estimate", "--scenarios", "6", "--mode", "tracking", "--denoiser", "noisy:0.2"],
    "diffuse": ["diffuse", "--scenarios", "6", "--no-clamp", "--timesteps", "1,100"],
    "trainsim": ["trainsim", "--scenarios", "6", "--draws", "2"],
    "schedule": ["schedule", "--eta", "0.5", "--sigma-form", "standard"],
}


@pytest.mark.parametrize("command", RELOAD_RUNS)
def test_recorded_config_reproduces_the_run(command, tmp_path):
    """A run given its own recorded config (the JSON's metadata; the CSV's `# config=` line
    for schedule, which writes no JSON) writes the same data."""
    outs = [str(tmp_path / "first"), str(tmp_path / "second")]
    assert main([*RELOAD_RUNS[command], "--out", outs[0]]) == 0
    if command == "schedule":
        line = next(l for l in read(outs[0] + ".csv").decode().splitlines()
                    if l.startswith("# config="))
        config = json.loads(line.removeprefix("# config="))
    else:
        config = json.loads(read(outs[0] + ".json"))["metadata"]["config"]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path), "--out", outs[1]]) == 0
    if command != "trainsim":
        assert data_rows(outs[0] + ".csv") == data_rows(outs[1] + ".csv")
    if command != "schedule":
        first, second = (json.loads(read(out + ".json")) for out in outs)
        assert first.pop("metadata")["config"] == {**second.pop("metadata")["config"],
                                                   "out": outs[0]}
        assert first == second


def test_the_diffuse_chunk_recovers_no_pose(monkeypatch):
    """The chunk's flags, vectors and rows come from its noised vectors alone: with
    Gram-Schmidt raising, an unclamped chunk returns what it returns without."""
    cfg = RunConfig(clamp=False, timesteps="all", seed=5, scenarios=40).validate("diffuse")
    world = cli._build_world(cfg, "diffuse")
    scen = generate_scenarios(cfg.seed, cfg.scenarios, world[3], world[4], world[1]).scenarios
    flags, n, rows = cli._diffuse_chunk(cfg, world, scen)
    rows = list(rows)
    assert 0 < flags.sum() < flags.size and any(np.isnan(r[6]) for r in rows)

    def orthogonalize(*args, **kwargs):
        raise AssertionError("the diffuse chunk orthogonalized a rotation")

    monkeypatch.setattr(mononorm, "gram_schmidt_6d", orthogonalize)
    got_flags, got_n, got_rows = cli._diffuse_chunk(cfg, world, scen)
    np.testing.assert_array_equal(got_flags, flags)
    np.testing.assert_array_equal(got_n, n)
    assert repr(list(got_rows)) == repr(rows)  # NaN pixels compare by their spelling
