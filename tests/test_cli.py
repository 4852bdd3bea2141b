"""CLI harness tests: subcommands, determinism, config validation."""

import json
import os

import numpy as np
import pytest

from posediff import ChainSpec, NormConfig, Pose, ScenarioRanges, generate_scenarios, in_frustum
from posediff.cli import RunConfig, main
from posediff.errors import InvalidConfig


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

    def test_timesteps_parsing(self):
        assert RunConfig(timesteps="all", steps=10).parse_timesteps() == list(range(1, 11))
        assert RunConfig(timesteps="1, 50,100").parse_timesteps() == [1, 50, 100]


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
        scen = generate_scenarios(5, 40, ScenarioRanges(margin=cfg.margin), ChainSpec(), norm)
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

    def test_timing_flag_adds_nondeterministic_field(self, tmp_path):
        out = str(tmp_path / "timed")
        main(["estimate", "--scenarios", "5", "--seed", "1", "--timing", "--out", out])
        summary = json.loads(read(out + ".json"))
        assert "runtime_seconds" in summary

    def test_tracking_is_at_least_5x_faster_per_scenario(self):
        # time the per-scenario estimation work only (1 denoiser call vs 10)
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
        tracking = ReverseConfig(ddim_steps=1, refine_steps=0, init_mode="previous-estimate")

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
        t_full = min(run(full, False) for _ in range(3))
        t_track = min(run(tracking, True) for _ in range(3))
        assert t_full / t_track >= 5.0

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

    def test_chain_file_flag(self, tmp_path):
        from posediff import ChainSpec

        chain_path = str(tmp_path / "chain.json")
        ChainSpec(n_joints=4, link_lengths=(0.4, 0.3, 0.2, 0.1)).to_json(chain_path)
        out = str(tmp_path / "run")
        assert main([
            "estimate", "--chain", chain_path, "--scenarios", "5", "--seed", "3",
            "--out", out,
        ]) == 0
        assert json.loads(read(out + ".json"))["auc"] == pytest.approx(100.0, abs=0.01)
