"""Tracer fidelity and output checks, on tiny runs of each workload's command."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, check, close  # noqa: E402

SEED = 3  # not the reference seed, so checks use the seed-free invariants
TINY = 4  # scenarios per tiny run

# Layers each workload must reach; together they cover every wrapped layer
# except the oracles that only `test_every_oracle_predict_is_traced` uses.
EXPECTED = {
    "estimate": {
        "se3_camera.gram_schmidt_6d", "mononorm.normalize", "mononorm.denormalize",
        "denoising.predict", "denoising.compute_gt_targets", "denoising.apply_update",
        "denoising.point_distance", "reverse.run_reverse", "reverse.ddim_step",
        "robot_chain.forward_kinematics", "metrics.generate_scenarios", "metrics.scenario_rng",
        "metrics.make_observation", "metrics.add_metric", "metrics.auc", "cli.write",
    },
    "diffuse": {
        "forward_diffusion.diffuse_normalized", "mononorm.normalize", "metrics.generate_scenarios",
        "metrics.scenario_rng", "cli.write",
    },
    "trainsim": {
        "forward_diffusion.diffuse", "forward_diffusion.sample_timestep",
        "denoising.decomposed_loss", "robot_chain.sample_points", "denoising.predict",
        "se3_camera.gram_schmidt_6d", "cli.write",
    },
}


def tiny(wl):
    args = list(wl.args)
    args[args.index("--scenarios") + 1] = str(TINY)
    return dataclasses.replace(wl, args=tuple(args), scenarios=TINY)


def run_cli(argv, cwd, spans=None):
    prefix = [str(BENCH / "tracer.py"), str(spans)] if spans else ["-m", "posediff.cli"]
    subprocess.run([sys.executable, *prefix, *argv], cwd=cwd, check=True, timeout=120,
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                   stdout=subprocess.DEVNULL)


def read_outputs(wl, cwd):
    return {p: (cwd / p).read_bytes() for p in wl.outputs("out")}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per workload: the tiny workload, its untraced outputs and two traced runs."""
    results = {}
    for wl in map(tiny, WORKLOADS.values()):
        cwd = tmp_path_factory.mktemp(wl.name)
        argv = wl.argv(SEED, "out")
        run_cli(argv, cwd)
        plain = read_outputs(wl, cwd)
        traced = []
        for k in range(2):
            spans_path = cwd / f"spans{k}.jsonl"
            run_cli(argv, cwd, spans_path)
            header, spans = tracer.load_spans(str(spans_path))
            traced.append((header, spans, read_outputs(wl, cwd)))
        results[wl.name] = (wl, cwd, plain, traced)
    return results


def test_untraced_outputs_pass_their_checks(runs):
    for wl, cwd, _, _ in runs.values():
        run_cli(wl.argv(SEED, "out"), cwd)
        result = check(wl, str(cwd / "out"), SEED)
        assert (result.failed, result.problems) == (0, []), wl.name


def test_traced_outputs_equal_untraced_bytes(runs):
    for wl, _, plain, traced in runs.values():
        for header, _, outputs in traced:
            assert header["exit_code"] == 0
            assert outputs == plain, wl.name


def test_every_layer_records_a_call(runs):
    seen = set()
    for wl, _, _, traced in runs.values():
        calls = Counter(s[1] for s in traced[0][1])
        missing = {layer for layer in EXPECTED[wl.kind] if calls[layer] < 1}
        assert not missing, (wl.name, missing)
        seen.update(calls)
    assert seen == set(tracer.LAYERS)


def test_every_oracle_predict_is_traced(tmp_path):
    for spec in ("perfect", "biased:5", "noisy:0.1"):
        run_cli(["estimate", "--scenarios", "1", "--denoiser", spec, "--out", "out"],
                tmp_path, tmp_path / "spans.jsonl")
        _, spans = tracer.load_spans(str(tmp_path / "spans.jsonl"))
        assert Counter(s[1] for s in spans)["denoising.predict"] == 10, spec


def test_counts_repeat_exactly(runs):
    for wl, _, _, traced in runs.values():
        (h0, s0, _), (h1, s1, _) = traced
        m0 = tracer.aggregate(s0, h0["main_s"], 0)
        m1 = tracer.aggregate(s1, h1["main_s"], 0)
        exact = [k for k, unit in tracer.UNITS.items() if unit in ("count", "ratio") and k in m0]
        assert [m0[k] for k in exact] == [m1[k] for k in exact], wl.name


def test_waste_ratios(runs):
    wl, _, _, traced = runs["estimate-ddim"]
    header, spans, _ = traced[0]
    m = tracer.aggregate(spans, header["main_s"], 0)
    # make_observation and cmd_estimate each run forward kinematics.
    assert m["robot_chain.forward_kinematics.calls_per_scenario"] == 2.0
    assert m["metrics.generate_scenarios.attempts_per_scenario"] >= 1.0
    wl, _, _, traced = runs["trainsim"]
    header, spans, _ = traced[0]
    m = tracer.aggregate(spans, header["main_s"], 0)
    assert m["forward_diffusion.diffuse.attempts_per_call"] >= 1.0


def test_self_times_account_for_traced_wall(runs):
    for wl, _, _, traced in runs.values():
        header, spans, _ = traced[0]
        m = tracer.aggregate(spans, header["main_s"], 0)
        total = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
        assert total + m["cli.self_s"] == pytest.approx(header["main_s"], abs=1e-9)
        assert m["cli.self_s"] >= 0, wl.name
        if header["threads"] == 1:
            roots = sum(s[3] - s[2] for s in spans if s[4] == 0)
            assert total == pytest.approx(roots, rel=1e-9), wl.name


def test_threaded_spans_nest_per_thread(runs, tmp_path):
    wl, _, _, traced = runs["estimate-ddim"]
    spans_path = tmp_path / "spans.jsonl"
    run_cli([*wl.argv(SEED, "out"), "--workers", "2"], tmp_path, spans_path)
    header, spans = tracer.load_spans(str(spans_path))
    thread_of = {s[0]: s[5] for s in spans}
    assert all(thread_of[s[4]] == s[5] for s in spans if s[4])
    # The pool's workers are threads other than the main thread.
    assert header["threads"] >= 2
    serial = traced[0][1]
    assert Counter(s[1] for s in spans) == Counter(s[1] for s in serial)
    m = tracer.aggregate(spans, header["main_s"], 0)
    total = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert total + m["cli.self_s"] == pytest.approx(header["main_s"], abs=1e-9)
    assert m["cli.self_s"] >= 0


def test_self_times_share_overlapping_threads():
    spans = [
        (1, "a", 0.0, 10.0, 0, 1, None),
        (2, "b", 2.0, 5.0, 1, 1, None),
        (3, "c", 5.0, 15.0, 0, 2, None),
    ]
    own = tracer.self_times(spans)
    # 0-2: a alone; 2-5: b alone; 5-10: a and c share; 10-15: c alone.
    assert own == {"a": pytest.approx(4.5), "b": pytest.approx(3.0), "c": pytest.approx(7.5)}


def test_install_rebinds_every_alias_and_uninstall_restores():
    import posediff.cli  # noqa: F401

    modules = [m for n, m in sys.modules.items() if n == "posediff" or n.startswith("posediff.")]
    originals = {
        id(getattr(sys.modules[f"posediff.{m}"], f)) for m, f in tracer.FUNCTIONS
    } | {id(getattr(sys.modules["posediff.cli"], f)) for f in tracer.WRITERS}
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    oracles = [getattr(sys.modules["posediff.denoising"], c) for c in tracer.ORACLES]
    predicts = [c.predict for c in oracles]
    t = tracer.Tracer()
    t.install()
    try:
        left = [(m.__name__, k) for m in modules for k, v in vars(m).items() if id(v) in originals]
        assert left == []
        assert all(c.predict is not p for c, p in zip(oracles, predicts))
    finally:
        t.uninstall()
    assert {(m.__name__, k): v for m in modules for k, v in vars(m).items()} == before
    assert [c.predict for c in oracles] == predicts


def test_checks_count_failed_scenarios(runs):
    wl, cwd, _, _ = runs["estimate-ddim"]
    run_cli(wl.argv(SEED, "bad"), cwd)
    csv_path = cwd / "bad.csv"
    lines = csv_path.read_text().splitlines(keepends=True)
    lines[-1] = lines[-1].replace(",ddim,0,", ",ddim,1,")
    csv_path.write_text("".join(lines))
    assert check(wl, str(cwd / "bad"), SEED).failed == 1

    wl, cwd, _, _ = runs["diffuse-all"]
    run_cli(wl.argv(SEED, "bad"), cwd)
    summary = json.loads((cwd / "bad.json").read_text())
    summary["in_frustum_rate"] = 0.999
    (cwd / "bad.json").write_text(json.dumps(summary))
    assert check(wl, str(cwd / "bad"), SEED).failed == wl.scenarios


def test_peak_rss_is_the_childs_own(tmp_path):
    # The kernel carries a spawning process's peak RSS into the child's
    # ru_maxrss, so make this process's peak far larger than a tiny run's.
    ballast = b"x" * (100 << 20)
    session = bench_run.Session(tiny(WORKLOADS["trainsim"]), SEED, tmp_path)
    session.timed_runs(deadline=0.0)
    del ballast
    assert (session.failed, session.problems) == (0, [])
    assert len(session.peak_rss_mb) == bench_run.MIN_RUNS
    assert all(10 < mb < 100 for mb in session.peak_rss_mb)


def test_close_compares_parsed_values():
    assert close({"a": 1.0, "b": [1, "x"]}, {"a": 1.0 + 1e-13, "b": [1, "x"], "new": 2})
    assert not close({"a": 1.0}, {"a": 1.0 + 1e-11})
    assert not close({"a": 1}, {"a": 2})
    assert not close({"a": "x"}, {})
    assert not close([1.0, 2.0], [1.0])


def test_benchmark_json_names_the_emitted_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.UNITS
