"""The benchmark's workloads and the checks on their outputs.

Each workload is one `posediff` CLI invocation. The benchmark only builds its
argv; the program never sees the benchmark's seed other than as `--seed`.

Outputs are checked in two ways:

* invariants that hold for any seed (row counts, no aborts, in-frustum rate
  exactly 1.0, AUC recomputed from the CSV, ...);
* at the reference seed, the values recorded in `reference.json`, compared
  as parsed values: floats within `REL_TOL` relative, ints and strings exact.
  Only the keys recorded there are compared, so JSON fields added later do
  not count as a mismatch.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE_SEED = 7
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
# Relative tolerance against the recorded values: an array-native engine may
# reorder float operations, but must agree to this.
REL_TOL = 1e-12
# DDIM steps plus refinement steps at the CLI defaults (5 + 5).
ESTIMATE_STEPS = 10
# One CSV row in this many is recorded for the diffuse reference.
DIFFUSE_ROW_STRIDE = 997
# Timesteps per scenario of `diffuse --timesteps all` at the default 100 steps.
DIFFUSE_STEPS = 100
ESTIMATE_HEADER = ["scenario", "add", "steps", "mode", "aborted", "reason"]
DIFFUSE_HEADER = ["scenario", "t", "in_frustum", "tx_n", "ty_n", "tz_n", "u", "v"]


@dataclass(frozen=True)
class Workload:
    name: str
    # Key of the recorded reference values, and of the checks that apply.
    kind: str
    args: tuple[str, ...]
    scenarios: int
    why: str

    def argv(self, seed: int, out: str) -> list[str]:
        return [*self.args, "--seed", str(seed), "--out", out]

    def outputs(self, out: str) -> list[str]:
        return [out + ".json"] if self.kind == "trainsim" else [out + ".csv", out + ".json"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "estimate-ddim",
            "estimate",
            ("estimate", "--scenarios", "2000", "--denoiser", "noisy:0.15"),
            2000,
            "the headline DDIM experiment: 10 denoiser calls per scenario, "
            "time in se3_camera, denoising, mononorm and reverse",
        ),
        Workload(
            "diffuse-all",
            "diffuse",
            ("diffuse", "--scenarios", "1000", "--timesteps", "all"),
            1000,
            "write-heavy forward diffusion (100k samples, 10.5 MB CSV) that "
            "bypasses the reverse loop and the oracles",
        ),
        Workload(
            "trainsim",
            "trainsim",
            ("trainsim", "--scenarios", "2000", "--draws", "4", "--denoiser", "noisy:0.15"),
            2000,
            "training-loss path: denoising and se3_camera layers without the "
            "reverse loop or a CSV",
        ),
    )
}


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a posediff CSV, skipping its `#` lines."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        header = next(reader, [])
        return header, list(reader)


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _diffuse_row(row: list[str]) -> list:
    return [int(x) for x in row[:3]] + [float(x) for x in row[3:]]


def reference_values(kind: str, out: str) -> dict:
    """The values of a run's outputs that are compared with the reference."""
    if kind == "estimate":
        _, rows = read_csv(out + ".csv")
        return {"add": [float(r[1]) for r in rows], "auc": _read_json(out + ".json")["auc"]}
    if kind == "diffuse":
        _, rows = read_csv(out + ".csv")
        summary = _read_json(out + ".json")
        return {
            "in_frustum_rate": summary["in_frustum_rate"],
            "per_timestep": summary["per_timestep"],
            "sample_rows": [[i, _diffuse_row(rows[i])]
                            for i in range(0, len(rows), DIFFUSE_ROW_STRIDE)],
        }
    summary = _read_json(out + ".json")
    return {k: summary[k] for k in ("samples", "mean_total", "bins")}


def close(ref, got) -> bool:
    """True if `got` matches `ref`: floats within REL_TOL, everything else exact.

    Dicts are compared on the keys of `ref` only.
    """
    if isinstance(ref, float) or isinstance(got, float):
        return (
            isinstance(ref, (int, float)) and isinstance(got, (int, float))
            and not isinstance(ref, bool) and not isinstance(got, bool)
            and math.isclose(ref, got, rel_tol=REL_TOL)
        )
    if isinstance(ref, dict):
        return isinstance(got, dict) and all(k in got and close(v, got[k]) for k, v in ref.items())
    if isinstance(ref, list):
        return isinstance(got, list) and len(ref) == len(got) and all(map(close, ref, got))
    return type(ref) is type(got) and ref == got


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class CheckResult:
    failed: int
    problems: list[str]


def check(wl: Workload, out: str, seed: int) -> CheckResult:
    """Check one run's outputs; `failed` counts scenarios whose outputs are wrong."""
    try:
        if wl.kind == "estimate":
            return _check_estimate(wl, out, seed)
        if wl.kind == "diffuse":
            return _check_diffuse(wl, out, seed)
        return _check_trainsim(wl, out, seed)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return CheckResult(wl.scenarios, [f"unreadable outputs: {exc!r}"])


def _check_estimate(wl, out, seed) -> CheckResult:
    n = wl.scenarios
    header, rows = read_csv(out + ".csv")
    summary = _read_json(out + ".json")
    if header != ESTIMATE_HEADER or len(rows) != n:
        return CheckResult(n, [f"CSV has header {header} and {len(rows)} rows, want {n}"])
    bad = set()
    adds = np.array([float(r[1]) for r in rows])
    for i, (scenario, _, steps, mode, aborted, reason) in enumerate(rows):
        if (scenario, steps, mode, aborted, reason) != (str(i), str(ESTIMATE_STEPS), "ddim", "0", ""):
            bad.add(i)
    bad.update(np.flatnonzero(~np.isfinite(adds)).tolist())
    problems = [f"{len(bad)} rows aborted or malformed"] if bad else []
    whole = False  # a problem not tied to one scenario fails them all

    grid = summary["auc_grid"]
    thresholds = np.linspace(grid["t_min"], grid["t_max"], grid["n_thresholds"])
    finite = np.sort(adds[np.isfinite(adds)])
    auc = float(100.0 * np.searchsorted(finite, thresholds, side="left").mean() / n)
    if summary["scenarios"] != n or summary["aborted"] != 0 or not close(auc, summary["auc"]):
        problems.append("JSON summary disagrees with the CSV")
        whole = True

    if seed == REFERENCE_SEED:
        ref = load_reference()["estimate"]
        differ = [i for i, (r, a) in enumerate(zip(ref["add"], adds.tolist())) if not close(r, a)]
        if differ:
            bad.update(differ)
            problems.append(f"{len(differ)} ADD values differ from the reference")
        if not close(ref["auc"], summary["auc"]):
            problems.append("AUC differs from the reference")
            whole = True
    return CheckResult(n if whole else len(bad), problems)


def _check_diffuse(wl, out, seed) -> CheckResult:
    n = wl.scenarios
    header, rows = read_csv(out + ".csv")
    summary = _read_json(out + ".json")
    steps = len(summary["per_timestep"])
    if header != DIFFUSE_HEADER or steps != DIFFUSE_STEPS or len(rows) != n * steps:
        return CheckResult(n, [f"CSV has {len(rows)} rows and JSON {steps} timesteps"])
    bad = set()
    for i, row in enumerate(rows):
        scenario, t = divmod(i, steps)
        if row[:3] != [str(scenario), str(t + 1), "1"]:
            bad.add(scenario)
    problems = [f"{len(bad)} scenarios have a sample outside the frustum"] if bad else []
    whole = False  # a problem not tied to one scenario fails them all
    rates = [summary["in_frustum_rate"]] + [v["in_frustum_rate"] for v in summary["per_timestep"].values()]
    if any(r != 1.0 for r in rates):
        problems.append("JSON in_frustum_rate is not exactly 1.0")
        whole = True
    if seed == REFERENCE_SEED:
        ref = load_reference()["diffuse"]
        got = reference_values("diffuse", out)
        for (i, ref_row), (_, row) in zip(ref["sample_rows"], got["sample_rows"]):
            if not close(ref_row, row):
                bad.add(i // steps)
                problems.append(f"CSV row {i} differs from the reference")
        if not close(ref["per_timestep"], got["per_timestep"]):
            problems.append("JSON per-timestep statistics differ from the reference")
            whole = True
    return CheckResult(n if whole else len(bad), problems)


def _check_trainsim(wl, out, seed) -> CheckResult:
    summary = _read_json(out + ".json")
    draws = int(wl.args[wl.args.index("--draws") + 1])
    problems = []
    samples = summary["samples"]
    if samples != wl.scenarios * draws or sum(b["count"] for b in summary["bins"]) != samples:
        problems.append(f"{samples} samples, or bin counts that do not add up to them")
    if not (math.isfinite(summary["mean_total"]) and summary["mean_total"] >= 0):
        problems.append(f"mean_total {summary['mean_total']} is not a finite loss")
    if seed == REFERENCE_SEED and not close(load_reference()["trainsim"], reference_values("trainsim", out)):
        problems.append("summary differs from the reference")
    # The JSON holds no per-scenario values, so any problem fails every scenario.
    return CheckResult(wl.scenarios if problems else 0, problems)
