"""Command-line harness: seeded experiments with CSV/JSON outputs.

Subcommands
===========
schedule   dump the noise schedule (t, beta, alpha_bar, sigma) as CSV
diffuse    Monte-Carlo forward diffusion: per-sample CSV + JSON summary
estimate   reverse estimation over a scenario set: per-scenario CSV + JSON
trainsim   training-loop simulation: decomposed-loss statistics as JSON

Every output starts from a RunConfig (defaults -> optional JSON config file
-> command-line flags) and embeds a metadata block (full config, seed,
package version, RNG scheme) sufficient to reproduce the run. Outputs are
byte-identical for identical configs, including under --workers parallelism,
because every scenario draws from its own (seed, index, stream) generator.
Wall-clock timing is therefore opt-in (--timing).

Exit codes: 0 success; 1 scenario aborts or failed embedded checks;
2 configuration errors.

CSV columns are documented in FORMATS.md and in each subcommand's --help.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import functools
import json
import math
import sys
import time
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .denoising import Observation, decomposed_loss, parse_denoiser
from .errors import ABORTS, InvalidConfig, PoseDiffError
from .forward_diffusion import (
    FrustumBox,
    NoiseScales,
    diffuse,
    diffuse_normalized,
    make_linear_schedule,
    sample_timestep,
)
from .metrics import (
    FOCAL_RANGE,
    IMAGE_SIZES,
    STREAM_DIFFUSE,
    STREAM_ESTIMATE,
    STREAM_TRAINSIM,
    add_metric,
    auc,
    generate_scenarios,
    make_observation,
    scenario_rng,
)
from .mononorm import NormalizedPose, NormConfig, denormalize, normalize
from .reverse import (
    INIT_MODES,
    MODES,
    SIGMA_FORMS,
    ReverseConfig,
    run_direct_regression,
    run_reverse,
    sigma_squared,
)
from .robot_chain import ChainSpec, forward_kinematics, sample_points
from .se3_camera import in_frustum

RNG_SCHEME = "numpy default_rng seeded with [seed, scenario_index, stream]"

# Fewest scenarios per --workers chunk. A chunk's cost per step is mostly
# numpy call overhead, which does not shrink with its length, so splitting
# off a tiny chunk adds calls and saves nothing.
MIN_CHUNK = 8
# Most scenarios per chunk, so that peak memory does not grow with --scenarios.
MAX_CHUNK = 256


@dataclass
class RunConfig:
    """All harness knobs; validated before any work starts."""

    steps: int = 100
    beta_start: float = 1e-4
    beta_end: float = 0.02
    cz: float = 1.5
    z_min: float = 0.3
    z_max: float = 3.0
    gamma: float = 3.0
    margin: float = 0.05
    eta: float = 1.0
    ddim_steps: int = 5
    refine_steps: int = 5
    sigma_form: str = "paper"
    denoiser: str = "perfect"
    competence: float = 3.0
    mode: str = "ddim"
    init: str = "canonical"
    scenarios: int = 100
    seed: int = 0
    clamp: bool = True
    timesteps: str = "1,25,50,75,100"
    draws: int = 1
    per_link: int = 9
    chain: str | None = None
    out: str = "run"
    trajectories: str | None = None
    workers: int = 1
    timing: bool = False

    def validate(self) -> "RunConfig":
        """Check each field; `main` then builds the world, which checks the rest."""
        checks = [(math.isfinite(getattr(self, f.name)), f.name, "must be finite")
                  for f in dataclasses.fields(self) if f.type == "float"]
        checks += [
            (self.steps >= 1, "steps", "must be >= 1"),
            (0 < self.beta_start <= self.beta_end < 1, "beta_start/beta_end",
             "need 0 < beta_start <= beta_end < 1"),
            (0 < self.z_min < self.cz < self.z_max, "cz", "need 0 < z_min < cz < z_max"),
            (self.gamma > 0, "gamma", "must be positive"),
            (0 <= self.margin < 0.5, "margin", "must be in [0, 0.5)"),
            (self.eta >= 0, "eta", "must be >= 0"),
            (1 <= self.ddim_steps <= self.steps, "ddim_steps", "need 1 <= ddim_steps <= steps"),
            (self.refine_steps >= 0, "refine_steps", "must be >= 0"),
            (self.sigma_form in SIGMA_FORMS, "sigma_form", f"must be one of {SIGMA_FORMS}"),
            (self.mode in MODES, "mode", f"must be one of {MODES}"),
            (self.init in INIT_MODES, "init", f"must be one of {INIT_MODES}"),
            (self.init != "previous-estimate" or self.mode == "tracking", "init",
             "previous-estimate needs --mode tracking, which starts from the ground truth"),
            (self.scenarios >= 1, "scenarios", "must be >= 1"),
            (self.seed >= 0, "seed", "must be >= 0"),
            (self.draws >= 1, "draws", "must be >= 1"),
            (self.per_link >= 1, "per_link", "must be >= 1"),
            (self.workers >= 1, "workers", "must be >= 1"),
            (self.competence > 0, "competence", "must be positive"),
        ]
        for ok, fieldname, msg in checks:
            if not ok:
                raise InvalidConfig(f"{fieldname}: {msg}")
        self.parse_timesteps()
        return self

    def parse_timesteps(self) -> list[int]:
        """The --timesteps list; diffuse, its only reader, checks its range."""
        if self.timesteps.strip().lower() == "all":
            return list(range(1, self.steps + 1))
        try:
            return [int(x) for x in self.timesteps.split(",") if x.strip()]
        except ValueError as exc:
            raise InvalidConfig(f"timesteps: not a comma-separated int list: {exc}") from exc


def _build_world(cfg: RunConfig):
    """Shared wiring: schedule, normalization, scales, box, chain, oracle."""
    sched = make_linear_schedule(cfg.steps, cfg.beta_start, cfg.beta_end)
    norm = NormConfig(c_z=cfg.cz, z_min=cfg.z_min, z_max=cfg.z_max)
    try:
        scales = NoiseScales.for_config(norm, gamma=cfg.gamma)
        box = FrustumBox.for_config(norm, margin=cfg.margin)
    except ValueError as exc:
        raise InvalidConfig(f"gamma/margin: {exc}") from exc
    # The nearest in-box depth, (z_min - cz) + cz, must not cancel to zero, and the farthest
    # in-view translation (widest image, shortest focal length) needs a finite squared norm.
    far = box.z_bound[1] + norm.c_z
    t = [(size * far / FOCAL_RANGE[0]) * box.xy_bound for size in max(IMAGE_SIZES)] + [far]
    if not (box.z_bound[0] + norm.c_z > 0 and math.isfinite(sum(v * v for v in t))):
        raise InvalidConfig(f"cz: depths {cfg.z_min} < {cfg.cz} < {cfg.z_max} are too far apart")
    try:
        chain = ChainSpec.from_json(cfg.chain) if cfg.chain else ChainSpec()
    except (OSError, ValueError, TypeError) as exc:
        raise InvalidConfig(f"chain: {exc}") from exc
    oracle = parse_denoiser(cfg.denoiser, sched, scales, norm, competence=cfg.competence)
    return sched, norm, scales, box, chain, oracle


def _metadata(cfg: RunConfig, command: str) -> dict:
    return {
        "command": command,
        "config": dataclasses.asdict(cfg),
        "seed": cfg.seed,
        "version": __version__,
        "rng_scheme": RNG_SCHEME,
    }


def _write_csv(path: str, meta: dict, header: list[str], rows) -> None:
    """Write the `#` metadata lines, then the header and the rows (tuples, consumed as
    written) as unquoted `str()` fields ending in CRLF, as csv.writer does for such fields."""
    fmt = ",".join(["%s"] * len(header)) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for key in ("command", "seed", "version"):
            fh.write(f"# {key}={meta[key]}\n")
        fh.write(f"# config={json.dumps(meta['config'], sort_keys=True)}\n")
        fh.write(fmt % tuple(header))
        fh.writelines(fmt % row for row in rows)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Rank correlation; inputs are small bin summaries without ties."""
    rx = np.argsort(np.argsort(x)).astype(float)
    ry = np.argsort(np.argsort(y)).astype(float)
    if rx.std() == 0 or ry.std() == 0:
        return 0.0
    return float(np.corrcoef(rx, ry)[0, 1])


def cmd_schedule(cfg: RunConfig, world: tuple) -> int:
    sched, *_ = world
    rows = []
    for t in range(1, cfg.steps + 1):
        s2 = sigma_squared(sched, t, t - 1, cfg.eta, cfg.sigma_form)
        rows.append((t, sched.beta[t - 1], sched.alpha_bar[t], float(np.sqrt(s2))))
    _write_csv(
        cfg.out + ".csv", _metadata(cfg, "schedule"), ["t", "beta", "alpha_bar", "sigma"], rows
    )
    print(f"schedule: wrote {cfg.steps} rows to {cfg.out}.csv")
    return 0


def _chunks(items: list, workers: int) -> list[list]:
    """`items` split into contiguous chunks of near-equal length: one per
    worker while each keeps MIN_CHUNK items, and more where needed to keep
    every chunk within MAX_CHUNK."""
    n = max(1, min(workers, len(items) // MIN_CHUNK), -(-len(items) // MAX_CHUNK))
    bounds = [len(items) * k // n for k in range(n + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _run_chunks(cfg: RunConfig, world: tuple, run_chunk) -> Iterator:
    """`run_chunk(cfg, world, chunk)` for each `_chunks` chunk of the run's scenarios, in
    order as the caller reaches it, on a thread pool with --workers > 1. The scenarios are
    drawn at once, inside the world's frustum box, which `main` built before any output."""
    _, norm, _, box, chain, _ = world
    scen = generate_scenarios(cfg.seed, cfg.scenarios, box, chain, norm)
    chunks = _chunks(scen.scenarios, cfg.workers)
    run = functools.partial(run_chunk, cfg, world)
    if cfg.workers <= 1:
        return map(run, chunks)
    return _pool_map(run, chunks, cfg.workers)


def _pool_map(fn, items: list, workers: int) -> Iterator:
    """`map(fn, items)` on `workers` threads with at most `workers` items in flight,
    so that memory holds those results and the one being consumed, not all of them."""
    with ThreadPoolExecutor(max_workers=workers) as pool:
        in_flight = collections.deque(pool.submit(fn, item) for item in items[:workers])
        for item in items[workers:]:
            yield in_flight.popleft().result()
            in_flight.append(pool.submit(fn, item))
        while in_flight:
            yield in_flight.popleft().result()


def _diffuse_chunk(cfg: RunConfig, world: tuple, scenarios: list) -> tuple:
    """Forward-diffuse a chunk of S scenarios at all T --timesteps as one batch.

    Returns its CSV rows (one pass), (S, T) in-frustum flags and (S, T, 9) noised vectors.
    """
    sched, norm, scales, box, _, _ = world
    ts = cfg.parse_timesteps()
    batch = Observation.stack(scenarios)
    n0 = normalize(batch.gt_pose, batch.intrinsics, norm).as_vector()
    # Each scenario draws one (T, 9) noise block from its own generator.
    eps = np.concatenate([
        scenario_rng(cfg.seed, sc.index, STREAM_DIFFUSE).standard_normal((len(ts), 9))
        for sc in scenarios
    ])
    rows = np.repeat(np.arange(len(scenarios)), len(ts))
    t = np.tile(ts, len(scenarios))
    K = batch.intrinsics[rows]
    n = diffuse_normalized(n0[rows], t, sched, scales, eps, box if cfg.clamp else None)
    # Rows behind the camera or with a degenerate rotation are recorded in
    # `reasons` instead of raising; in_frustum counts them as outside.
    reasons = np.full(len(n), "", dtype=object)
    with np.errstate(all="ignore"):
        pose = denormalize(NormalizedPose.from_vector(n), K, norm, reasons)
    inside = in_frustum(pose, K, cfg.margin, (norm.z_min, norm.z_max))
    behind = pose.t[:, 2] <= 0
    u = np.where(behind, np.nan, K.w * n[:, 6] + K.cx)
    v = np.where(behind, np.nan, K.h * n[:, 7] + K.cy)
    index = np.array([sc.index for sc in scenarios])[rows]
    # Columns of Python values, which print as the numpy values do, only faster.
    cols = (index, t, inside.astype(int), n[:, 6], n[:, 7], n[:, 8], u, v)
    csv_rows = zip(*(col.tolist() for col in cols))
    return csv_rows, inside.reshape(len(scenarios), -1), n.reshape(len(scenarios), -1, 9)


def cmd_diffuse(cfg: RunConfig, world: tuple) -> int:
    ts = cfg.parse_timesteps()
    if not ts or any(not (1 <= t <= cfg.steps) for t in ts):
        raise InvalidConfig(f"timesteps: values must lie in [1, {cfg.steps}]")
    chunks = _run_chunks(cfg, world, _diffuse_chunk)
    kept = []  # each chunk's (flags, vectors), for the summary

    def rows():
        for chunk_rows, *arrays in chunks:  # written as each chunk arrives
            kept.append(arrays)
            yield from chunk_rows

    _write_csv(
        cfg.out + ".csv",
        _metadata(cfg, "diffuse"),
        ["scenario", "t", "in_frustum", "tx_n", "ty_n", "tz_n", "u", "v"],
        rows(),
    )
    inside = np.concatenate([flags for flags, _ in kept])
    summary_t = {}
    for t in dict.fromkeys(ts):
        # A timestep listed more than once pools its columns, scenario by scenario.
        cols = [j for j, tj in enumerate(ts) if tj == t]
        pooled = np.concatenate([n[:, cols] for _, n in kept]).reshape(-1, 9)
        summary_t[str(t)] = {
            "in_frustum_rate": int(inside[:, cols].sum()) / inside[:, cols].size,
            "component_mean": pooled.mean(axis=0).tolist(),
            "component_std": pooled.std(axis=0).tolist(),
        }
    rate = int(inside.sum()) / inside.size

    _write_json(
        cfg.out + ".json",
        {
            "metadata": _metadata(cfg, "diffuse"),
            "in_frustum_rate": rate,
            "per_timestep": summary_t,
        },
    )
    print(f"diffuse: in_frustum_rate={rate:.6f} over {inside.size} samples -> {cfg.out}.csv/.json")
    return 0


def _estimate_reverse_config(cfg: RunConfig) -> ReverseConfig:
    """The reverse loop of `cfg.mode`; tracking is a single scheduled step
    from the previous estimate."""
    tracking = cfg.mode == "tracking"
    return ReverseConfig(
        ddim_steps=1 if tracking else cfg.ddim_steps,
        refine_steps=0 if tracking else cfg.refine_steps,
        eta=cfg.eta,
        init_mode="previous-estimate" if tracking else cfg.init,
        sigma_form=cfg.sigma_form,
        margin=cfg.margin,
    )


def _trajectory_rows(traj, index: np.ndarray, done: np.ndarray) -> Iterator:
    """Trajectory CSV rows of the `done` rows of a batch trajectory, scenario by
    scenario, then step by step, built column by column; a one-pass iterator."""
    steps, n_done = traj.steps, int(done.sum())
    R = np.stack([s.pose.R[done] for s in steps], axis=1)
    t = np.stack([s.pose.t[done] for s in steps], axis=1)
    # [R | t] of each row and step, flattened: r00 r01 r02 tx r10 ... r22 tz.
    pose_cols = np.concatenate([R, t[..., None]], axis=-1).reshape(-1, 12).T.tolist()
    add = np.stack([s.add[done] for s in steps], axis=1).ravel().tolist()
    cols = [[getattr(s, name) for s in steps] * n_done for name in ("index", "timestep", "cond_t")]
    return zip(np.repeat(index[done], len(steps)).tolist(), *cols, *pose_cols, add)


def _estimate_chunk(cfg: RunConfig, world: tuple, rcfg: ReverseConfig, scenarios: list) -> tuple:
    """Run one chunk of scenarios as a single lockstep batch.

    Returns the estimate CSV row of each scenario, in order, and the chunk's trajectory
    CSV rows (none without --trajectories or for an aborted scenario). Aborts are rows
    of the batch, so an exception here is a fault of the run and propagates.
    """
    sched, norm, scales, _, chain, oracle = world
    batch = Observation.stack([make_observation(sc, chain, cfg.seed) for sc in scenarios])
    rngs = [scenario_rng(cfg.seed, sc.index, STREAM_ESTIMATE) for sc in scenarios]
    keypoints = np.stack([forward_kinematics(chain, sc.joints) for sc in scenarios])
    if cfg.mode == "direct":
        final, traj = run_direct_regression(
            batch, chain, sched, scales, norm, cfg.ddim_steps + cfg.refine_steps, oracle, rngs,
            rcfg=rcfg, keypoints=keypoints,
        )
    else:
        final, traj = run_reverse(
            batch, chain, sched, scales, norm, rcfg, oracle, rngs,
            prev_pose=batch.gt_pose if cfg.mode == "tracking" else None,
            keypoints=keypoints,
        )
    done = traj.reasons == ""
    adds = np.full(len(scenarios), np.inf)
    adds[done] = add_metric(batch.gt_pose[done], final[done], keypoints[done])
    index = np.array([sc.index for sc in scenarios])
    rows = [
        (i, add, len(traj) if ok else 0, cfg.mode, int(not ok), reason)
        for i, add, ok, reason in zip(index.tolist(), adds.tolist(), done.tolist(), traj.reasons)
    ]
    return rows, _trajectory_rows(traj, index, done) if cfg.trajectories else ()


def cmd_estimate(cfg: RunConfig, world: tuple) -> int:
    rcfg = _estimate_reverse_config(cfg)
    t0 = time.perf_counter()
    chunks = _run_chunks(cfg, world, lambda c, w, chunk: _estimate_chunk(c, w, rcfg, chunk))
    rows = []  # every scenario's estimate row, for the CSV and the summary

    def traj_rows():
        for chunk_rows, chunk_traj in chunks:  # written as each chunk arrives
            rows.extend(chunk_rows)
            yield from chunk_traj

    traj = traj_rows()
    if cfg.trajectories:
        _write_csv(
            cfg.trajectories,
            _metadata(cfg, "estimate"),
            ["scenario", "step", "timestep", "cond_t",
             "r00", "r01", "r02", "tx", "r10", "r11", "r12", "ty",
             "r20", "r21", "r22", "tz", "add"],
            traj,
        )
    collections.deque(traj, maxlen=0)  # runs the chunks that no trajectory CSV consumed
    elapsed = time.perf_counter() - t0

    adds = [r[1] for r in rows]
    aborted = sum(r[4] for r in rows)
    finite = [a for a in adds if np.isfinite(a)]
    summary = {
        "metadata": _metadata(cfg, "estimate"),
        "auc": auc(adds),
        "auc_grid": {"t_min": 1e-5, "t_max": 0.1, "n_thresholds": 2000},
        "mean_add": float(np.mean(finite)) if finite else float("inf"),
        "median_add": float(np.median(finite)) if finite else float("inf"),
        "scenarios": cfg.scenarios,
        "aborted": aborted,
        "abort_reasons": sorted({r[5] for r in rows if r[4]}),
    }
    if cfg.timing:
        summary["runtime_seconds"] = elapsed
        summary["scenarios_per_second"] = cfg.scenarios / elapsed if elapsed > 0 else None

    _write_csv(
        cfg.out + ".csv",
        _metadata(cfg, "estimate"),
        ["scenario", "add", "steps", "mode", "aborted", "reason"],
        rows,
    )
    _write_json(cfg.out + ".json", summary)

    print(
        f"estimate[{cfg.mode}/{cfg.denoiser}]: AUC={summary['auc']:.3f} "
        f"mean_add={summary['mean_add']:.3e} aborted={aborted} "
        f"({elapsed:.2f}s) -> {cfg.out}.csv/.json"
    )
    return 1 if aborted > 0 else 0


def _trainsim_chunk(cfg: RunConfig, world: tuple, scenarios: list) -> np.ndarray:
    """(t, loss_xy, loss_rot, loss_z, total) rows of a chunk, scenario by scenario,
    then draw by draw; each draw is one batch over the chunk. Each generator
    is drawn as in a scenario run alone: per draw, the timestep, the forward
    noise and its redraws, then the oracle's noise."""
    sched, norm, scales, box, chain, oracle = world
    obs = Observation.stack(scenarios)
    rngs = [scenario_rng(cfg.seed, sc.index, STREAM_TRAINSIM) for sc in scenarios]
    points = sample_points(chain, obs.joints, cfg.per_link)
    draws = []
    for _ in range(cfg.draws):
        t = np.array([sample_timestep(sched, rng) for rng in rngs])
        pose_t = diffuse(
            obs.gt_pose, t, sched, scales, box, obs.intrinsics, norm, rngs, clamp=cfg.clamp
        )
        pred = oracle.predict(pose_t, t, obs, rngs)
        draws.append((t, *decomposed_loss(obs.gt_pose, pose_t, pred, points, obs.intrinsics)))
    return np.array(draws, dtype=float).transpose(2, 0, 1).reshape(-1, 5)


def cmd_trainsim(cfg: RunConfig, world: tuple) -> int:
    arr = np.concatenate(list(_run_chunks(cfg, world, _trainsim_chunk)))
    n_bins = min(10, cfg.steps)
    edges = np.linspace(1, cfg.steps + 1, n_bins + 1)
    bins = []
    bin_t, bin_total = [], []
    for b in range(n_bins):
        mask = (arr[:, 0] >= edges[b]) & (arr[:, 0] < edges[b + 1])
        chunk = arr[mask]
        if chunk.size == 0:
            continue
        entry = {
            "t_lo": int(np.ceil(edges[b])),
            "t_hi": int(np.ceil(edges[b + 1]) - 1),
            "count": int(chunk.shape[0]),
            "mean_xy": float(chunk[:, 1].mean()),
            "mean_rot": float(chunk[:, 2].mean()),
            "mean_z": float(chunk[:, 3].mean()),
            "mean_total": float(chunk[:, 4].mean()),
            "p50_total": float(np.percentile(chunk[:, 4], 50)),
            "p90_total": float(np.percentile(chunk[:, 4], 90)),
        }
        bins.append(entry)
        bin_t.append(entry["t_lo"])
        bin_total.append(entry["mean_total"])

    summary = {
        "metadata": _metadata(cfg, "trainsim"),
        "samples": int(arr.shape[0]),
        "mean_total": float(arr[:, 4].mean()),
        "max_total": float(arr[:, 4].max()),
        "bins": bins,
        "spearman_t_vs_total": _spearman(np.array(bin_t), np.array(bin_total))
        if len(bins) > 1
        else None,
    }
    _write_json(cfg.out + ".json", summary)
    print(
        f"trainsim[{cfg.denoiser}]: {arr.shape[0]} samples, mean_total={summary['mean_total']:.3e} "
        f"-> {cfg.out}.json"
    )
    return 0


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with RunConfig fields; flags override it")
    p.add_argument("--steps", type=int, help="diffusion steps T (default 100)")
    p.add_argument("--beta-start", type=float, dest="beta_start")
    p.add_argument("--beta-end", type=float, dest="beta_end")
    p.add_argument("--cz", type=float, help="depth normalization offset, meters")
    p.add_argument("--z-min", type=float, dest="z_min")
    p.add_argument("--z-max", type=float, dest="z_max")
    p.add_argument("--gamma", type=float, help="k-sigma containment multiplier")
    p.add_argument("--margin", type=float, help="frustum margin as an image fraction")
    p.add_argument("--eta", type=float, help="DDIM noise scale")
    p.add_argument("--ddim-steps", type=int, dest="ddim_steps")
    p.add_argument("--refine-steps", type=int, dest="refine_steps")
    p.add_argument("--sigma-form", choices=SIGMA_FORMS, dest="sigma_form")
    p.add_argument("--denoiser", help="perfect | noisy:S0 | biased:PX")
    p.add_argument("--competence", type=float, help="oracle correction range, k-sigma units")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--init", choices=INIT_MODES)
    p.add_argument("--scenarios", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--clamp", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--timesteps", help='comma list for diffuse, or "all"')
    p.add_argument("--draws", type=int, help="trainsim draws per scenario")
    p.add_argument("--per-link", type=int, dest="per_link")
    p.add_argument("--chain", help="ChainSpec JSON file")
    p.add_argument("--out", help="output path prefix (default 'run')")
    p.add_argument("--trajectories", help="also write per-step trajectory CSV here")
    p.add_argument("--workers", type=int)
    p.add_argument("--timing", action=argparse.BooleanOptionalAction, default=None,
                   help="include wall-clock timing in the JSON (non-deterministic)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posediff",
        description="Visibility-constrained SE(3) pose diffusion harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "schedule": "dump the noise schedule; CSV columns: t, beta, alpha_bar, sigma",
        "diffuse": (
            "forward-diffuse scenario poses; CSV columns: scenario, t, in_frustum, "
            "tx_n, ty_n, tz_n, u, v"
        ),
        "estimate": (
            "run reverse estimation; CSV columns: scenario, add, steps, mode, "
            "aborted, reason"
        ),
        "trainsim": "simulate the training loop; JSON loss statistics only",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        _add_common_flags(p)
    return parser


# The JSON value types a config file may give a RunConfig field, by the field's
# type. They are matched exactly, so that a JSON true is not taken for an int.
FILE_TYPES = {
    "bool": (bool,),
    "int": (int,),
    "float": (int, float),
    "str": (str,),
    "str | None": (str, type(None)),
}


def load_config(args: argparse.Namespace) -> RunConfig:
    values = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise InvalidConfig("config file: the top level must be a JSON object")
        types = {f.name: f.type for f in dataclasses.fields(RunConfig)}
        unknown = set(file_values) - set(types)
        if unknown:
            raise InvalidConfig(f"config file: unknown fields {sorted(unknown)}")
        for name, value in file_values.items():
            if type(value) not in FILE_TYPES[types[name]]:
                raise InvalidConfig(f"{name}: expected {types[name]}, got {json.dumps(value)}")
        values.update(file_values)
    for f in dataclasses.fields(RunConfig):
        flag_value = getattr(args, f.name, None)
        if flag_value is not None:
            values[f.name] = flag_value
    return RunConfig(**values).validate()


COMMANDS = {
    "schedule": cmd_schedule,
    "diffuse": cmd_diffuse,
    "estimate": cmd_estimate,
    "trainsim": cmd_trainsim,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        world = _build_world(cfg)
    except (PoseDiffError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command](cfg, world)
    except PoseDiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # A scenario abort is a failed run, not a bad configuration.
        return 1 if isinstance(exc, ABORTS) else 2


if __name__ == "__main__":
    raise SystemExit(main())
