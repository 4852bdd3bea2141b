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
import csv
import dataclasses
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .denoising import Observation, decomposed_loss, parse_denoiser, parse_denoiser_spec
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
    STREAM_DIFFUSE,
    STREAM_ESTIMATE,
    STREAM_TRAINSIM,
    ScenarioRanges,
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
)
from .robot_chain import ChainSpec, forward_kinematics, sample_points
from .se3_camera import CameraIntrinsics, Pose, in_frustum

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
        checks = [
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
            (self.draws >= 1, "draws", "must be >= 1"),
            (self.per_link >= 1, "per_link", "must be >= 1"),
            (self.workers >= 1, "workers", "must be >= 1"),
            (self.competence > 0, "competence", "must be positive"),
        ]
        for ok, fieldname, msg in checks:
            if not ok:
                raise InvalidConfig(f"{fieldname}: {msg}")
        parse_denoiser_spec(self.denoiser)
        self.parse_timesteps()
        self.load_chain()
        return self

    def load_chain(self) -> ChainSpec:
        """The --chain file's chain, or the default chain without one."""
        try:
            return ChainSpec.from_json(self.chain) if self.chain else ChainSpec()
        except (OSError, ValueError, TypeError) as exc:
            raise InvalidConfig(f"chain: {exc}") from exc

    def parse_timesteps(self) -> list[int]:
        if self.timesteps.strip().lower() == "all":
            return list(range(1, self.steps + 1))
        try:
            ts = [int(x) for x in self.timesteps.split(",") if x.strip()]
        except ValueError as exc:
            raise InvalidConfig(f"timesteps: not a comma-separated int list: {exc}") from exc
        if not ts or any(not (1 <= t <= self.steps) for t in ts):
            raise InvalidConfig(f"timesteps: values must lie in [1, {self.steps}]")
        return ts

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _build_world(cfg: RunConfig):
    """Shared wiring: schedule, normalization, scales, box, chain, oracle."""
    sched = make_linear_schedule(cfg.steps, cfg.beta_start, cfg.beta_end)
    norm = NormConfig(c_z=cfg.cz, z_min=cfg.z_min, z_max=cfg.z_max)
    scales = NoiseScales.for_config(norm, gamma=cfg.gamma)
    box = FrustumBox.for_config(norm, margin=cfg.margin)
    chain = cfg.load_chain()
    oracle = parse_denoiser(cfg.denoiser, sched, scales, norm, competence=cfg.competence)
    return sched, norm, scales, box, chain, oracle


def _metadata(cfg: RunConfig, command: str) -> dict:
    return {
        "command": command,
        "config": cfg.as_dict(),
        "seed": cfg.seed,
        "version": __version__,
        "rng_scheme": RNG_SCHEME,
    }


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(path: str, meta: dict, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for key in ("command", "seed", "version"):
            fh.write(f"# {key}={meta[key]}\n")
        fh.write(f"# config={json.dumps(meta['config'], sort_keys=True)}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


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


def cmd_schedule(cfg: RunConfig) -> int:
    from .reverse import sigma_squared

    sched, *_ = _build_world(cfg)
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


def _run_chunks(cfg: RunConfig, run_chunk) -> list:
    """`run_chunk(cfg, world, chunk)` for each `_chunks` chunk of the run's scenarios,
    in order, on a thread pool when --workers > 1; every subcommand runs this way."""
    world = _build_world(cfg)
    _, norm, _, _, chain, _ = world
    ranges = ScenarioRanges(margin=cfg.margin)
    scen = generate_scenarios(cfg.seed, cfg.scenarios, ranges, chain, norm)
    chunks = _chunks(scen.scenarios, cfg.workers)
    if cfg.workers <= 1:
        return [run_chunk(cfg, world, chunk) for chunk in chunks]
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        return list(pool.map(lambda chunk: run_chunk(cfg, world, chunk), chunks))


def _diffuse_chunk(cfg: RunConfig, world: tuple, scenarios: list) -> tuple:
    """Forward-diffuse a chunk of S scenarios at all T --timesteps as one batch.

    Returns its CSV rows, (S, T) in-frustum flags and (S, T, 9) noised vectors.
    """
    sched, norm, scales, box, _, _ = world
    ts = cfg.parse_timesteps()
    K = CameraIntrinsics.stack([sc.intrinsics for sc in scenarios])
    n0 = normalize(Pose.stack([sc.gt_pose for sc in scenarios]), K, norm).as_vector()
    # Each scenario draws one (T, 9) noise block from its own generator.
    eps = np.concatenate([
        scenario_rng(cfg.seed, sc.index, STREAM_DIFFUSE).standard_normal((len(ts), 9))
        for sc in scenarios
    ])
    rows = np.repeat(np.arange(len(scenarios)), len(ts))
    t = np.tile(ts, len(scenarios))
    K = K[rows]
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
    # Rows of Python values, which print as the numpy values do, only faster.
    cols = zip(index.tolist(), t.tolist(), inside.tolist(), n[:, 6:].tolist(), u.tolist(),
               v.tolist())
    csv_rows = [(i, tj, int(ok), *tn, uj, vj) for i, tj, ok, tn, uj, vj in cols]
    return csv_rows, inside.reshape(len(scenarios), -1), n.reshape(len(scenarios), -1, 9)


def cmd_diffuse(cfg: RunConfig) -> int:
    ts = cfg.parse_timesteps()
    chunks = _run_chunks(cfg, _diffuse_chunk)
    all_rows = [row for rows, _, _ in chunks for row in rows]
    inside = np.concatenate([flags for _, flags, _ in chunks])

    summary_t = {}
    for t in dict.fromkeys(ts):
        # A timestep listed more than once pools its columns, scenario by scenario.
        cols = [j for j, tj in enumerate(ts) if tj == t]
        vecs = np.concatenate([n[:, cols] for _, _, n in chunks]).reshape(-1, 9)
        summary_t[str(t)] = {
            "in_frustum_rate": int(inside[:, cols].sum()) / inside[:, cols].size,
            "component_mean": vecs.mean(axis=0).tolist(),
            "component_std": vecs.std(axis=0).tolist(),
        }
    rate = int(inside.sum()) / inside.size

    _write_csv(
        cfg.out + ".csv",
        _metadata(cfg, "diffuse"),
        ["scenario", "t", "in_frustum", "tx_n", "ty_n", "tz_n", "u", "v"],
        all_rows,
    )
    _write_json(
        cfg.out + ".json",
        {
            "metadata": _metadata(cfg, "diffuse"),
            "in_frustum_rate": rate,
            "per_timestep": summary_t,
        },
    )
    print(f"diffuse: in_frustum_rate={rate:.6f} over {len(all_rows)} samples -> {cfg.out}.csv/.json")
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


def _scenario_rows(cfg: RunConfig, index: int, add: float, reason: str, traj, row: int):
    """The estimate CSV row of one scenario and its trajectory CSV rows.

    The scenario is row `row` of the batch trajectory `traj`. An aborted
    scenario has no trajectory rows.
    """
    if reason:
        return (index, float("inf"), 0, cfg.mode, 1, reason), []
    steps = []
    if cfg.trajectories:
        for s in traj.steps:
            R, t = s.pose.R[row], s.pose.t[row]
            steps.append(
                (index, s.index, s.timestep, s.cond_t,
                 R[0, 0], R[0, 1], R[0, 2], t[0],
                 R[1, 0], R[1, 1], R[1, 2], t[1],
                 R[2, 0], R[2, 1], R[2, 2], t[2],
                 s.add[row])
            )
    return (index, add, len(traj), cfg.mode, 0, ""), steps


def _estimate_chunk(cfg: RunConfig, world: tuple, rcfg: ReverseConfig, scenarios: list) -> list:
    """Run one chunk of scenarios as a single lockstep batch.

    Returns `_scenario_rows` for each scenario, in order. Aborts are rows of
    the batch, so an exception here is a fault of the run and propagates.
    """
    sched, norm, scales, _, chain, oracle = world
    record = bool(cfg.trajectories)
    batch = Observation.stack([make_observation(sc, chain, cfg.seed) for sc in scenarios])
    rngs = [scenario_rng(cfg.seed, sc.index, STREAM_ESTIMATE) for sc in scenarios]
    keypoints = np.stack([forward_kinematics(chain, sc.joints) for sc in scenarios])
    if cfg.mode == "direct":
        final, traj = run_direct_regression(
            batch, chain, sched, scales, norm, cfg.ddim_steps + cfg.refine_steps, oracle, rngs,
            init_mode=cfg.init, keypoints=keypoints, record_poses=record,
        )
    else:
        final, traj = run_reverse(
            batch, chain, sched, scales, norm, rcfg, oracle, rngs,
            prev_pose=batch.gt_pose if cfg.mode == "tracking" else None,
            keypoints=keypoints, record_poses=record,
        )
    done = traj.reasons == ""
    adds = np.full(len(scenarios), np.inf)
    adds[done] = add_metric(batch.gt_pose[done], final[done], keypoints[done])
    return [
        _scenario_rows(cfg, sc.index, adds[j], traj.reasons[j], traj, j)
        for j, sc in enumerate(scenarios)
    ]


def cmd_estimate(cfg: RunConfig) -> int:
    rcfg = _estimate_reverse_config(cfg)
    t0 = time.perf_counter()
    chunks = _run_chunks(cfg, lambda cfg, world, chunk: _estimate_chunk(cfg, world, rcfg, chunk))
    results = [result for chunk in chunks for result in chunk]
    elapsed = time.perf_counter() - t0

    rows = [r for r, _ in results]
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

    if cfg.trajectories:
        traj_rows = [step for _, steps in results for step in steps]
        _write_csv(
            cfg.trajectories,
            _metadata(cfg, "estimate"),
            ["scenario", "step", "timestep", "cond_t",
             "r00", "r01", "r02", "tx", "r10", "r11", "r12", "ty",
             "r20", "r21", "r22", "tz", "add"],
            traj_rows,
        )

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
    obs = Observation.stack([make_observation(sc, chain, cfg.seed) for sc in scenarios])
    rngs = [scenario_rng(cfg.seed, sc.index, STREAM_TRAINSIM) for sc in scenarios]
    points = np.stack([sample_points(chain, sc.joints, cfg.per_link) for sc in scenarios])
    draws = []
    for _ in range(cfg.draws):
        t = np.array([sample_timestep(sched, rng) for rng in rngs])
        pose_t = diffuse(
            obs.gt_pose, t, sched, scales, box, obs.intrinsics, norm, rngs, clamp=cfg.clamp
        )
        pred = oracle.predict(pose_t, t, obs, rngs)
        draws.append((t, *decomposed_loss(obs.gt_pose, pose_t, pred, points, obs.intrinsics)))
    return np.array(draws, dtype=float).transpose(2, 0, 1).reshape(-1, 5)


def cmd_trainsim(cfg: RunConfig) -> int:
    arr = np.concatenate(_run_chunks(cfg, _trainsim_chunk))
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


def load_config(args: argparse.Namespace) -> RunConfig:
    values = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_values = json.load(fh)
        valid = {f.name for f in dataclasses.fields(RunConfig)}
        unknown = set(file_values) - valid
        if unknown:
            raise InvalidConfig(f"config file: unknown fields {sorted(unknown)}")
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
    except (PoseDiffError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command](cfg)
    except PoseDiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # A scenario abort is a failed run, not a bad configuration.
        return 1 if isinstance(exc, ABORTS) else 2


if __name__ == "__main__":
    raise SystemExit(main())
