"""Command-line harness: seeded experiments with CSV/JSON outputs.

The subcommands are schedule, diffuse, estimate and trainsim; the docstring of each
`cmd_*` function is its --help. Each writes its CSVs and returns its JSON summary (None
for schedule) and its stdout line; `main` writes the summary under the run's metadata,
prints the line and chooses the exit code. Every output starts from a RunConfig (defaults ->
optional JSON config file -> command-line flags) and embeds a metadata block (full
config, seed, package version, RNG scheme) sufficient to reproduce the run. Each
RunConfig field is declared once, with the subcommands that read it: only they register
its flag and check its value, and a flag that the run's mode or denoiser does not read
is rejected. Outputs are byte-identical for identical configs, including under --workers
parallelism, because every scenario draws from its own (seed, index, stream) generator.
Wall-clock timing is therefore opt-in (--timing).

Exit codes: 0 success; 1 scenario aborts or failed embedded checks;
2 configuration errors, reported in one `error: ...` line.

CSV columns are documented in FORMATS.md and in each subcommand's --help.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import math
import os
import sys
import time
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import __version__
from .denoising import Observation, decomposed_loss, parse_denoiser, parse_denoiser_spec
from .errors import ABORTS, InvalidConfig, InvalidScheduleParams, PoseDiffError
from .forward_diffusion import (
    FrustumBox,
    NoiseScales,
    diffuse,
    diffuse_normalized,
    make_linear_schedule,
    sample_timestep,
)
from .metrics import (
    AUC_GRID,
    FOCAL_RANGE,
    IMAGE_SIZES,
    STREAM_DIFFUSE,
    STREAM_ESTIMATE,
    STREAM_TRAINSIM,
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
from .robot_chain import ChainSpec, JointConfig, forward_kinematics, sample_points
from .se3_camera import in_frustum

RNG_SCHEME = "numpy default_rng seeded with [seed, scenario_index, stream]"

# Fewest scenarios per --workers chunk. A chunk's cost per step is mostly
# numpy call overhead, which does not shrink with its length, so splitting
# off a tiny chunk adds calls and saves nothing.
MIN_CHUNK = 8
# Most scenarios per chunk, and most batch rows per chunk (a `diffuse` scenario is one row
# per timestep, every other subcommand's one row), so that each worker holds one chunk's
# scenarios and batch arrays, whatever --scenarios is. What a run keeps for its summary
# still grows with it: `estimate`'s per-scenario results, `diffuse`'s noised vectors and
# `trainsim`'s losses.
MAX_CHUNK = 256
MAX_BATCH_ROWS = 4096


# Subcommand groups, checks and `unread` pairs that several RunConfig fields share (see
# `_field`). Tracking makes one step to t = 0, where alpha_bar = 1 leaves the DDIM radicand
# at most 0, clamped to 0; direct regression reads only the start of the reverse loop.
ALL = ("schedule", "diffuse", "estimate", "trainsim")
SCENE = ("diffuse", "estimate", "trainsim")  # the subcommands that draw scenarios
REVERSE = ("schedule", "estimate")  # the subcommands that take DDIM steps
POSITIVE = (lambda v, c: v > 0, "must be positive")
AT_LEAST_0 = (lambda v, c: v >= 0, "must be >= 0")
AT_LEAST_1 = (lambda v, c: v >= 1, "must be >= 1")
DDIM_ONLY = (lambda c, cmd: cmd == "estimate" and c.mode != "ddim", "not read by --mode {mode}")
NOT_TRACKING = (lambda c, cmd: c.mode == "tracking", "not read by --mode tracking")
# The JSON types a config file may give a field, by its default's type (None: a string or
# null). They are matched exactly, so that a JSON true is not taken for an int.
FILE_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,),
              type(None): (str, type(None))}


def _field(default, commands: tuple, help: str, *checks: tuple, choices=None, unread=()):
    """A RunConfig field, declared once for its flag, config-file type and checks.

    Only `commands` register its flag, typed as `default` (str for None), and read it, unless
    one of its `unread` `(predicate(cfg, command), message)` pairs holds. For a run that reads it,
    `validate` checks a float is finite, then `choices`, then each
    `(predicate(value, cfg), message)`, which follows the fields it reads. Messages take the
    config's fields."""
    kind = str if default is None else type(default)
    if choices:
        checks = ((lambda v, c: v in choices, f"must be one of {choices}"), *checks)
    if kind is float:
        # A config file's int may lie past float range, where math.isfinite raises.
        checks = ((lambda v, c: abs(v) <= sys.float_info.max, "must be finite"), *checks)
    flag = {"default": None, "help": f"{help} (default: {default})"}
    flag.update({"action": argparse.BooleanOptionalAction} if kind is bool
                else {"type": kind, "choices": choices})
    return dataclasses.field(default=default, metadata=dict(
        commands=commands, flag=flag, checks=checks, file_types=FILE_TYPES[type(default)],
        unread=unread))


def _unread(cfg: "RunConfig", f: dataclasses.Field, command: str) -> str | None:
    """Why `command`, run with `cfg`, does not read field `f`, or None if it does."""
    if command not in f.metadata["commands"]:
        return f"not read by {command}"
    for holds, message in f.metadata["unread"]:
        if holds(cfg, command):
            return message.format_map(vars(cfg))
    return None


def _writable(path: str) -> bool:
    """Whether a file at `path` can be made: it is not a directory, and its directory exists
    and is writable. Checked before any output is computed, so a bad path leaves no file."""
    folder = os.path.dirname(os.path.abspath(path))
    return os.path.isdir(folder) and os.access(folder, os.W_OK) and not os.path.isdir(path)


@dataclass
class RunConfig:
    """All harness knobs; validated before any work starts."""

    steps: int = _field(100, ALL, "diffusion steps T", AT_LEAST_1)
    beta_start: float = _field(1e-4, ALL, "first beta of the linear schedule")
    beta_end: float = _field(0.02, ALL, "last beta of the linear schedule", (
        lambda v, c: 0 < c.beta_start <= v < 1, "need 0 < beta_start <= beta_end < 1"))
    z_min: float = _field(0.3, SCENE, "nearest depth of the frustum box, meters")
    z_max: float = _field(3.0, SCENE, "farthest depth of the frustum box, meters")
    # `_build_world` checks 0 < z_min < cz < z_max, as NormConfig requires, for the
    # subcommands that draw scenarios.
    cz: float = _field(1.5, SCENE, "depth normalization offset, meters")
    gamma: float = _field(3.0, SCENE, "k-sigma containment multiplier", POSITIVE)
    margin: float = _field(0.05, SCENE, "frustum margin as an image fraction",
                           (lambda v, c: 0 <= v < 0.5, "must be in [0, 0.5)"))
    # `sigma_squared` takes eta**2, which raises OverflowError past sqrt(max float).
    eta: float = _field(1.0, REVERSE, "DDIM noise scale", AT_LEAST_0, (
        lambda v, c: v <= math.sqrt(sys.float_info.max), "its square must be finite"),
        unread=(DDIM_ONLY,))
    ddim_steps: int = _field(5, ("estimate",), "scheduled reverse steps", (
        lambda v, c: 1 <= v <= c.steps, "need 1 <= ddim_steps <= steps"), unread=(NOT_TRACKING,))
    refine_steps: int = _field(5, ("estimate",), "refinement steps, conditioned on t = 1",
                               AT_LEAST_0, unread=(NOT_TRACKING,))
    # At eta = 0 both sigma forms give sigma = 0.
    sigma_form: str = _field("paper", REVERSE, "DDIM sigma form", choices=SIGMA_FORMS, unread=(
        DDIM_ONLY, (lambda c, cmd: c.eta == 0, "not read with --eta 0")))
    denoiser: str = _field("perfect", ("estimate", "trainsim"), "perfect | noisy:S0 | biased:PX")
    # Only a noisy oracle with a noise level above 0 limits its corrections.
    competence: float = _field(
        3.0, ("estimate", "trainsim"), "noisy oracle's correction range, k-sigma units",
        POSITIVE, unread=((lambda c, cmd: parse_denoiser_spec(c.denoiser)[0] != "noisy"
                           or parse_denoiser_spec(c.denoiser)[1] == 0,
                           "not read by --denoiser {denoiser}"),))
    mode: str = _field("ddim", ("estimate",), "estimator", choices=MODES)
    init: str = _field("canonical", ("estimate",), "start of the reverse loop", choices=INIT_MODES,
                       unread=(NOT_TRACKING,))
    scenarios: int = _field(100, SCENE, "scenarios in the run", AT_LEAST_1)
    seed: int = _field(0, ALL, "run seed, recorded in every output", AT_LEAST_0)
    clamp: bool = _field(True, ("diffuse", "trainsim"), "clamp diffused poses into the frustum box")
    # "all" is range(1, steps + 1), in range by construction; it is checked before
    # `_build_world` bounds steps, so no check here may iterate it.
    timesteps: str = _field("1,25,50,75,100", ("diffuse",), 'comma list of timesteps, or "all"',
                            (lambda v, c: bool(c.parse_timesteps()), "the list is empty"),
                            (lambda v, c: isinstance(ts := c.parse_timesteps(), range)
                             or all(1 <= t <= c.steps for t in ts),
                             "values must lie in [1, {steps}]"))
    draws: int = _field(1, ("trainsim",), "draws per scenario", AT_LEAST_1)
    per_link: int = _field(9, ("trainsim",), "loss points sampled per link", AT_LEAST_1)
    chain: str | None = _field(None, SCENE, "ChainSpec JSON file; none is the default arm")
    out: str = _field("run", ALL, "output path prefix", (
        lambda v, c: _writable(v + ".csv") and _writable(v + ".json"),
        "{out!r}.csv/.json: the directory is missing or not writable, or the path is one"))
    trajectories: str | None = _field(
        None, ("estimate",), "also write the per-step trajectory CSV here",
        (lambda v, c: v is None or _writable(v),
         "{trajectories!r}: the directory is missing or not writable, or the path is one"),
        (lambda v, c: v is None or os.path.abspath(v) not in
         [os.path.abspath(c.out + ext) for ext in (".csv", ".json")],
         "{trajectories!r} is also an --out file"))
    workers: int = _field(1, SCENE, "threads, each running a chunk of scenarios", AT_LEAST_1)
    timing: bool = _field(False, ("estimate",), "put wall-clock times in the JSON (varies by run)")

    def validate(self, command: str | None = None) -> "RunConfig":
        """Check as declared each field that `command` reads (each field, without one); `main`
        then builds the world, which checks the rest."""
        for f in dataclasses.fields(self):
            if command and _unread(self, f, command):
                continue
            for ok, msg in f.metadata["checks"]:
                if not ok(getattr(self, f.name), self):
                    raise InvalidConfig(f"{f.name}: {msg.format_map(vars(self))}")
        return self

    def parse_timesteps(self) -> list[int] | range:
        """The --timesteps list, `all` as range(1, steps + 1), which holds no list; its field's
        checks give emptiness and the range."""
        if self.timesteps.strip().lower() == "all":
            return range(1, self.steps + 1)
        try:
            return [int(x) for x in self.timesteps.split(",") if x.strip()]
        except ValueError as exc:
            raise InvalidConfig(f"timesteps: not a comma-separated int list: {exc}") from exc


def _build_world(cfg: RunConfig, command: str | None = None) -> tuple:
    """Shared wiring: schedule, normalization, scales, box, chain, oracle. Only the parts that
    `command` reads are built (each, without one), so a config file's other fields cannot fail
    it: `schedule` gets the schedule alone, and `diffuse` gets None for the oracle."""
    try:
        sched = make_linear_schedule(cfg.steps, cfg.beta_start, cfg.beta_end)
    except InvalidScheduleParams as exc:
        raise InvalidConfig(f"steps/beta_start/beta_end: {exc}") from exc
    except (ValueError, IndexError, MemoryError) as exc:
        # numpy's own errors for a length it cannot allocate or index.
        raise InvalidConfig(f"steps: no schedule of this length can be built: {exc}") from exc
    if command is not None and command not in SCENE:
        return (sched,)
    try:
        norm = NormConfig(c_z=cfg.cz, z_min=cfg.z_min, z_max=cfg.z_max)
    except ValueError as exc:
        raise InvalidConfig(f"cz: {exc}") from exc
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
    if command is None or not _unread(cfg, RunConfig.__dataclass_fields__["per_link"], command):
        try:
            sample_points(chain, JointConfig.zeros(chain.n_joints), cfg.per_link)
        except (ValueError, MemoryError) as exc:
            # numpy's own errors for a point count it cannot allocate, and sample_points' for
            # one that numpy miscounts.
            raise InvalidConfig(f"per_link: no loss point set of this size can be built: "
                                f"{exc}") from exc
    oracle = None
    if command is None or not _unread(cfg, RunConfig.__dataclass_fields__["denoiser"], command):
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


def _percentile(ordered: np.ndarray, q: float) -> float:
    """`np.percentile(values, q)` of the values `ordered` sorts, by its `linear` method's
    arithmetic: without the `numpy.ma` import that np.percentile's first call makes."""
    if math.isnan(ordered[-1]):  # a NaN sorts last, and np.percentile returns it
        return float(ordered[-1])
    i = (len(ordered) - 1) * (q / 100)
    lo = math.floor(i)
    a, b = ordered[lo], ordered[min(lo + 1, len(ordered) - 1)]
    gamma = i - lo
    diff = b - a
    return float(b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma)


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Rank correlation of small bin summaries; tied values are ranked in order."""
    rx = np.argsort(np.argsort(x)).astype(float)
    ry = np.argsort(np.argsort(y)).astype(float)
    return float(np.corrcoef(rx, ry)[0, 1])


def cmd_schedule(cfg: RunConfig, world: tuple, meta: dict) -> tuple:
    """Dump the noise schedule; CSV columns: t, beta, alpha_bar, sigma."""
    sched, *_ = world
    rows = []
    for t in range(1, cfg.steps + 1):
        s2 = sigma_squared(sched, t, t - 1, cfg.eta, cfg.sigma_form)
        rows.append((t, sched.beta[t - 1], sched.alpha_bar[t], float(np.sqrt(s2))))
    _write_csv(
        cfg.out + ".csv", meta, ["t", "beta", "alpha_bar", "sigma"], rows
    )
    return None, f"schedule: wrote {cfg.steps} rows to {cfg.out}.csv"


def _chunks(items, workers: int, rows: int = 1) -> list:
    """`items` (a list or a range) split into contiguous chunks of near-equal length: one
    per worker while each keeps MIN_CHUNK items, and more where needed to keep every chunk
    within MAX_CHUNK items and, at `rows` batch rows per item, within MAX_BATCH_ROWS rows
    (an item of more rows is a chunk alone)."""
    cap = max(1, min(MAX_CHUNK, MAX_BATCH_ROWS // rows))
    n = max(1, min(workers, len(items) // MIN_CHUNK), -(-len(items) // cap))
    bounds = [len(items) * k // n for k in range(n + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _run_chunks(cfg: RunConfig, world: tuple, run_chunk, rows: int = 1) -> Iterator:
    """`run_chunk(cfg, world, scenarios)` for each `_chunks` range of the run's scenario
    indices, at `rows` batch rows per scenario, in order as the caller reaches it, on a
    thread pool with --workers > 1. Each chunk draws its own scenarios where it runs, inside
    the world's frustum box, which `main` built before any output; so a run holds only the
    chunks in flight, whatever --scenarios is."""
    _, norm, _, box, chain, _ = world

    def run(indices: range):
        scen = generate_scenarios(cfg.seed, len(indices), box, chain, norm, start=indices.start)
        return run_chunk(cfg, world, scen.scenarios)

    chunks = _chunks(range(cfg.scenarios), cfg.workers, rows)
    if cfg.workers <= 1:
        return map(run, chunks)
    return _pool_map(run, chunks, cfg.workers)


def _pool_map(fn, items: list, workers: int) -> Iterator:
    """`map(fn, items)` on `workers` threads with at most `workers` items in flight,
    so that memory holds those results and the one being consumed, not all of them.
    Only --workers > 1 starts a pool, so only such a run imports `concurrent.futures`."""
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        in_flight = collections.deque(pool.submit(fn, item) for item in items[:workers])
        for item in items[workers:]:
            yield in_flight.popleft().result()
            in_flight.append(pool.submit(fn, item))
        while in_flight:
            yield in_flight.popleft().result()


def _stream_rows(results: Iterator, keep) -> Iterator:
    """The rows that end each chunk result, one by one as the caller consumes them, so that
    a chunk runs only when its rows are reached; the rest of each result goes to `keep`."""
    for *rest, rows in results:
        keep(rest)
        yield from rows


def _diffuse_chunk(cfg: RunConfig, world: tuple, scenarios: list) -> tuple:
    """Forward-diffuse a chunk of S scenarios at all T --timesteps as one batch.

    Returns its (S, T) in-frustum flags, (S, T, 9) noised vectors and CSV rows (one pass).
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
    # Rows behind the camera or with a degenerate rotation are recorded in `reasons`
    # instead of raising. in_frustum reads only the translation, so only the rows
    # behind the camera always count as outside.
    reasons = np.full(len(n), "", dtype=object)
    with np.errstate(all="ignore"):
        pose = denormalize(NormalizedPose.from_vector(n), K, norm, reasons)
    inside = in_frustum(pose, K, cfg.margin, (norm.z_min, norm.z_max))
    behind = pose.t[:, 2] <= 0
    u = np.where(behind, np.nan, K.w * n[:, 6] + K.cx)
    v = np.where(behind, np.nan, K.h * n[:, 7] + K.cy)
    index = batch.index[rows]
    # Columns of Python values, which print as the numpy values do, only faster.
    cols = (index, t, inside.astype(int), n[:, 6], n[:, 7], n[:, 8], u, v)
    csv_rows = zip(*(col.tolist() for col in cols))
    return inside.reshape(len(scenarios), -1), n.reshape(len(scenarios), -1, 9), csv_rows


def cmd_diffuse(cfg: RunConfig, world: tuple, meta: dict) -> tuple:
    """Forward-diffuse scenario poses; CSV columns: scenario, t, in_frustum, tx_n, ty_n,
    tz_n, u, v."""
    ts = cfg.parse_timesteps()
    # Each chunk's (flags, vectors), for the summary, kept as the chunk's own arrays of at
    # most MAX_BATCH_ROWS rows. One (S, T, 9) array of the whole run passes 4 MiB from 58k
    # samples, the size from which numpy advises the kernel to back it with huge pages; a
    # huge-page fault costs what the machine's free memory makes it cost, so run times
    # would vary from one run to the next.
    kept = []
    _write_csv(
        cfg.out + ".csv",
        meta,
        ["scenario", "t", "in_frustum", "tx_n", "ty_n", "tz_n", "u", "v"],
        _stream_rows(_run_chunks(cfg, world, _diffuse_chunk, len(ts)), kept.append),
    )
    inside = np.concatenate([flags for flags, _ in kept])
    # A timestep listed more than once pools its columns, scenario by scenario.
    columns = {}
    for j, t in enumerate(ts):
        columns.setdefault(t, []).append(j)
    summary_t = {}
    for t, cols in columns.items():
        # One timestep's column of every chunk is a view, so the gather costs one basic
        # index per chunk even when many small chunks hold many timesteps.
        pooled = np.stack([np.concatenate([n[:, j] for _, n in kept]) for j in cols],
                          axis=1).reshape(-1, 9)
        summary_t[str(t)] = {
            "in_frustum_rate": int(inside[:, cols].sum()) / inside[:, cols].size,
            "component_mean": pooled.mean(axis=0).tolist(),
            "component_std": pooled.std(axis=0).tolist(),
        }
    rate = int(inside.sum()) / inside.size
    summary = {"in_frustum_rate": rate, "per_timestep": summary_t}
    return summary, (f"diffuse: in_frustum_rate={rate:.6f} over {inside.size} samples "
                     f"-> {cfg.out}.csv/.json")


def _estimate_reverse_config(cfg: RunConfig) -> ReverseConfig:
    """The reverse loop of `cfg.mode`. Tracking, one scheduled step from its start, the previous
    estimate, reads no init and is given "canonical". A run that does not read eta or
    sigma_form (see their `unread` pairs) is given 0 or "paper", with which its steps are the
    same."""
    tracking, ddim = cfg.mode == "tracking", cfg.mode == "ddim"
    return ReverseConfig(
        ddim_steps=1 if tracking else cfg.ddim_steps,
        refine_steps=0 if tracking else cfg.refine_steps,
        eta=cfg.eta if ddim else 0.0,
        init_mode="canonical" if tracking else cfg.init,
        sigma_form=cfg.sigma_form if ddim and cfg.eta != 0 else "paper",
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


def _estimate_chunk(cfg: RunConfig, world: tuple, scenarios: list) -> tuple:
    """Run one chunk of scenarios as a single lockstep batch.

    Returns the estimate CSV row of each scenario, in order, and the chunk's trajectory
    CSV rows (none without --trajectories or for an aborted scenario). Aborts are rows
    of the batch, so an exception here is a fault of the run and propagates.
    """
    sched, norm, scales, _, chain, oracle = world
    rcfg = _estimate_reverse_config(cfg)
    batch = Observation.stack([make_observation(sc, chain, cfg.seed) for sc in scenarios])
    rngs = [scenario_rng(cfg.seed, sc.index, STREAM_ESTIMATE) for sc in scenarios]
    keypoints = np.stack([forward_kinematics(chain, sc.joints) for sc in scenarios])
    if cfg.mode == "direct":
        _, traj = run_direct_regression(
            batch, chain, sched, scales, norm, cfg.ddim_steps + cfg.refine_steps, oracle, rngs,
            rcfg=rcfg, keypoints=keypoints,
        )
    else:
        _, traj = run_reverse(
            batch, chain, sched, scales, norm, rcfg, oracle, rngs,
            prev_pose=batch.gt_pose if cfg.mode == "tracking" else None,
            keypoints=keypoints,
        )
    done = traj.reasons == ""
    adds = np.where(done, traj.steps[-1].add, np.inf)
    index = batch.index.tolist()
    rows = [
        (i, add, len(traj) if ok else 0, cfg.mode, int(not ok), reason)
        for i, add, ok, reason in zip(index, adds.tolist(), done.tolist(), traj.reasons)
    ]
    return rows, _trajectory_rows(traj, batch.index, done) if cfg.trajectories else ()


def cmd_estimate(cfg: RunConfig, world: tuple, meta: dict) -> tuple:
    """Run reverse estimation; CSV columns: scenario, add, steps, mode, aborted, reason."""
    import statistics  # only here, so that no other subcommand loads it

    t0 = time.perf_counter()
    kept = []  # each chunk's estimate rows, for the CSV and the summary
    traj = _stream_rows(_run_chunks(cfg, world, _estimate_chunk), kept.append)
    if cfg.trajectories:
        _write_csv(
            cfg.trajectories,
            meta,
            ["scenario", "step", "timestep", "cond_t",
             "r00", "r01", "r02", "tx", "r10", "r11", "r12", "ty",
             "r20", "r21", "r22", "tz", "add"],
            traj,
        )
    collections.deque(traj, maxlen=0)  # runs the chunks that no trajectory CSV consumed
    elapsed = time.perf_counter() - t0
    rows = [row for (chunk_rows,) in kept for row in chunk_rows]

    adds = [r[1] for r in rows]
    aborted = sum(r[4] for r in rows)
    finite = [a for a in adds if np.isfinite(a)]
    summary = {
        "auc": auc(adds),
        "auc_grid": AUC_GRID,
        "mean_add": float(np.mean(finite)) if finite else float("inf"),
        # `statistics.median` gives np.median's value on these non-negative
        # floats without importing `numpy.ma`, which np.median's first call does.
        "median_add": statistics.median(finite) if finite else float("inf"),
        "scenarios": cfg.scenarios,
        "aborted": aborted,
        "abort_reasons": sorted({r[5] for r in rows if r[4]}),
    }
    if cfg.timing:
        summary["runtime_seconds"] = elapsed
        summary["scenarios_per_second"] = cfg.scenarios / elapsed if elapsed > 0 else None

    _write_csv(
        cfg.out + ".csv",
        meta,
        ["scenario", "add", "steps", "mode", "aborted", "reason"],
        rows,
    )
    return summary, (f"estimate[{cfg.mode}/{cfg.denoiser}]: AUC={summary['auc']:.3f} "
                     f"mean_add={summary['mean_add']:.3e} aborted={aborted} "
                     f"({elapsed:.2f}s) -> {cfg.out}.csv/.json")


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


def cmd_trainsim(cfg: RunConfig, world: tuple, meta: dict) -> tuple:
    """Simulate the training loop; JSON loss statistics only."""
    arr = np.concatenate(list(_run_chunks(cfg, world, _trainsim_chunk)))
    n_bins = min(10, cfg.steps)
    edges = np.linspace(1, cfg.steps + 1, n_bins + 1)
    bins = []
    for b in range(n_bins):
        mask = (arr[:, 0] >= edges[b]) & (arr[:, 0] < edges[b + 1])
        chunk = arr[mask]
        if chunk.size == 0:
            continue
        total = np.sort(chunk[:, 4])
        bins.append({
            "t_lo": int(np.ceil(edges[b])),
            "t_hi": int(np.ceil(edges[b + 1]) - 1),
            "count": int(chunk.shape[0]),
            "mean_xy": float(chunk[:, 1].mean()),
            "mean_rot": float(chunk[:, 2].mean()),
            "mean_z": float(chunk[:, 3].mean()),
            "mean_total": float(chunk[:, 4].mean()),
            "p50_total": _percentile(total, 50),
            "p90_total": _percentile(total, 90),
        })

    summary = {
        "samples": int(arr.shape[0]),
        "mean_total": float(arr[:, 4].mean()),
        "max_total": float(arr[:, 4].max()),
        "bins": bins,
        "spearman_t_vs_total": _spearman(np.array([b["t_lo"] for b in bins]),
                                         np.array([b["mean_total"] for b in bins]))
        if len(bins) > 1
        else None,
    }
    return summary, (f"trainsim[{cfg.denoiser}]: {arr.shape[0]} samples, "
                     f"mean_total={summary['mean_total']:.3e} -> {cfg.out}.json")


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a bad command line as one line, not the usage block."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="posediff",
        description="Visibility-constrained SE(3) pose diffusion harness",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.__doc__, description=command.__doc__)
        p.add_argument("--config", help="JSON file with RunConfig fields; flags override it")
        for f in dataclasses.fields(RunConfig):
            if name in f.metadata["commands"]:
                p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, **f.metadata["flag"])
    return parser


def load_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the --config file, then the flags given. After the value checks, a
    flag for a field that the run does not read is rejected; a file may set any field."""
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    values = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            values = json.load(fh)
        if not isinstance(values, dict):
            raise InvalidConfig("config file: the top level must be a JSON object")
        unknown = set(values) - set(fields)
        if unknown:
            raise InvalidConfig(f"config file: unknown fields {sorted(unknown)}")
        for name, value in values.items():
            f = fields[name]
            if type(value) not in f.metadata["file_types"]:
                raise InvalidConfig(f"{name}: expected {f.type}, got {json.dumps(value)}")
    flags = [f for f in fields.values() if getattr(args, f.name, None) is not None]
    values.update((f.name, getattr(args, f.name)) for f in flags)
    cfg = RunConfig(**values).validate(args.command)
    for f in flags:
        why = _unread(cfg, f, args.command)
        if why:
            raise InvalidConfig(f"{f.name}: {why}")
    return cfg


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
        world = _build_world(cfg, args.command)
    except (PoseDiffError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    meta = _metadata(cfg, args.command)
    try:
        summary, line = COMMANDS[args.command](cfg, world, meta)
    except PoseDiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # A scenario abort is a failed run, not a bad configuration.
        return 1 if isinstance(exc, ABORTS) else 2
    if summary is not None:
        _write_json(cfg.out + ".json", {"metadata": meta, **summary})
    print(line)
    return 1 if summary is not None and summary.get("aborted", 0) > 0 else 0


if __name__ == "__main__":
    raise SystemExit(main())
