"""posediff benchmark: end-to-end metrics of CLI workloads, or a traced pass.

Run from the repository root; the program is imported from `src/`:

    python3 bench/run.py                                 # every workload, seed 7
    python3 bench/run.py --workload estimate-ddim --seed 3
    python3 bench/run.py --workload diffuse-all --trace 1   # per-layer metrics

Every workload is a closed loop of one client: one CLI process at a time,
each run to completion, repeated until `--seconds` is used (by default
`run_seconds` of BENCHMARK.json). `--trace 0` reports the end-to-end
metrics (medians over the runs); `--trace 1` runs the workload untraced,
then once under `tracer.py`, and reports per-layer metrics. Every run's
outputs are checked. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the exit code is 1
when any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import tracer
from workloads import REFERENCE_SEED, WORKLOADS, Workload, check

# Runs per measurement: enough for a median even when --seconds is short.
MIN_RUNS = 3
# Set-up runs after each CLI run. Spread over the whole window rather than
# run back to back, they sample the machine's speed as the CLI runs do.
SETUP_PER_RUN = 2
# A CLI run takes seconds; one still running after this is killed.
CHILD_TIMEOUT_S = 120
# The output prefix, relative to the run's working directory. Traced and
# untraced runs use the same string because the CSV embeds it.
OUT = "out"

# A timed run: `python -m posediff.cli` that also writes the process's peak
# RSS to PEAK_FILE at exit. The peak comes from VmHWM, which covers only the
# process image after exec. A child's ru_maxrss would not do: the kernel
# carries the spawning process's peak RSS into it at exec, and this process
# grows by the outputs it parses.
PEAK_FILE = "peak_rss_kb"
CLI_CODE = (
    "import atexit, runpy\n"
    "def peak():\n"
    "    with open('/proc/self/status', encoding='ascii') as fh:\n"
    "        kb = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))\n"
    f"    with open({PEAK_FILE!r}, 'w', encoding='ascii') as fh:\n"
    "        fh.write(kb)\n"
    "atexit.register(peak)\n"
    "runpy.run_module('posediff.cli', run_name='__main__', alter_sys=True)\n"
)

SETUP_CODE = (
    "import sys\n"
    "from posediff.cli import build_parser, load_config\n"
    "load_config(build_parser().parse_args(sys.argv[1:]))\n"
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "scenarios_per_s": "1/s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    code: int
    stderr: str


def run_child(argv: list[str], cwd: Path) -> ChildRun:
    """Run one child to completion; time it from spawn to exit, with its CPU time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(cwd / "stderr.txt", "w+", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return ChildRun(wall, usage.ru_utime + usage.ru_stime, proc.returncode, stderr)


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


class Session:
    """The runs of one workload at one seed, with their output checks."""

    def __init__(self, wl: Workload, seed: int, workdir: Path):
        self.wl, self.seed, self.workdir = wl, seed, workdir
        self.outputs = [workdir / p for p in wl.outputs(OUT)]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.checked_digest: str | None = None
        self.peak_rss_mb: list[float] = []

    def verify(self, run: ChildRun) -> None:
        """Count the run's scenarios, and the failed ones among them."""
        self.attempted += self.wl.scenarios
        if run.code != 0 and not (run.code == 1 and self.wl.kind == "estimate"):
            self.failed += self.wl.scenarios
            self.problems.append(f"exit code {run.code}: {run.stderr.strip()[-300:]}")
            return
        # Reruns are byte-identical by contract, so a run whose bytes match an
        # already checked run needs no second parse.
        current = digest(self.outputs) if all(p.exists() for p in self.outputs) else None
        if current is not None and current == self.checked_digest:
            return
        result = check(self.wl, str(self.workdir / OUT), self.seed)
        self.failed += result.failed
        self.problems.extend(result.problems)
        if result.failed == 0 and not result.problems:
            self.checked_digest = current

    def cli_argv(self) -> list[str]:
        return self.wl.argv(self.seed, OUT)

    def timed_runs(self, deadline: float, setup: list[float] | None = None) -> list[ChildRun]:
        """Untraced CLI runs, at least MIN_RUNS, until the next would pass `deadline`.

        Each run's peak RSS in MB is added to `self.peak_rss_mb`. With a
        `setup` list, SETUP_PER_RUN set-up times are added to it after each
        CLI run.
        """
        runs = []
        peak = self.workdir / PEAK_FILE
        while True:
            # A run that leaves no outputs must not pass on an earlier run's files.
            for p in [*self.outputs, peak]:
                p.unlink(missing_ok=True)
            run = run_child(["-c", CLI_CODE, *self.cli_argv()], self.workdir)
            self.verify(run)
            runs.append(run)
            if peak.exists():
                self.peak_rss_mb.append(int(peak.read_text(encoding="ascii")) / 1024.0)
            else:
                self.problems.append("a CLI run did not report its peak RSS")
            if setup is not None:
                setup.extend(self.setup_time() for _ in range(SETUP_PER_RUN))
            now = time.monotonic()
            expected = statistics.mean(r.wall_s for r in runs)
            if len(runs) >= MIN_RUNS and now + expected > deadline:
                return runs

    def setup_time(self) -> float:
        run = run_child(["-c", SETUP_CODE, *self.cli_argv()], self.workdir)
        if run.code != 0:
            self.problems.append(f"set-up exited {run.code}: {run.stderr.strip()[-300:]}")
        return run.wall_s


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end(session: Session, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics (medians) and their samples."""
    deadline = time.monotonic() + seconds
    session.setup_time()  # warm the bytecode and file caches
    setup = []
    runs = session.timed_runs(deadline, setup)
    setup_s = statistics.median(setup)
    n = session.wl.scenarios
    samples = {
        "wall_s": [r.wall_s for r in runs],
        "scenarios_per_s": [n / (r.wall_s - setup_s) for r in runs],
        "setup_s": setup,
        "cpu_s": [r.cpu_s for r in runs],
        # Empty only when no run reported it, which is already a failed check.
        "peak_rss_mb": session.peak_rss_mb or [0.0],
    }
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    metrics["ok_frac"] = 1.0 - session.failed / session.attempted
    return metrics, samples


def per_layer(session: Session, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics from one traced run, after untraced runs for comparison."""
    runs = session.timed_runs(time.monotonic() + seconds)
    untraced = digest(session.outputs) if session.checked_digest else None
    for p in session.outputs:
        p.unlink(missing_ok=True)
    spans_path = session.workdir / "spans.jsonl"
    traced = run_child([str(BENCH / "tracer.py"), str(spans_path), *session.cli_argv()],
                       session.workdir)
    session.verify(traced)
    if not spans_path.exists():
        return {}, {}
    if untraced is None or digest(session.outputs) != untraced:
        session.failed += session.wl.scenarios
        session.problems.append("traced outputs differ from untraced outputs")
    header, spans = tracer.load_spans(str(spans_path))
    written = sum(p.stat().st_size for p in session.outputs)
    metrics = tracer.aggregate(spans, header["main_s"], written)
    untraced_wall = statistics.median(r.wall_s for r in runs)
    metrics["cli.cpu_per_wall"] = statistics.median(r.cpu_s / r.wall_s for r in runs)
    metrics["trace.overhead_frac"] = (traced.wall_s - header["dump_s"]) / untraced_wall - 1.0
    return metrics, {"wall_s": [r.wall_s for r in runs], "traced_wall_s": [traced.wall_s]}


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_context(seed: int) -> dict:
    import numpy

    threads_env = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {k: os.environ.get(k) for k in threads_env},
        "git_commit": _git_commit(),
        "seed": seed,
    }


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> tuple[Session, dict]:
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=ROOT / ".bench_work"))
    try:
        session = Session(wl, seed, workdir)
        metrics, samples = (per_layer if trace else end_to_end)(session, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = tracer.UNITS if trace else END_TO_END_UNITS
    print(f"== {wl.name} (seed {seed}): {' '.join(wl.argv(seed, OUT))}")
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        print(f"   samples {name}: n={len(values)} median={med:.6g} q1={q1:.6g} q3={q3:.6g}")
    for name, value in metrics.items():
        print(f"   {name} = {value:.6g} {units[name]}")
    print(f"   failed_frac = {session.failed / session.attempted:.6g} ratio "
          f"({session.failed} of {session.attempted} scenarios)")
    for problem in session.problems[:20]:
        print(f"   CHECK FAILED: {problem}")
    return session, metrics


def run_seconds() -> float:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)["run_seconds"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=run_seconds(),
                        help="measuring time per workload (at least %d CLI runs)" % MIN_RUNS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "posediff" / "cli.py").is_file():
        print(f"error: no posediff sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    (ROOT / ".bench_work").mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    context = run_context(args.seed)
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in names:
        session, wl_metrics = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        attempted += session.attempted
        failed += session.failed
        correct = correct and session.failed == 0 and not session.problems
        if args.workload == "all":
            wl_metrics = {f"{name}/{k}": v for k, v in wl_metrics.items()}
        metrics.update(wl_metrics)
    units = tracer.UNITS if args.trace else END_TO_END_UNITS
    print("context: " + json.dumps(context, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k.rsplit("/", 1)[-1]]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
