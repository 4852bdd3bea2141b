"""Outside-in span tracer for posediff, installed from the benchmark's files.

The tracer wraps the public functions of each `posediff` module (the layers)
without editing `src/`. A wrapper records one span per call: name, start,
end, parent span, thread, and the scenario index where the call carries one.
Spans stay in memory and are written out when the traced run ends.

Traced run of one CLI invocation (same argv as the untraced run):

    PYTHONPATH=src python3 bench/tracer.py SPANS.jsonl estimate --scenarios 20 --out run

`SPANS.jsonl` holds three JSON lines: a header (`main_s`, `exit_code`,
`names`, `threads`), the span list, and `dump_s`, the time spent writing it.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

# (module, function) pairs wrapped as layers; each span is named
# "<module>.<function>".
FUNCTIONS = (
    ("se3_camera", "gram_schmidt_6d"),
    ("mononorm", "normalize"),
    ("mononorm", "denormalize"),
    ("forward_diffusion", "diffuse_normalized"),
    ("forward_diffusion", "diffuse"),
    ("forward_diffusion", "sample_timestep"),
    ("denoising", "compute_gt_targets"),
    ("denoising", "apply_update"),
    ("denoising", "point_distance"),
    ("denoising", "decomposed_loss"),
    ("reverse", "run_reverse"),
    ("reverse", "ddim_step"),
    ("robot_chain", "forward_kinematics"),
    ("robot_chain", "sample_points"),
    ("metrics", "generate_scenarios"),
    ("metrics", "scenario_rng"),
    ("metrics", "make_observation"),
    ("metrics", "add_metric"),
    ("metrics", "auc"),
)
# Oracle classes whose `predict` methods are wrapped as "denoising.predict".
ORACLES = ("PerfectOracle", "NoisyOracle", "BiasedOracle")
# The CSV and JSON writers, wrapped together as "cli.write".
WRITERS = ("_write_csv", "_write_json")

LAYERS = tuple(f"{m}.{f}" for m, f in FUNCTIONS) + ("denoising.predict", "cli.write")

# Unit of every per-layer metric of a traced pass.
UNITS = {
    **{f"{layer}.{kind}": unit for layer in LAYERS for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "reverse.run_reverse.p50_us": "us",
    "reverse.run_reverse.p99_us": "us",
    "robot_chain.forward_kinematics.calls_per_scenario": "ratio",
    "forward_diffusion.diffuse.attempts_per_call": "ratio",
    "metrics.generate_scenarios.attempts_per_scenario": "ratio",
    "cli.write.bytes": "B",
    "cli.write.mb_per_s": "MB/s",
    "cli.self_s": "s",
    "cli.cpu_per_wall": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}

# Extract the scenario index from the calls that carry one.
SCENARIO_OF = {
    "metrics.scenario_rng": lambda args, kwargs: args[1] if len(args) > 1 else kwargs["index"],
    "metrics.make_observation": lambda args, kwargs: (args[0] if args else kwargs["scenario"]).index,
}


class Tracer:
    """Wraps the layers in place; `uninstall` restores every original."""

    def __init__(self):
        # (id, name, start, end, parent id or 0, thread ident, scenario or None)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple] = []

    def _wrap(self, name, fn):
        spans, ids, local = self.spans, self._ids, self._local
        clock, ident = time.perf_counter, threading.get_ident
        scenario_of = SCENARIO_OF.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # Span stacks are per thread, so pool workers nest correctly.
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else 0
            scenario = scenario_of(args, kwargs) if scenario_of else None
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, ident(), scenario))

        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import posediff.cli  # noqa: F401  (imports every posediff module)

        modules = [m for n, m in sys.modules.items() if n == "posediff" or n.startswith("posediff.")]

        def rebind(original, traced):
            # Every `from .x import y` copy is its own module attribute.
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, traced)

        for mod_name, fn_name in FUNCTIONS:
            original = getattr(sys.modules[f"posediff.{mod_name}"], fn_name)
            rebind(original, self._wrap(f"{mod_name}.{fn_name}", original))
        cli = sys.modules["posediff.cli"]
        for fn_name in WRITERS:
            original = getattr(cli, fn_name)
            rebind(original, self._wrap("cli.write", original))
        denoising = sys.modules["posediff.denoising"]
        for cls_name in ORACLES:
            cls = getattr(denoising, cls_name)
            self._set(cls, "predict", self._wrap("denoising.predict", cls.predict))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def self_times(spans) -> dict[str, float]:
    """Self time per span name: span time not covered by its child spans.

    Where spans of several threads are open at once, each instant is shared
    equally among the innermost open span of each thread, so the self times
    of a threaded run add up to the time covered by spans, not more.
    """
    events = []
    for sid, name, t0, t1, _, thread, _ in spans:
        events.append((t0, 1, sid, thread, name))
        # At equal times, ends sort before starts, and inner spans end first.
        events.append((t1, 0, -sid, thread, name))
    events.sort()
    stacks = defaultdict(list)
    busy = 0  # threads with an open span
    totals = defaultdict(float)
    prev = 0.0
    for t, is_start, _, thread, name in events:
        if busy and t > prev:
            share = (t - prev) / busy
            for stack in stacks.values():
                if stack:
                    totals[stack[-1]] += share
        prev = t
        stack = stacks[thread]
        if is_start:
            busy += not stack
            stack.append(name)
        else:
            stack.pop()
            busy -= not stack
    return totals


def aggregate(spans, main_s: float, written_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    `main_s` is the traced wall time of `posediff.cli.main`, `written_bytes`
    the size of the files the run wrote.
    """
    calls = Counter(s[1] for s in spans)
    scenarios = len({s[6] for s in spans if s[6] is not None})
    own = self_times(spans)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_s"] = own[layer]

    name_of = {s[0]: s[1] for s in spans}
    under = Counter((s[1], name_of.get(s[4])) for s in spans)
    reverse_us = [(s[3] - s[2]) * 1e6 for s in spans if s[1] == "reverse.run_reverse"]
    write_s = sum(s[3] - s[2] for s in spans if s[1] == "cli.write")
    metrics.update({
        "reverse.run_reverse.p50_us": float(np.percentile(reverse_us, 50)) if reverse_us else 0.0,
        "reverse.run_reverse.p99_us": float(np.percentile(reverse_us, 99)) if reverse_us else 0.0,
        "robot_chain.forward_kinematics.calls_per_scenario":
            calls["robot_chain.forward_kinematics"] / scenarios,
        # Forward draws per `diffuse` call: 1.0 unless Gram-Schmidt rejects a draw.
        "forward_diffusion.diffuse.attempts_per_call":
            under["mononorm.denormalize", "forward_diffusion.diffuse"] / calls["forward_diffusion.diffuse"]
            if calls["forward_diffusion.diffuse"] else 0.0,
        # Ground-truth rotation draws per generated scenario.
        "metrics.generate_scenarios.attempts_per_scenario":
            under["mononorm.denormalize", "metrics.generate_scenarios"] / scenarios,
        "cli.write.bytes": written_bytes,
        "cli.write.mb_per_s": written_bytes / 1e6 / write_s if write_s > 0 else 0.0,
        "cli.self_s": main_s - sum(own.values()),
        "trace.wall_s": main_s,
    })
    return metrics


def load_spans(path: str) -> tuple[dict, list[tuple]]:
    """Header and spans of a file written by `main`, with names restored."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        packed = json.loads(fh.readline())
        header.update(json.loads(fh.readline()))
    names = header["names"]
    spans = [(sid, names[n], t0, t1, parent, thread, scenario)
             for sid, n, t0, t1, parent, thread, scenario in packed]
    return header, spans


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from posediff.cli import main as cli_main

    t0 = time.perf_counter()
    code = cli_main(cli_argv)
    main_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    names = {name: i for i, name in enumerate(LAYERS)}
    threads = {}
    packed = [(sid, names[name], a, b, parent, threads.setdefault(thread, len(threads)), scenario)
              for sid, name, a, b, parent, thread, scenario in tracer.spans]
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"main_s": main_s, "exit_code": code, "names": list(LAYERS),
                             "threads": len(threads)}) + "\n")
        fh.write(json.dumps(packed) + "\n")
        fh.write(json.dumps({"dump_s": time.perf_counter() - t0}) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
