"""Per-scenario generators: `scenario_rng` equals `np.random.default_rng([seed, index, stream])`
bit for bit, and building the CLI's configuration does not load `numpy.random`."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from posediff.metrics import _block_words, scenario_rng

ROOT = Path(__file__).resolve().parents[1]

SEEDS = (0, 1, 7, 2**31 + 5, 2**32, 2**64 + 3, 2**128 + 1)  # the last has 5 entropy words
INDICES = (*range(0, 5000, 7), 255, 256, 2**32 - 1, 2**32, 2**40 + 3)


def assert_same_generator(seed, index, stream):
    got, want = scenario_rng(seed, index, stream), np.random.default_rng([seed, index, stream])
    triple = (seed, index, stream)
    assert got.bit_generator.state == want.bit_generator.state, triple
    for draw in (lambda g: g.standard_normal(9), lambda g: g.random(3), lambda g: g.integers(2)):
        assert np.asarray(draw(got)).tobytes() == np.asarray(draw(want)).tobytes(), triple


@pytest.mark.parametrize("seed", SEEDS)
def test_generators_equal_default_rng(seed):
    for stream in range(4):
        for index in INDICES:
            assert_same_generator(seed, index, stream)


def test_a_block_reached_out_of_order():
    _block_words.cache_clear()
    for index in (4000, 0, 4001, 3999, 2**32 + 5, 2**32 - 1):
        assert_same_generator(7, index, 1)


def test_block_words_are_read_only():
    with pytest.raises(ValueError):
        _block_words(7, 0, 0)[0, 0] = 0


def test_a_negative_seed_is_rejected_as_numpy_rejects_it():
    with pytest.raises(ValueError):
        np.random.default_rng([-1, 0, 0])
    with pytest.raises(ValueError):
        scenario_rng(-1, 0, 0)


def test_setup_does_not_load_numpy_random(tmp_path, monkeypatch):
    """The benchmark's set-up code, for each workload's argv, leaves `numpy.random` unloaded;
    loading it at import would add to every run's start-up time."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    argvs = [w.argv(workloads.REFERENCE_SEED, "out") for w in workloads.WORKLOADS.values()]
    code = (
        "import sys\n"
        "from posediff.cli import build_parser, load_config\n"
        f"for argv in {argvs!r}:\n"
        "    load_config(build_parser().parse_args(argv))\n"
        "print('numpy.random' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    ).stdout
    assert out.splitlines()[-1] == "False"
