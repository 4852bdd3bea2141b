"""`diffuse`'s JSON summary is the one its chunks' flags and vectors give when all are
kept in memory, bit for bit, and the run's vectors leave no file behind.

`reference_summary` is the summary code as it was when every chunk's (S, T) flags and
(S, T, 9) vectors were kept in memory for it: verbatim from `inside = ...` on, except that
it returns the summary alone.
"""

import json

import numpy as np
import pytest

from posediff import cli

RUNS = {
    "all-many-chunks": ["diffuse", "--scenarios", "30", "--timesteps", "all", "--seed", "2"],
    "all-few-steps-many-chunks": ["diffuse", "--scenarios", "40", "--steps", "20",
                                  "--timesteps", "all", "--seed", "4"],
    "repeated-timestep": ["diffuse", "--scenarios", "50", "--timesteps", "50,50,10",
                          "--seed", "3"],
    "no-clamp": ["diffuse", "--scenarios", "60", "--timesteps", "all", "--no-clamp",
                 "--seed", "5"],
    "workers": ["diffuse", "--scenarios", "70", "--timesteps", "1,30,1,100", "--workers", "3",
                "--seed", "6"],
    "repeated-timestep-many-reads": ["diffuse", "--scenarios", "40", "--timesteps", "1,50,1,100",
                                     "--no-clamp", "--seed", "8"],
}
# Chunk caps that split the run into many small chunks, and make the summary read its
# vectors back a timestep or two at a time.
SMALL_CAPS = {name: (7, 64) for name in ("all-many-chunks", "all-few-steps-many-chunks",
                                         "repeated-timestep-many-reads")}


def reference_summary(cfg, world):
    kept = [(flags, n) for flags, n, _ in cli._run_chunks(
        cfg, world, cli._diffuse_chunk, len(cfg.parse_timesteps()))]
    ts = cfg.parse_timesteps()
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
    return summary


@pytest.mark.parametrize("name", RUNS)
def test_summary_is_the_in_memory_summary_bit_for_bit(name, tmp_path, monkeypatch):
    if name in SMALL_CAPS:
        max_chunk, max_rows = SMALL_CAPS[name]
        monkeypatch.setattr(cli, "MAX_CHUNK", max_chunk)
        monkeypatch.setattr(cli, "MAX_BATCH_ROWS", max_rows)
    argv = [*RUNS[name], "--out", str(tmp_path / "run")]
    cfg = cli.load_config(cli.build_parser().parse_args(argv))
    want = reference_summary(cfg, cli._build_world(cfg, "diffuse"))
    assert cli.main(argv) == 0
    got = json.loads((tmp_path / "run.json").read_text())
    # JSON floats are written by repr, so equal text is equal bits.
    for key in ("in_frustum_rate", "per_timestep"):
        assert json.dumps(got[key], sort_keys=True) == json.dumps(want[key], sort_keys=True)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv", "run.json"]


def test_a_run_that_raises_leaves_no_vector_file(tmp_path, monkeypatch):
    calls = []
    diffuse_chunk = cli._diffuse_chunk

    def second_chunk_raises(cfg, world, scenarios):
        calls.append(len(scenarios))
        if len(calls) == 2:
            raise RuntimeError("second chunk")
        return diffuse_chunk(cfg, world, scenarios)

    monkeypatch.setattr(cli, "_diffuse_chunk", second_chunk_raises)
    with pytest.raises(RuntimeError, match="second chunk"):
        cli.main(["diffuse", "--scenarios", "100", "--timesteps", "all",
                  "--out", str(tmp_path / "run")])
    assert len(calls) == 2
    # The CSV holds the first chunk's rows; there is no JSON and no other file.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv"]
