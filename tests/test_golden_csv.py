"""Golden CSV bytes: the data lines of small runs, pinned by their sha256.

The digests cover every line that does not start with `#` (the header and
the data rows, with their `\\r\\n` endings), so they pin the exact text of each
value across changes to the engine or the writer, not only across reruns of
one tree. The `#` metadata lines carry the package version and are left out.
A JSON summary's digest covers every key but `metadata`, for the same reason.
"""

import hashlib
import json

import pytest

from posediff.cli import main

# (argv, exit code, {output file: sha256 of its non-# lines})
GOLDEN = {
    # The unclamped process goes behind the camera: NaN u/v rows.
    "diffuse-no-clamp": (
        ["diffuse", "--scenarios", "40", "--timesteps", "all", "--no-clamp", "--seed", "5"], 0,
        {"run.csv": "341e74770e18735cc661c920721c3445b164dfae77b8a1db172983f6df9428eb"},
    ),
    # A repeated timestep and three worker chunks.
    "diffuse-workers": (
        ["diffuse", "--scenarios", "30", "--timesteps", "50,50,10", "--workers", "3",
         "--seed", "3"], 0,
        {"run.csv": "78edae6d40b2081cc363475f145e89ebeced5e95f6429ed8841e57286c6fcb86"},
    ),
    # Partial aborts: 17 of 60 rows abort and have no trajectory rows.
    "estimate-partial-aborts": (
        ["estimate", "--scenarios", "60", "--seed", "2", "--denoiser", "biased:3e156",
         "--trajectories", "{tmp}/traj.csv"], 1,
        {"run.csv": "4e238037630680d1a93228f480f3b7ad62d3c20baaa730ef858ff8175c6f6592",
         "traj.csv": "67d8db7ea07cbceb34238436004d2cf0b8597f9e036c8fd791af04216d85e755",
         "run.json": "0f3718f01e9589374cbd141a1409eb2f9fe5106f70b71324a11dd89b47c3da07"},
    ),
    # Oracle noise from every row's generator, after a prior-sample init.
    "estimate-noisy-prior-sample": (
        ["estimate", "--scenarios", "40", "--seed", "6", "--denoiser", "noisy:0.3",
         "--init", "prior-sample", "--trajectories", "{tmp}/traj.csv"], 0,
        {"run.csv": "8755df94df39dbe75ea87212e289d7d5ce24753c58a683baf98579d001debfe6",
         "traj.csv": "0c36c22d86d9a6d673793db262059717b76a1fedd0348ce355098b7be7ac40b5"},
    ),
    # Oracle noise in two worker chunks of the direct baseline.
    "estimate-noisy-direct-workers": (
        ["estimate", "--scenarios", "40", "--seed", "6", "--mode", "direct", "--denoiser",
         "noisy:0.5", "--workers", "2"], 0,
        {"run.csv": "5093df432eec165903ddef37a77131ad11cfa24e1d86a2df60196c27fec98ab1",
         "run.json": "706fee4c6868644386bd2cc34c73e12666661222b6a35f0fbe57ad06a59576bd"},
    ),
    # One scheduled step from the ground truth: each row's ADD is a one-step trajectory's.
    "estimate-tracking": (
        ["estimate", "--scenarios", "40", "--seed", "8", "--mode", "tracking", "--denoiser",
         "noisy:0.3", "--trajectories", "{tmp}/traj.csv"], 0,
        {"run.csv": "754692c265aa5c01a0ae29272d262d51200c521d1904064262f9260dd089d6fb",
         "traj.csv": "dc43c81c5a121ad9b177b7d1ecb43af287bd5f5ebfb5acafe55e2b2adc3ad34a",
         "run.json": "95e1ba7549119128a4adc5002abe12b3801d352dabd0b66af24c4b01d41c0e33"},
    ),
    "schedule-standard": (
        ["schedule", "--sigma-form", "standard", "--eta", "0.5"], 0,
        {"run.csv": "ce66fb9a32d6ada53218a31402b6f4957eea849ce43e8753c756faf143945049"},
    ),
}


def data_digest(path) -> str:
    if path.suffix == ".json":
        summary = json.loads(path.read_text())
        del summary["metadata"]
        return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()
    lines = path.read_bytes().splitlines(keepends=True)
    return hashlib.sha256(b"".join(l for l in lines if not l.startswith(b"#"))).hexdigest()


@pytest.mark.parametrize("name", GOLDEN)
def test_csv_data_lines_match_golden_digest(name, tmp_path):
    argv, code, digests = GOLDEN[name]
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert main([*argv, "--out", str(tmp_path / "run")]) == code
    assert {f: data_digest(tmp_path / f) for f in digests} == digests
