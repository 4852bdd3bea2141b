"""Peak memory is set by the chunks in flight, not by --scenarios.

`estimate` writes each chunk's rows as the chunk ends and keeps one ADD per scenario for
its summary; `trainsim` keeps each draw's loss row; `diffuse` keeps each timestep's
in-frustum count and sums in memory, writes its noised vectors to a file in scenario order
and reads them back in order, a fixed amount at a time. Each run is a child process
that reports its own peak resident set (`VmHWM`) as it exits, so the test process's own
allocations do not count.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PEAK_CODE = (
    "import sys\n"
    "from posediff.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "with open('/proc/self/status', encoding='ascii') as fh:\n"
    "    print(next(l.split()[1] for l in fh if l.startswith('VmHWM:')), file=sys.stderr)\n"
    "raise SystemExit(code)\n"
)


def peak_mb(argv, folder):
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_CODE, *argv, "--out", str(folder / "run")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stderr.split()[-1]) / 1024


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from /proc on Linux")
@pytest.mark.parametrize("command", ["estimate", "trainsim"])
def test_peak_memory_does_not_grow_with_scenarios(command, tmp_path):
    # The run draws each chunk's scenarios where it runs; only estimate's per-scenario ADDs
    # and trainsim's loss rows are kept for the whole run.
    small, large = (peak_mb([command, "--scenarios", str(n)], tmp_path) for n in (2000, 20000))
    assert large - small < 10, (small, large)


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from /proc on Linux")
def test_estimate_keeps_one_add_per_scenario(tmp_path):
    # Each chunk's rows go to the CSV as the chunk ends; the summary keeps a float (about
    # 32 B) per scenario, 0.6 MB more at 20,000 scenarios than at 2,000.
    small, large = (peak_mb(["estimate", "--scenarios", str(n)], tmp_path) for n in (2000, 20000))
    assert large - small < 2, (small, large)


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from /proc on Linux")
@pytest.mark.parametrize("timesteps, counts", [("all", (200, 2000)), ("1,50", (2000, 40000))],
                         ids=["all", "1,50"])
def test_diffuse_peak_memory_does_not_grow_with_scenarios(timesteps, counts, tmp_path):
    # The vectors go to a file, which the summary reads back once in scenario order,
    # MAX_BATCH_ROWS vectors at a time; it keeps each timestep's count and sums, so neither
    # many timesteps nor many scenarios of few timesteps add memory.
    small, large = (peak_mb(["diffuse", "--timesteps", timesteps, "--scenarios", str(n)], tmp_path)
                    for n in counts)
    assert large - small < 3, (small, large)
