"""Peak memory is set by the chunks in flight, not by --scenarios.

Each run is a child process that reports its own peak resident set (`VmHWM`) as it exits,
so the test process's own allocations do not count.
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
    # The run draws each chunk's scenarios where it runs; only estimate's per-scenario
    # results (about 200 B each) are kept for the whole run.
    small, large = (peak_mb([command, "--scenarios", str(n)], tmp_path) for n in (2000, 20000))
    assert large - small < 10, (small, large)
