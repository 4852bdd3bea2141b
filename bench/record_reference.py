"""Record `reference.json`: the checked output values at the reference seed.

    python3 bench/record_reference.py

Runs each workload command once at seed 7 and stores the values that
`workloads.check` compares. Re-record only when an output is meant to change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import REFERENCE_PATH, REFERENCE_SEED, WORKLOADS, reference_values

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory() as tmp:
        for wl in WORKLOADS.values():
            out = str(Path(tmp) / wl.kind)
            subprocess.run([sys.executable, "-m", "posediff.cli", *wl.argv(REFERENCE_SEED, out)],
                           env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
                           stdout=subprocess.DEVNULL)
            reference[wl.kind] = reference_values(wl.kind, out)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
