"""The CI workflow parses, and each of its steps is well formed.

A workflow file that does not parse runs no CI job at all, this check included, so the
local tier-1 run is where it has to fail.
"""

from pathlib import Path

import pytest

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


def test_every_step_has_a_name_and_one_action():
    yaml = pytest.importorskip("yaml")
    jobs = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"]
    steps = [step for job in jobs.values() for step in job["steps"]]
    assert steps
    for step in steps:
        assert isinstance(step.get("name"), str), step
        assert ("run" in step) != ("uses" in step), step
