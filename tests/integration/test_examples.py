"""Smoke tests: every example script runs clean.

Examples are documentation that compiles; letting them rot defeats
their purpose.  Each runs as a subprocess exactly as a user would run
it.  (`reproduce_paper.py` drives the whole claim table and is skipped
here for runtime: CI's docs job runs it, fails on any claim off its
statement, and checks that EXPERIMENTS.md holds its output verbatim;
`tests/integration/test_claims.py` covers its verdict rule.)
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "crash_vs_slow.py",
    "protocol_tour.py",
    "blockchain_oracle.py",
    "byzantine_majority_attack.py",
    "dynamic_adversary.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs_clean(script):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"example {script} is missing"
    completed = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True, text=True, timeout=180)
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), "examples must narrate their run"


def test_every_example_is_covered():
    on_disk = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    covered = set(FAST_EXAMPLES) | {"reproduce_paper.py"}
    assert on_disk == covered, (
        f"examples drifted: on disk {sorted(on_disk)}, "
        f"covered {sorted(covered)}")
