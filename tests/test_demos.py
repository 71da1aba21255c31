"""Each demo runs to completion in a fresh interpreter and prints something."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# corruption_bounds.py runs 10^5-trial Monte Carlo estimates and takes about
# 10 s, as long as the other five together ten times over; the adversary
# tests cover the same trials at smaller counts, so it is left out here.
SLOW = {"corruption_bounds.py"}
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py") if p.name not in SLOW)


def test_every_demo_but_the_slow_one_is_run():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    result = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                            capture_output=True, text=True, timeout=120,
                            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
