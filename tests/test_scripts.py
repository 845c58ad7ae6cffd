"""Smoke test: every census script in scripts/ runs with its smallest arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script,args",
    [
        ("kernel_census.py", ["--levels", "1", "--count", "2", "--scan", "50"]),
        ("recover_cardinality_sweep.py", ["--universe", "3", "--max-size", "1", "--k-max", "2"]),
        ("stream_budget_census.py", ["--max-len", "2", "--stream-cap", "200"]),
    ],
)
def test_script_runs(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
