"""Smoke test: every narrative script in ``demos/`` runs to completion."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_demo(name, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "name",
    [
        "01_channel_and_traffic.py",
        "02_twin_staleness.py",
        "03_policies_tiny_grid.py",
        "04_train_allocator.py",
    ],
)
def test_demo_exits_zero(name, tmp_path):
    _run_demo(name, tmp_path)


@pytest.mark.slow
def test_slicing_comparison_demo_exits_zero(tmp_path):
    _run_demo("05_slicing_comparison.py", tmp_path)
