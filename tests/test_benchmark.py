"""Smoke test: the benchmark's tiny-stale workload runs and passes its own
checks, untraced and traced. The traced run replays the runner's loops from
the package's public functions (``perfbench/replay.py``), so a change that
breaks that surface fails here."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_stale_benchmark_is_correct(trace):
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "tiny-stale",
            "--seed", "17", "--seconds", "1", "--trace", trace,
        ],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
