"""Smoke tests: the benchmark's workloads run and pass their own checks.

tiny-stale runs untraced and traced. The traced run replays the runner's
loops from the package's public functions (``perfbench/replay.py``), so a
change that breaks that surface fails here. sweep-default runs untraced:
its checks replay the start of every run of ``run_experiment``, which steps
its runs in lockstep, one run at a time through the public functions, on
the greedy oracle's scenario."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _bench(workload, trace):
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "17", "--seconds", "1", "--trace", trace,
        ],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_stale_benchmark_is_correct(trace):
    _bench("tiny-stale", trace)


def test_sweep_default_benchmark_is_correct():
    _bench("sweep-default", "0")
