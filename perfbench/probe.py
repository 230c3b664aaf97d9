"""Set-up probe: what a fresh interpreter does before the first timed phase.

    python3 perfbench/probe.py SCENARIO_FILE...

Imports every twinslice module and parses and validates the scenarios. The
benchmark times this whole process from the outside.
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from twinslice import cli, domain, envsim, metrics, nn, policy, runner, twin  # noqa: E402,F401
from twinslice.scenario import load_scenario  # noqa: E402

if __name__ == "__main__":
    for path in sys.argv[1:]:
        load_scenario(path)
