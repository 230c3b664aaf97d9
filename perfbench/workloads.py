"""Benchmark workloads and the scenario files generated for them.

Each workload starts from a scenario file of the repository and writes two
scenarios from it: one the oracle labels and the training run on, and one
the sweeps run on. They differ only in their horizon. The seeds come from
the benchmark's ``--seed`` argument, and the horizons and epochs are set so
that one pipeline round takes seconds, not minutes. The program only ever
sees the generated files.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

#: Policies swept in every round, in this order.
POLICIES = ("orthogonal", "oracle", "dnn+repair")


@dataclass(frozen=True)
class Workload:
    name: str
    template: str  # scenario file of the repository, relative to its root
    # (section, key, value) written into both generated scenarios
    overrides: tuple[tuple[str, str, str], ...]
    label_slots: int  # horizon of the label scenario (oracle labels, training)
    sweep_slots: int  # horizon of the sweep scenario (every sweep run)
    lambdas: tuple[float, ...]  # one constant-load sweep run per value
    # Slots of every sweep run replayed slot by slot for the allocation checks
    # of an untimed run; the traced run replays every slot.
    check_slots: int
    # Every n-th replayed oracle slot is re-solved by plain enumeration
    # (0 = never; only the exhaustive oracle can be enumerated).
    enumerate_every: int


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's case study at desk scale: greedy oracle, 1043->1024->1000
        # float64 net, repair work growing with the load.
        Workload(
            name="sweep-default",
            template="scenarios/default.cfg",
            overrides=(("train", "epochs", "5"),),
            # two full cycles of the scenario's lambda schedule (5 x 50 slots)
            label_slots=500,
            sweep_slots=200,
            lambdas=(100.0, 125.0, 150.0, 175.0, 200.0),
            check_slots=60,
            enumerate_every=0,
        ),
        # Tiny arrays and a 20-slot stale twin: per-call overhead, the twin's
        # history and the exhaustive oracle set the pace, not arithmetic.
        Workload(
            name="tiny-stale",
            template="scenarios/tiny.cfg",
            overrides=(("twin", "delay", "significant"),),
            label_slots=500,
            sweep_slots=500,
            lambdas=(1.0, 2.0, 4.0, 8.0, 16.0),
            check_slots=200,
            enumerate_every=10,
        ),
    )
}


def render_scenario(template_text: str, overrides: dict[tuple[str, str], str]) -> str:
    """Rewrite ``key = value`` lines of a scenario file.

    Every overridden key must already be set in the template, so that a
    renamed key fails here instead of being silently left at its default.
    """
    pending = dict(overrides)
    out: list[str] = []
    section = None
    for line in template_text.splitlines():
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip().lower()
        elif "=" in stripped and not stripped.startswith("#"):
            key = stripped.partition("=")[0].strip().lower()
            if (section, key) in pending:
                line = f"{key} = {pending.pop((section, key))}"
        out.append(line)
    if pending:
        raise ValueError(f"template does not set {sorted(pending)}")
    return "\n".join(out) + "\n"


def write_scenarios(root: str, workload: Workload, seed: int, out_dir: str) -> tuple[str, str]:
    """Generate the workload's label and sweep scenarios for ``seed``;
    return their paths."""
    with open(os.path.join(root, workload.template), encoding="utf-8") as f:
        template = f.read()
    paths = []
    for name, horizon in (("labels", workload.label_slots), ("sweep", workload.sweep_slots)):
        overrides = {(s, k): v for s, k, v in workload.overrides}
        overrides[("run", "seed")] = str(seed)
        overrides[("run", "horizon_slots")] = str(horizon)
        overrides[("train", "seed")] = str(seed)
        path = os.path.join(out_dir, f"{name}.cfg")
        with open(path, "w", encoding="utf-8") as f:
            f.write(render_scenario(template, overrides))
        paths.append(path)
    return paths[0], paths[1]
