"""Experiment orchestration: the sync -> decide -> advance -> record loop.

One simulated run holds a physical environment, a digital twin fed from it,
and one policy deciding against twin snapshots. Training runs the same loop
with the oracle in charge, harvesting (feature, label) pairs from the twin.
"""
from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from . import metrics, nn, policy as policy_mod
from .domain import ConfigError, UserLayout
from .envsim import SlotOutcome
from .metrics import RunSummary, SlotMetrics
from .nn import MLP, TrainConfig, TrainResult
from .scenario import ExperimentSpec, Scenario
from .twin import TwinSnapshot

POLICY_IDS = ("orthogonal", "oracle", "dnn", "dnn+repair")

COMPARISON_COLUMNS = (
    "policy_id",
    "lambda",
    "mean_spectral_efficiency",
    "outage_probability",
    "exceedance_mass",
)


def derive_seed(base_seed: int, run_index: int) -> int:
    """Stable per-run seed: digest of the base seed and the run's position."""
    digest = hashlib.sha256(f"{base_seed}:{run_index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _make_policy(
    policy_id: str, scenario: Scenario, net: Optional[MLP]
) -> policy_mod.Policy:
    """The run's policy: its constants are derived here, once per run."""
    layout = UserLayout(scenario.users())
    grid, qos, tau = scenario.grid, scenario.qos, scenario.slot_duration
    if policy_id == "orthogonal":
        cfg = policy_mod.OrthogonalConfig(urllc_fraction=scenario.urllc_fraction)
        return policy_mod.orthogonal_policy(cfg, grid, layout, tau)
    if policy_id == "oracle":
        return policy_mod.oracle_policy(grid, layout, qos, tau)
    if policy_id in ("dnn", "dnn+repair"):
        if net is None:
            raise ConfigError(f"policy {policy_id!r} needs trained weights")
        scaling = scenario.scaling()
        decide = policy_mod.dynamic_policy(net, grid, layout, qos, scaling, tau)
        if policy_id == "dnn":
            return decide
        repair = policy_mod.repair_policy(qos, grid, layout, tau)
        return lambda snap: repair(decide(snap), snap)
    raise ConfigError(f"unknown policy {policy_id!r}; known: {POLICY_IDS}")


def _slots(
    scenario: Scenario,
    decide: policy_mod.Policy,
    seed: Optional[int] = None,
    lam: Optional[float] = None,
) -> Iterator[tuple[int, TwinSnapshot, policy_mod.PolicyDecision, SlotOutcome]]:
    """The slot loop of every run: the twin records the physical state and is
    asked for a snapshot before the decision is made, so the allocation
    applied at slot t only ever depends on twin state delivered at or before
    t; the environment then steps. Yields (t, snapshot, decision, outcome)."""
    env = scenario.environment(seed=seed, lam_override=lam)
    twin = scenario.make_twin()
    for t in range(scenario.horizon_slots):
        twin.record(env.state)
        snap = twin.snapshot(now=t)
        decision = decide(snap)
        yield t, snap, decision, env.step(decision.allocation)


@dataclass
class RunResult:
    summary: RunSummary
    slots: list[SlotMetrics]
    # staleness of the snapshot used at each slot, for loop-order checks
    staleness_log: list[int] = field(default_factory=list)
    # (t, captured_at, delivered_at, underflow) per slot, for the twin dump
    twin_log: list[tuple[int, int, int, bool]] = field(default_factory=list)
    repair_exhausted_slots: int = 0


def simulate(
    scenario: Scenario,
    policy_id: str,
    *,
    lam: Optional[float] = None,
    seed: Optional[int] = None,
    net: Optional[MLP] = None,
) -> RunResult:
    """Run one policy for the scenario horizon (``_slots``) and collect
    per-slot metrics."""
    decide = _make_policy(policy_id, scenario, net)
    run_seed = scenario.seed if seed is None else seed

    grid = scenario.grid
    tau = scenario.slot_duration
    qos = scenario.qos
    slots: list[SlotMetrics] = []
    staleness_log: list[int] = []
    repair_exhausted = 0

    twin_log: list[tuple[int, int, int, bool]] = []
    for t, snap, decision, outcome in _slots(scenario, decide, seed, lam):
        staleness_log.append(t - snap.captured_at)
        twin_log.append((t, snap.captured_at, snap.delivered_at, snap.stale_underflow))
        if decision.constraint_unmet:
            repair_exhausted += 1

        # Spectral efficiency counts delivered bits: eMBB is fully buffered
        # so its capacity is delivered; URLLC delivery is backlog-limited.
        se = metrics.spectral_efficiency(
            [outcome.embb_sum_rate, outcome.urllc_served_total], grid, tau
        )
        slots.append(
            SlotMetrics(
                t=outcome.t,
                sum_rate_embb=outcome.embb_sum_rate,
                sum_rate_urllc=outcome.urllc_sum_rate,
                spectral_efficiency=se,
                outage=metrics.outage_event(
                    outcome.urllc_sum_rate, qos.urllc_packet_bits, outcome.lambda_t
                ),
                lambda_t=outcome.lambda_t,
            )
        )

    scn = scenario if lam is None else scenario.with_lambda(lam)
    summary = metrics.summarize_run(
        slots,
        policy_id=policy_id,
        seed=run_seed,
        scenario_hash=scn.hash,
        window=scenario.outage_window,
        eps_max=qos.urllc_outage_threshold,
    )
    return RunResult(
        summary=summary,
        slots=slots,
        staleness_log=staleness_log,
        twin_log=twin_log,
        repair_exhausted_slots=repair_exhausted,
    )


def export_twin_log(run: RunResult, path) -> str:
    """Optional per-slot twin dump beside the run CSV: what the application
    layer saw at each slot and how stale it was."""
    lines = ["t,captured_at,delivered_at,staleness,stale_underflow"]
    for t, captured, delivered, underflow in run.twin_log:
        lines.append(f"{t},{captured},{delivered},{t - captured},{int(underflow)}")
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
    return str(path)


def _lam_tag(lam: Optional[float]) -> str:
    return "schedule" if lam is None else f"{lam:g}"


def run_experiment(spec: ExperimentSpec) -> list[tuple[str, Optional[float], RunSummary]]:
    """Simulate every (policy, lambda) pair and write CSVs plus a comparison table.

    Returns the summaries in run order. Each run gets a seed derived from
    the base seed and its position in the cartesian product, so adding runs
    never perturbs earlier ones.
    """
    scenario = spec.scenario
    base_seed = scenario.seed if spec.base_seed is None else spec.base_seed
    net: Optional[MLP] = None
    if any(p.startswith("dnn") for p in spec.policies):
        if spec.weights_path is None:
            raise ConfigError("dnn policies need a trained weights file")
        net, _ = nn.load_weights(spec.weights_path)
        n_users = scenario.n_embb + scenario.n_urllc
        want = (nn.feature_dim(n_users, scenario.num_rbs), (scenario.num_rbs, n_users))
        if (net.input_dim, net.output_shape) != want:
            raise ConfigError(
                f"weights file {spec.weights_path} maps {net.input_dim} features "
                f"to {net.output_shape}; the scenario needs {want[0]} to {want[1]}"
            )

    if "orthogonal" in spec.policies:
        policy_mod.OrthogonalConfig(scenario.urllc_fraction).split(
            scenario.num_rbs, scenario.n_urllc, scenario.n_embb
        )

    os.makedirs(spec.out_dir, exist_ok=True)
    lambdas: Sequence[Optional[float]] = (
        spec.lambdas if spec.lambdas is not None else (None,)
    )

    results: list[tuple[str, Optional[float], RunSummary]] = []
    run_index = 0
    for policy_id in spec.policies:
        for lam in lambdas:
            run = simulate(
                scenario,
                policy_id,
                lam=lam,
                seed=derive_seed(base_seed, run_index),
                net=net,
            )
            name = f"{policy_id.replace('+', '_')}_lam{_lam_tag(lam)}.csv"
            metrics.export_csv(run.slots, run.summary, os.path.join(spec.out_dir, name))
            if spec.dump_twin:
                export_twin_log(
                    run, os.path.join(spec.out_dir, name[:-4] + ".twin.csv")
                )
            results.append((policy_id, lam, run.summary))
            run_index += 1

    table = [",".join(COMPARISON_COLUMNS)]
    for policy_id, lam, summary in results:
        table.append(
            ",".join(
                (
                    policy_id,
                    _lam_tag(lam),
                    f"{summary.mean_spectral_efficiency:.9f}",
                    f"{summary.outage_probability:.9f}",
                    f"{summary.cdf.exceedance_mass:.9f}",
                )
            )
        )
    with open(os.path.join(spec.out_dir, "comparison.csv"), "w", newline="\n") as f:
        f.write("\n".join(table) + "\n")
    return results


@dataclass
class TrainArtifacts:
    weights_path: str
    loss_csv_path: str
    result: TrainResult
    dataset_size: int


def collect_training_data(
    scenario: Scenario, seed: Optional[int] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Roll the oracle through the twin loop and harvest imitation targets.

    Returns (features [n, d], labels [n, num_rbs]) where each label is the
    user column index the oracle chose for that block.
    """
    layout = UserLayout(scenario.users())
    grid = scenario.grid
    decide = policy_mod.oracle_policy(grid, layout, scenario.qos, scenario.slot_duration)
    encode = nn.feature_encoder(grid, layout, scenario.qos, scenario.scaling())

    X = np.empty((scenario.horizon_slots, nn.feature_dim(len(layout.ids), grid.num_rbs)))
    labels = np.empty((scenario.horizon_slots, grid.num_rbs), dtype=int)
    for t, snap, decision, _ in _slots(scenario, decide, seed):
        X[t] = encode(snap)
        # A user's label is its column, which is its row.
        labels[t] = decision.allocation.rows_in(layout.ids)
    return X, labels


def build_net(scenario: Scenario, cfg: TrainConfig) -> MLP:
    """The scenario's net, initialised as ``cfg.init`` says in float64 and
    rounded to float32, the precision it trains and serves in."""
    users = scenario.users()
    input_dim = nn.feature_dim(len(users), scenario.num_rbs)
    output_dim = scenario.num_rbs * len(users)
    layer_sizes = [input_dim, *scenario.train.hidden_sizes, output_dim]
    shape = (scenario.num_rbs, len(users))
    if cfg.init == "zeros":
        net = MLP.zeros(layer_sizes, shape)
    else:
        net = MLP.glorot(layer_sizes, shape, seed=cfg.seed)
    return net.astype(np.float32)


def train_command(
    scenario: Scenario,
    cfg: Optional[TrainConfig] = None,
    out_dir: str = ".",
) -> TrainArtifacts:
    """Generate oracle-labelled twin data, fit the net, write artifacts.

    Writes ``weights.bin`` (versioned flat binary) and ``loss_curve.csv``
    (one row per optimisation step) into ``out_dir``.
    """
    if cfg is None:
        t = scenario.train
        cfg = TrainConfig(
            learning_rate=t.learning_rate,
            epochs=t.epochs,
            batch_size=t.batch_size,
            seed=t.seed,
        )
    X, labels = collect_training_data(scenario)
    net = build_net(scenario, cfg)
    result = nn.train(net, X, labels, cfg)

    os.makedirs(out_dir, exist_ok=True)
    weights_path = os.path.join(out_dir, "weights.bin")
    nn.save_weights(result.net, weights_path, seed=cfg.seed)
    loss_path = os.path.join(out_dir, "loss_curve.csv")
    lines = ["step,epoch,loss"]
    for step, epoch, loss in result.loss_curve:
        lines.append(f"{step},{epoch},{loss:.9f}")
    with open(loss_path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
    return TrainArtifacts(
        weights_path=weights_path,
        loss_csv_path=loss_path,
        result=result,
        dataset_size=X.shape[0],
    )
