"""Experiment orchestration: the record -> snapshot -> decide -> step loop.

One simulated run holds a physical environment, a digital twin fed from it,
and one policy deciding against twin snapshots. The runs of an experiment
step in lockstep: one environment and one twin hold all of them on a
leading run axis, each run with its own generator, and each policy decides
the slot of its block of runs in one call. Training runs the same loop with
the oracle in charge, harvesting (feature, label) pairs from the twin.
"""
from __future__ import annotations

import hashlib
import itertools
import os
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import metrics, nn, policy as policy_mod
from .domain import ConfigError, UserLayout
from .envsim import SlotColumns
from .metrics import RunRecords, RunSummary, SlotMetrics
from .nn import MLP, TrainConfig, TrainResult
from .scenario import ExperimentSpec, Scenario, lam_tag
from .twin import TwinSnapshot

POLICY_IDS = ("orthogonal", "oracle", "dnn", "dnn+repair")

COMPARISON_COLUMNS = (
    "policy_id", "lambda", "mean_spectral_efficiency", "outage_probability",
    "exceedance_mass",
)


def derive_seed(base_seed: int, run_index: int) -> int:
    """Stable per-run seed: digest of the base seed and the run's position."""
    digest = hashlib.sha256(f"{base_seed}:{run_index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _make_policy(
    policy_id: str, scenario: Scenario, net: Optional[MLP]
) -> Callable[[Sequence[TwinSnapshot]], tuple[np.ndarray, list[bool]]]:
    """The policy of a block of runs: its constants are derived here, once.
    A call returns the slot's user rows and, per run, whether the repair ran
    out of eMBB blocks."""
    layout = UserLayout(scenario.users())
    grid, qos, tau = scenario.grid, scenario.qos, scenario.slot_duration
    if policy_id == "orthogonal":
        cfg = policy_mod.OrthogonalConfig(urllc_fraction=scenario.urllc_fraction)
        decide = policy_mod.orthogonal_policy(cfg, grid, layout, tau)
    elif policy_id == "oracle":
        decide = policy_mod.oracle_policy(grid, layout, qos, tau)
    elif policy_id in ("dnn", "dnn+repair"):
        if net is None:
            raise ConfigError(f"policy {policy_id!r} needs trained weights")
        scaling = scenario.scaling()
        decide = policy_mod.dynamic_policy(net, grid, layout, qos, scaling, tau)
        if policy_id == "dnn+repair":
            repair = policy_mod.repair_policy(qos, grid, layout, tau)
            return lambda snaps: repair(decide(snaps), snaps)
    else:
        raise ConfigError(f"unknown policy {policy_id!r}; known: {POLICY_IDS}")
    return lambda snaps: (decide(snaps), [False] * len(snaps))


def _slots(
    scenario: Scenario, decides: Sequence[tuple[Callable, slice]],
    seeds: Sequence[Optional[int]], lams: Sequence[Optional[float]],
) -> Iterator[tuple[int, list[TwinSnapshot], np.ndarray, list[bool], SlotColumns]]:
    """The slot loop of every run, the runs of one scenario in lockstep: run
    r steps on the environment of ``seeds[r]`` and ``lams[r]``, and each
    ``(decide, runs)`` of ``decides`` decides its slice of runs in one call.
    The twin records the physical states and is asked for the snapshots
    before the decisions are made, so the allocation applied at slot t only
    ever depends on twin state delivered at or before t; the environment
    then steps. Yields (t, snapshots, rows, unmet, columns): one snapshot,
    one row of user rows and one repair flag per run, and the slot's
    per-run columns."""
    env = scenario.environments(seeds, lams)
    twin = scenario.make_twin()
    for t in range(scenario.horizon_slots):
        twin.record(env.state)
        snaps = twin.snapshots(now=t)
        decided = [decide(snaps[runs]) for decide, runs in decides]
        rows = np.concatenate([block for block, _ in decided])
        unmet = [flag for _, flags in decided for flag in flags]
        yield t, snaps, rows, unmet, env.step_runs(rows)


@dataclass
class RunResult:
    summary: RunSummary
    # the run's rows of the experiment's [R, T] record columns
    records: RunRecords
    # the twin's [T, 3] (captured_at, delivered_at, stale_underflow), shared
    twin_log: np.ndarray
    repair_exhausted_slots: int = 0

    @property
    def slots(self) -> list[SlotMetrics]:
        """The run's per-slot records, built on each read."""
        return self.records.slots()

    @property
    def staleness_log(self) -> np.ndarray:
        """Staleness of the snapshot used at each slot, for loop-order checks."""
        return self.records.t - self.twin_log[:, 0]


def _simulate(
    scenario: Scenario, runs: Sequence[tuple[str, Optional[float], Optional[int]]],
    net: Optional[MLP],
) -> list[RunResult]:
    """Simulate every (policy_id, lam, seed) run for the scenario horizon,
    all in lockstep (``_slots``). Each slot's columns go into ``[R, T]``
    arrays, a contiguous row per run, from which each run's records are
    derived at the end, elementwise."""
    decides, start = [], 0  # one policy per block of consecutive runs of one policy id
    for policy_id, block in itertools.groupby(policy_id for policy_id, _, _ in runs):
        n = len(list(block))
        decides.append((_make_policy(policy_id, scenario, net), slice(start, start + n)))
        start += n
    seeds = [scenario.seed if seed is None else seed for _, _, seed in runs]
    horizon, qos = scenario.horizon_slots, scenario.qos
    # lambda, eMBB sum, URLLC sum and served bits of run r at slot t
    columns = np.empty((4, len(runs), horizon))
    twin_log = np.empty((horizon, 3), dtype=np.int64)
    unmet = [0] * len(runs)  # slots whose repair ran out of eMBB blocks, per run
    for t, snaps, _, flags, slot in _slots(
        scenario, decides, seeds, [lam for _, lam, _ in runs]
    ):
        snap = snaps[0]  # the runs share the twin, so they share its log
        twin_log[t] = snap.captured_at, snap.delivered_at, snap.stale_underflow
        columns[:, :, t].flat = slot.lam + slot.embb + slot.urllc + slot.served
        unmet = [n + flag for n, flag in zip(unmet, flags)]

    lam, embb, urllc, served = columns
    # Spectral efficiency counts delivered bits: eMBB is fully buffered so
    # its capacity is delivered; URLLC delivery is backlog-limited.
    se = metrics.spectral_efficiency([embb, served], scenario.grid, scenario.slot_duration)
    outage = metrics.outage_event(urllc, qos.urllc_packet_bits, lam)
    t_col = np.arange(horizon)
    results = []
    for r, ((policy_id, lam_r, _), seed) in enumerate(zip(runs, seeds)):
        records = RunRecords(t_col, embb[r], urllc[r], se[r], outage[r], lam[r])
        scn = scenario if lam_r is None else scenario.with_lambda(lam_r)
        summary = metrics.summarize_run(
            records, policy_id, seed, scn.hash, scenario.outage_window,
            qos.urllc_outage_threshold,
        )
        results.append(RunResult(summary, records, twin_log, unmet[r]))
    return results


def simulate(
    scenario: Scenario, policy_id: str, *, lam: Optional[float] = None,
    seed: Optional[int] = None, net: Optional[MLP] = None,
) -> RunResult:
    """Run one policy for the scenario horizon: ``_simulate`` of one run."""
    return _simulate(scenario, [(policy_id, lam, seed)], net)[0]


def _twin_log_csv(twin_log: np.ndarray) -> str:
    """The per-slot twin dump beside each run CSV: what the application
    layer saw at each slot and how stale it was. The runs of an experiment
    share the log, so one text serves them all."""
    captured, delivered, underflow = twin_log.T.tolist()
    lines = ["t,captured_at,delivered_at,staleness,stale_underflow"]
    lines += (
        f"{t},{c},{d},{t - c},{u}"
        for t, (c, d, u) in enumerate(zip(captured, delivered, underflow))
    )
    return "\n".join(lines) + "\n"


def run_experiment(spec: ExperimentSpec) -> list[tuple[str, Optional[float], RunSummary]]:
    """Simulate every (policy, lambda) pair, all in lockstep, and write CSVs
    plus a comparison table once every run has succeeded.

    Returns the summaries in run order. Each run gets a seed derived from
    the scenario seed and its position in the cartesian product, so adding
    runs never perturbs earlier ones.
    """
    scenario = spec.scenario
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

    named = spec.runs()
    runs = [
        (policy_id, lam, derive_seed(scenario.seed, run_index))
        for run_index, (policy_id, lam, _) in enumerate(named)
    ]
    # Every run ends and is summarised before anything is written, so a
    # failing run leaves no files behind.
    simulated = _simulate(scenario, runs, net)

    os.makedirs(spec.out_dir, exist_ok=True)
    twin_csv = _twin_log_csv(simulated[0].twin_log) if spec.dump_twin else None
    results: list[tuple[str, Optional[float], RunSummary]] = []
    for (policy_id, lam, stem), run in zip(named, simulated):
        base = os.path.join(spec.out_dir, stem)
        metrics.export_csv(run.records, run.summary, base + ".csv")
        if twin_csv is not None:
            with open(base + ".twin.csv", "w", newline="\n") as f:
                f.write(twin_csv)
        results.append((policy_id, lam, run.summary))

    table = [",".join(COMPARISON_COLUMNS)]
    table += (
        f"{policy_id},{lam_tag(lam)},{s.mean_spectral_efficiency:.9f},"
        f"{s.outage_probability:.9f},{s.cdf.exceedance_mass:.9f}"
        for policy_id, lam, s in results
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
    decide = _make_policy("oracle", scenario, None)
    encode = nn.feature_encoder(grid, layout, scenario.qos, scenario.scaling())

    X = np.empty((scenario.horizon_slots, nn.feature_dim(len(layout.ids), grid.num_rbs)))
    labels = np.empty((scenario.horizon_slots, grid.num_rbs), dtype=int)
    slots = _slots(scenario, [(decide, slice(1))], [seed], [None])
    for t, (snap,), rows, _, _ in slots:
        X[t] = encode(snap)
        labels[t] = rows[0]  # a user's label is its column, which is its row
    return X, labels


def build_net(scenario: Scenario, cfg: TrainConfig) -> MLP:
    """The scenario's net, Glorot-initialised in float64 from ``cfg.seed`` and
    rounded to float32, the precision it trains and serves in."""
    users = scenario.users()
    input_dim = nn.feature_dim(len(users), scenario.num_rbs)
    output_dim = scenario.num_rbs * len(users)
    layer_sizes = [input_dim, *scenario.hidden_sizes, output_dim]
    shape = (scenario.num_rbs, len(users))
    return MLP.glorot(layer_sizes, shape, seed=cfg.seed).astype(np.float32)


def train_command(
    scenario: Scenario,
    cfg: Optional[TrainConfig] = None,
    out_dir: str = ".",
) -> TrainArtifacts:
    """Generate oracle-labelled twin data, fit the net with ``cfg`` (by
    default the scenario's ``train``), write artifacts.

    Writes ``weights.bin`` (versioned flat binary) and ``loss_curve.csv``
    (one row per optimisation step) into ``out_dir``.
    """
    cfg = cfg or scenario.train
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
