"""Experiment orchestration: the record -> deliver -> decide -> step loop.

One simulated run holds a physical environment, a digital twin fed from it,
and one policy deciding against the twin's delivered state. The runs of an
experiment step in lockstep: one environment and one twin hold all of them
on a leading run axis, each run with its own generator, and each policy
decides its block of runs in one call per window of d + 1 slots, whose
deliveries a twin of d slots' delay has fixed, and one kernel call steps it.
Training runs this loop with the oracle, harvesting (feature, label) pairs.
"""
from __future__ import annotations

import hashlib
import itertools
import os
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from . import metrics, nn, policy as policy_mod
from .domain import ConfigError, UserLayout
from .envsim import PhysicalState, SlotColumns, StateRing
from .metrics import RunRecords, RunSummary, SlotMetrics
from .nn import MLP, TrainConfig, TrainResult
from .scenario import ExperimentSpec, Scenario, lam_tag

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
) -> Callable[[StateRing, int, slice], tuple[np.ndarray, Union[bool, list[bool]]]]:
    """The policy of a block of runs: its constants are derived here, once.
    A call ``(ring, i, runs)`` returns the slot's user rows and whether the
    repair ran out of eMBB blocks: a flag per run, or False for them all."""
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
            return lambda ring, i, runs: repair(decide(ring, i, runs), ring, i, runs)
    else:
        raise ConfigError(f"unknown policy {policy_id!r}; known: {POLICY_IDS}")
    return lambda ring, i, runs: (decide(ring, i, runs), False)


def _slots(
    scenario: Scenario, decides: Sequence[tuple[Callable, slice]],
    seeds: Sequence[Optional[int]], lams: Sequence[Optional[float]],
) -> Iterator[tuple[int, tuple, StateRing, int, np.ndarray, np.ndarray, SlotColumns]]:
    """The slot loop of every run, the runs of one scenario in lockstep: run
    r steps on the environment of ``seeds[r]`` and ``lams[r]``, and each
    ``(decide, runs)`` of ``decides`` decides its slice of runs. Once slot t
    is recorded, a twin of d slots' delay has fixed the deliveries of slots
    t ... t + d: that window is decided in one call per block, on the
    delivered entries gathered slot-major (``StateRing.gather``); the
    environment steps it in one ``step_runs`` call, and the twin records its
    states in order from the environment's ring. A policy decides each run
    of a call as that run alone, so slot t's rows are bit for bit those
    decided at t on ``deliver(t)`` alone. At zero delay a window is one slot.
    Yields (t, delivery, ring, i, rows, unmet, columns): ``deliver(t)``, the
    twin's ring and the delivered entry, the ``[R, B]`` user rows and ``[R]``
    repair flags (views rewritten every window) and the per-run columns."""
    env = scenario.environments(seeds, lams)
    twin = scenario.make_twin()
    horizon, ahead, n_rbs = scenario.horizon_slots, twin.delay_slots, scenario.num_rbs
    rows = np.empty((ahead + 1, len(seeds), n_rbs), dtype=np.intp)
    unmet = np.empty((ahead + 1, len(seeds)), dtype=bool)
    if not ahead:
        rows, unmet = rows[0], unmet[0]
        for t in range(horizon):
            twin.record(env.state)
            delivery = twin.deliver(now=t)
            ring, i = twin.ring, twin.ring.entry(delivery[0])
            for decide, runs in decides:
                rows[runs], unmet[runs] = decide(ring, i, runs)
            yield t, delivery, ring, i, rows, unmet, env.step_runs(rows)
        return
    bw, tau = scenario.rb_bandwidth, scenario.slot_duration
    for start in range(0, horizon, ahead + 1):
        twin.record(env.state)  # a window starts: its slots' deliveries are fixed now
        window = [twin.deliver(now=s) for s in range(start, min(start + ahead + 1, horizon))]
        ring, n = twin.ring, len(window)
        entries = [ring.entry(captured) for captured, _, _ in window]
        for decide, runs in decides:
            own, flags = decide(ring.gather(entries, runs, bw, tau), 0, slice(None))
            rows[:n, runs] = own.reshape(n, -1, n_rbs)
            unmet[:n, runs].flat = flags
        for k, columns in enumerate(env.step_runs(rows[:n])):
            if k:  # the window's states, still in the environment's ring
                twin.record(PhysicalState.view(env.ring, start + k))
            yield start + k, window[k], ring, entries[k], rows[k], unmet[k], columns


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
    unmet = np.zeros(len(runs), dtype=int)  # slots whose repair ran out, per run
    lams = [lam for _, lam, _ in runs]
    for t, delivery, _, _, _, flags, slot in _slots(scenario, decides, seeds, lams):
        twin_log[t] = delivery  # the runs share the twin, so they share its log
        columns[:, :, t].flat = slot.lam + slot.embb + slot.urllc + slot.served
        unmet += flags

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
        results.append(RunResult(summary, records, twin_log, int(unmet[r])))
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


def collect_training_data(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Roll the oracle through the twin loop on the scenario's seed
    (``Scenario.with_seed`` picks another) and harvest imitation targets: a
    window's features in one row-wise encoder call on the oracle's entries.

    Returns (features [n, d], labels [n, num_rbs]) where each label is the
    user column index the oracle chose for that block.
    """
    layout, grid = UserLayout(scenario.users()), scenario.grid
    decide = _make_policy("oracle", scenario, None)
    encode = nn.feature_encoder(grid, layout, scenario.qos, scenario.scaling())

    X = np.empty((scenario.horizon_slots, nn.feature_dim(len(layout.ids), grid.num_rbs)))
    labels = np.empty((scenario.horizon_slots, grid.num_rbs), dtype=int)
    done = 0

    def harvest(ring: StateRing, i: int, runs: slice):
        nonlocal done  # a user's label is its column, which is its row
        x, (rows, unmet) = encode(ring, i, runs), decide(ring, i, runs)
        X[done : done + len(x)], labels[done : done + len(x)] = x, rows
        done += len(x)
        return rows, unmet

    for _ in _slots(scenario, [(harvest, slice(1))], [None], [None]):
        pass
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
