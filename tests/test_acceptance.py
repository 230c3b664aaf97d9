"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavyweight fixtures (training, the lambda sweep) are session-scoped and
shared, so the whole module stays inside the stated runtime targets. Run
with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""
import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from twinslice import nn, runner
from twinslice.domain import (
    AllocationMatrix,
    QoSRequirement,
    ResourceGrid,
    ServiceClass,
    validate_allocation,
)
from twinslice.nn import MLP, decode_output, forward
from twinslice.policy import oracle_allocate
from twinslice.scenario import ExperimentSpec, load_scenario
from twinslice.twin import DelayClass, DigitalTwin, calibrate

from conftest import make_snapshot, make_users, tiny_scenario

pytestmark = pytest.mark.slow

LAMBDAS = (100.0, 125.0, 150.0, 175.0, 200.0)


def _report(num, name, ok, detail):
    print(f"\nCRITERION {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="session")
def default_scenario(repo_root_scenarios):
    return load_scenario(repo_root_scenarios / "default.cfg")


@pytest.fixture(scope="session")
def trained(default_scenario, tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_train")
    t0 = time.monotonic()
    artifacts = runner.train_command(default_scenario, out_dir=str(out))
    elapsed = time.monotonic() - t0
    return artifacts, elapsed


@pytest.fixture(scope="session")
def sweep(default_scenario, trained):
    """Mean SE per (policy, lambda) over the full horizon, with run timing."""
    artifacts, _ = trained
    net, _ = nn.load_weights(artifacts.weights_path)
    se = {}
    times = {}
    run_index = 0
    for policy, lam in itertools.product(("orthogonal", "dnn+repair"), LAMBDAS):
        t0 = time.monotonic()
        run = runner.simulate(
            default_scenario,
            policy,
            lam=lam,
            seed=runner.derive_seed(default_scenario.seed, run_index),
            net=net if policy.startswith("dnn") else None,
        )
        times[(policy, lam)] = time.monotonic() - t0
        se[(policy, lam)] = run.summary.mean_spectral_efficiency
        run_index += 1
    return se, times


def test_criterion_1_dynamic_gain_at_low_load(trained, sweep):
    _, train_time = trained
    se, times = sweep
    ratio = se[("dnn+repair", 100.0)] / se[("orthogonal", 100.0)]
    runtime = train_time + times[("orthogonal", 100.0)] + times[("dnn+repair", 100.0)]
    ok = ratio >= 1.3 and runtime < 300.0
    _report(
        1,
        "dynamic-vs-orthogonal gain at lambda=100",
        ok,
        f"SE ratio {ratio:.3f} (need >= 1.3), runtime {runtime:.0f}s (need < 300s)",
    )


def test_criterion_2_gap_shrinks_with_load(trained, sweep):
    _, train_time = trained
    se, times = sweep
    gaps = [se[("dnn+repair", lam)] - se[("orthogonal", lam)] for lam in LAMBDAS]
    strictly_decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    runtime = train_time + sum(times.values())
    ok = strictly_decreasing and runtime < 600.0
    _report(
        2,
        "SE gap strictly decreasing over the lambda sweep",
        ok,
        f"gaps {[f'{g:.3f}' for g in gaps]}, runtime {runtime:.0f}s (need < 600s)",
    )


def test_criterion_3_near_crossover_at_high_load(sweep):
    se, _ = sweep
    orth = se[("orthogonal", 200.0)]
    dyn = se[("dnn+repair", 200.0)]
    rel = abs(dyn - orth) / orth
    _report(
        3,
        "near-crossover at lambda=200",
        rel <= 0.15,
        f"orth {orth:.3f} vs dnn+repair {dyn:.3f}, relative gap {rel:.3f} (need <= 0.15)",
    )


def test_criterion_4_outage_tail(default_scenario, trained):
    artifacts, _ = trained
    net, _ = nn.load_weights(artifacts.weights_path)
    run = runner.simulate(default_scenario, "dnn+repair", net=net)
    mass = run.summary.cdf.exceedance_mass
    qos = default_scenario.qos
    ok = (
        mass <= 0.05
        and qos.urllc_outage_threshold == 0.07
        and qos.urllc_packet_bits == 256
        and default_scenario.horizon_slots == 5000
    )
    _report(
        4,
        "outage exceedance mass over 100-slot windows",
        ok,
        f"exceedance {mass:.4f} (need <= 0.05) across "
        f"{run.summary.n_slots // default_scenario.outage_window} windows",
    )


def _independent_enumeration(snap, grid, users, qos, tau, penalty):
    """Plain-loop brute force, written apart from the policy module."""
    ids = sorted(u.id for u in users)
    service = {u.id: u.service for u in users}
    rows = {u.id: snap.channel.row(u.id) for u in users}
    load = qos.urllc_packet_bits * snap.traffic.urllc_rate
    best_obj = -math.inf
    best = None
    for combo in itertools.product(ids, repeat=grid.num_rbs):
        total = 0.0
        urllc = 0.0
        embb_def = 0.0
        for uid in ids:
            r = 0.0
            for b, holder in enumerate(combo):
                if holder == uid:
                    r += grid.rb_bandwidth * math.log2(1.0 + rows[uid][b]) * tau
            total += r
            if service[uid] is ServiceClass.URLLC:
                urllc += r
            else:
                embb_def += max(0.0, qos.embb_min_rate * tau - r)
        obj = total - penalty * max(0.0, load - urllc) - penalty * embb_def
        if obj > best_obj:
            best_obj = obj
            best = combo
    return best, best_obj


def test_criterion_5_oracle_exactness():
    rng = np.random.default_rng(2024)
    penalty = 5e6
    failures = 0
    for i in range(200):
        n_users = int(rng.integers(2, 4))  # 2..3 users
        n_rbs = int(rng.integers(2, 5))  # 2..4 blocks
        n_urllc = int(rng.integers(1, n_users))
        users = make_users(n_users - n_urllc, n_urllc)
        grid = ResourceGrid(n_rbs, 1e5)
        qos = QoSRequirement(embb_min_rate=float(rng.uniform(0, 3e4)))
        snap = make_snapshot(
            rng.exponential(2.0, (n_users, n_rbs)), users, lam=float(rng.uniform(0, 5))
        )
        d = oracle_allocate(
            snap, grid, users, qos, 1e-3, mode="exhaustive", penalty_weight=penalty
        )
        ref_alloc, ref_obj = _independent_enumeration(
            snap, grid, users, qos, 1e-3, penalty
        )
        if d.allocation.assignment != ref_alloc or d.objective_estimate != ref_obj:
            failures += 1
    _report(
        5,
        "exhaustive oracle matches independent enumeration",
        failures == 0,
        f"{200 - failures}/200 instances exact (zero tolerance)",
    )


def test_criterion_6_gradient_correctness():
    rng = np.random.default_rng(99)
    worst = 0.0
    for i in range(20):
        rbs = int(rng.integers(1, 4))
        n_users = int(rng.integers(2, 5))
        net = MLP.glorot(
            [4, int(rng.integers(4, 7)), rbs * n_users], (rbs, n_users), seed=500 + i
        )
        x = rng.standard_normal(4)
        labels = rng.integers(0, n_users, size=rbs)
        worst = max(worst, nn.grad_check(net, x, labels))

    rbs, n_users = 6, 9
    net0 = MLP.zeros([8, 10, rbs * n_users], (rbs, n_users))
    X = rng.standard_normal((3, 8))
    L = rng.integers(0, n_users, size=(3, rbs))
    loss0, _, _ = nn.loss_and_grads(net0, X, L)
    ce_err = abs(loss0 - rbs * math.log(n_users))
    ok = worst < 1e-4 and ce_err < 1e-9
    _report(
        6,
        "backprop vs finite differences and uniform-softmax loss",
        ok,
        f"max rel grad error {worst:.2e} (need < 1e-4), CE error {ce_err:.2e} (need < 1e-9)",
    )


def test_criterion_7_softmax_and_feasibility_fuzz():
    rng = np.random.default_rng(7)
    users = make_users(3, 2)
    grid = ResourceGrid(6, 1e5)
    bad_rows = 0
    bad_allocs = 0
    nets = [
        MLP.glorot([12, 10, 30], (6, 5), seed=s) for s in range(20)
    ]
    for i in range(10_000):
        net = nets[i % len(nets)]
        y = forward(net, rng.standard_normal(12) * rng.uniform(0.1, 10))
        if not np.all(np.abs(y.probs.sum(axis=1) - 1.0) <= 1e-6):
            bad_rows += 1
        if not validate_allocation(decode_output(y, users), grid, users):
            bad_allocs += 1
    ok = bad_rows == 0 and bad_allocs == 0
    _report(
        7,
        "10,000 forward passes: rows sum to 1 and decodes validate",
        ok,
        f"{bad_rows} bad rows, {bad_allocs} invalid allocations",
    )


def test_criterion_8_twin_fidelity():
    base = tiny_scenario(horizon=200)

    # MINIMAL delay: divergence must be exactly zero on every slot.
    env = base.environment()
    twin = DigitalTwin(delay=DelayClass.MINIMAL)
    exact = True
    for t in range(200):
        twin.record(env.state)
        report = calibrate(twin.snapshot(now=t), env.state)
        exact = exact and report.mean_abs_snr_error == 0.0 and report.passed
        env.step(AllocationMatrix((0, 1, 2, 2)))

    # nonzero delays: staleness equals the configured delay past warm-up
    steady = True
    for delay, slots in ((DelayClass.MODERATE, 3), (DelayClass.SIGNIFICANT, 17)):
        env = base.environment()
        twin = DigitalTwin(delay=delay, moderate_slots=3, significant_slots=17)
        for t in range(200):
            twin.record(env.state)
            snap = twin.snapshot(now=t)
            if t >= slots and (t - snap.captured_at) != slots:
                steady = False
            env.step(AllocationMatrix((0, 1, 2, 2)))
    ok = exact and steady
    _report(
        8,
        "twin fidelity: zero-delay exactness and steady-state staleness",
        ok,
        f"zero-delay exact={exact}, staleness matches configured delay={steady}",
    )


def test_criterion_9_byte_identical_reruns(tmp_path_factory):
    scen = tiny_scenario(horizon=300)
    cfg = nn.TrainConfig(learning_rate=0.2, epochs=6, batch_size=32, seed=0)
    outputs = []
    for tag in ("first", "second"):
        out = tmp_path_factory.mktemp(f"det_{tag}")
        artifacts = runner.train_command(scen, cfg, str(out / "train"))
        spec = ExperimentSpec(
            scenario=scen,
            policies=("orthogonal", "dnn+repair"),
            out_dir=str(out / "runs"),
            lambdas=(2.0, 4.0),
            weights_path=artifacts.weights_path,
        )
        runner.run_experiment(spec)
        blobs = {"weights.bin": Path(artifacts.weights_path).read_bytes()}
        blobs["loss_curve.csv"] = Path(artifacts.loss_csv_path).read_bytes()
        for p in sorted(Path(out / "runs").iterdir()):
            blobs[p.name] = p.read_bytes()
        outputs.append(blobs)
    first, second = outputs
    same = set(first) == set(second) and all(
        first[name] == second[name] for name in first
    )
    _report(
        9,
        "same spec and seed reproduce byte-identical artifacts",
        same,
        f"{len(first)} files compared",
    )
