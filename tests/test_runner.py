import math
import os
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from twinslice import domain, envsim, metrics, nn, policy, runner, scenario, twin
from twinslice.metrics import CSV_COLUMNS
from twinslice.scenario import ExperimentSpec, load_scenario
from twinslice.twin import DelayClass

from conftest import make_snapshot, tiny_scenario


def _read(path):
    with open(path, "rb") as f:
        return f.read()


@pytest.fixture(scope="module")
def tiny_weights(tmp_path_factory):
    scen = tiny_scenario(horizon=300)
    out = tmp_path_factory.mktemp("weights")
    cfg = nn.TrainConfig(learning_rate=0.2, epochs=8, batch_size=32, seed=0)
    return runner.train_command(scen, cfg, str(out)), scen


def test_single_run_writes_csv_and_table(tmp_path):
    scen = tiny_scenario(horizon=120)
    spec = ExperimentSpec(
        scenario=scen, policies=("orthogonal",), out_dir=str(tmp_path), lambdas=(2.0,)
    )
    results = runner.run_experiment(spec)
    assert len(results) == 1
    assert (tmp_path / "orthogonal_lam2.csv").exists()
    assert (tmp_path / "orthogonal_lam2.csv.summary").exists()
    table = (tmp_path / "comparison.csv").read_text().splitlines()
    assert table[0].startswith("policy_id,lambda,")
    assert len(table) == 2


def test_sweep_is_a_cartesian_product(tmp_path):
    scen = tiny_scenario(horizon=60)
    spec = ExperimentSpec(
        scenario=scen,
        policies=("orthogonal", "oracle"),
        out_dir=str(tmp_path),
        lambdas=(1.0, 2.0, 3.0),
    )
    results = runner.run_experiment(spec)
    assert len(results) == 6
    csvs = sorted(p.name for p in tmp_path.glob("*_lam*.csv"))
    assert len(csvs) == 6


def test_rerun_is_byte_identical(tmp_path):
    scen = tiny_scenario(horizon=150)
    for sub in ("a", "b"):
        spec = ExperimentSpec(
            scenario=scen,
            policies=("orthogonal", "oracle"),
            out_dir=str(tmp_path / sub),
            lambdas=(2.0,),
        )
        runner.run_experiment(spec)
    for name in os.listdir(tmp_path / "a"):
        assert _read(tmp_path / "a" / name) == _read(tmp_path / "b" / name), name


def test_csv_rows_cover_every_slot(tmp_path):
    scen = tiny_scenario(horizon=75)
    spec = ExperimentSpec(
        scenario=scen, policies=("oracle",), out_dir=str(tmp_path), lambdas=(2.0,)
    )
    runner.run_experiment(spec)
    lines = (tmp_path / "oracle_lam2.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 75
    assert [int(l.split(",")[0]) for l in lines[1:]] == list(range(75))


def test_derived_seeds_are_stable_and_distinct():
    seeds = [runner.derive_seed(1, i) for i in range(5)]
    assert len(set(seeds)) == 5
    assert seeds == [runner.derive_seed(1, i) for i in range(5)]


def test_loop_order_decision_uses_past_twin_state_only():
    scen = tiny_scenario(horizon=80)
    from dataclasses import replace

    from twinslice.twin import DelayClass

    delayed = replace(scen, twin_delay=DelayClass.MODERATE, moderate_slots=2)
    run = runner.simulate(delayed, "orthogonal")
    assert len(run.staleness_log) == 80
    assert all(s >= 0 for s in run.staleness_log)
    # steady state: the applied snapshot is exactly the configured delay old
    assert all(s == 2 for s in run.staleness_log[2:])


def test_train_command_artifacts(tiny_weights):
    artifacts, scen = tiny_weights
    assert os.path.exists(artifacts.weights_path)
    lines = open(artifacts.loss_csv_path).read().splitlines()
    assert lines[0] == "step,epoch,loss"
    # one pre-update row plus one row per optimisation step
    steps_per_epoch = math.ceil(300 / 32)
    assert len(lines) - 1 == 1 + 8 * steps_per_epoch

    # step-0 loss of a fresh net sits near the uniform-softmax value
    loss0 = float(lines[1].split(",")[2])
    assert abs(loss0 - 4 * math.log(3)) / (4 * math.log(3)) < 0.10

    net, seed = nn.load_weights(artifacts.weights_path)
    assert seed == 0
    assert net.output_shape == (4, 3)


def test_scenario_nets_train_and_serve_in_float32(tiny_weights):
    artifacts, scen = tiny_weights
    cfg = nn.TrainConfig(seed=0)
    net = runner.build_net(scen, cfg)
    glorot = nn.MLP.glorot(net.layer_sizes, net.output_shape, seed=0)
    assert net.dtype == np.float32
    assert all(
        np.array_equal(a, b.astype(np.float32))
        for a, b in zip(net.weights + net.biases, glorot.weights + glorot.biases)
    )
    trained = artifacts.result.net
    loaded, _ = nn.load_weights(artifacts.weights_path)
    assert trained.dtype == loaded.dtype == np.float32
    for a, b in zip(trained.weights + trained.biases, loaded.weights + loaded.biases):
        assert np.array_equal(a, b)


def test_retrain_same_seed_is_byte_identical(tmp_path):
    scen = tiny_scenario(horizon=200)
    cfg = nn.TrainConfig(learning_rate=0.2, epochs=4, batch_size=32, seed=5)
    a = runner.train_command(scen, cfg, str(tmp_path / "a"))
    b = runner.train_command(scen, cfg, str(tmp_path / "b"))
    assert _read(a.weights_path) == _read(b.weights_path)
    assert _read(a.loss_csv_path) == _read(b.loss_csv_path)


def test_dnn_policies_run_and_match_their_ids(tiny_weights, tmp_path):
    artifacts, scen = tiny_weights
    spec = ExperimentSpec(
        scenario=scen,
        policies=("dnn", "dnn+repair"),
        out_dir=str(tmp_path),
        lambdas=(2.0,),
        weights_path=artifacts.weights_path,
    )
    results = runner.run_experiment(spec)
    assert [policy for policy, _, _ in results] == ["dnn", "dnn+repair"]
    assert (tmp_path / "dnn_lam2.csv").exists()
    assert (tmp_path / "dnn_repair_lam2.csv").exists()


def test_dnn_requires_weights():
    scen = tiny_scenario(horizon=10)
    spec = ExperimentSpec(
        scenario=scen, policies=("dnn",), out_dir="unused", lambdas=(1.0,)
    )
    with pytest.raises(ValueError, match="weights"):
        runner.run_experiment(spec)


@pytest.mark.parametrize("lam", [1e300, 9.3e18])
def test_an_undrawable_lambda_override_is_a_config_error(lam, monkeypatch):
    """A lambda numpy cannot draw, given through the Python API, is the
    scenario's ``ConfigError`` naming it, raised before anything is drawn."""

    def drawn(*args, **kwargs):
        raise AssertionError("an environment was built")

    monkeypatch.setattr(scenario, "Environment", drawn)
    named = re.escape(f"urllc_lambda {lam:g} ")
    with pytest.raises(domain.ConfigError, match=named):
        runner.simulate(tiny_scenario(horizon=5), "orthogonal", lam=lam)
    with pytest.raises(domain.ConfigError, match=named):
        tiny_scenario().environments([None, 1], [2.0, lam])


def test_unknown_policy_is_rejected():
    scen = tiny_scenario(horizon=10)
    with pytest.raises(ValueError, match="unknown policy"):
        runner.simulate(scen, "genie")


def test_twin_dump_writes_staleness_log(tmp_path):
    from dataclasses import replace

    from twinslice.twin import DelayClass

    scen = replace(
        tiny_scenario(horizon=40), twin_delay=DelayClass.MODERATE, moderate_slots=2
    )
    spec = ExperimentSpec(
        scenario=scen,
        policies=("orthogonal",),
        out_dir=str(tmp_path),
        lambdas=(2.0,),
        dump_twin=True,
    )
    runner.run_experiment(spec)
    lines = (tmp_path / "orthogonal_lam2.twin.csv").read_text().splitlines()
    assert lines[0] == "t,captured_at,delivered_at,staleness,stale_underflow"
    assert len(lines) == 1 + 40
    # steady state: staleness column equals the configured delay
    tail = [int(l.split(",")[3]) for l in lines[3:]]
    assert all(s == 2 for s in tail)
    # warm-up rows are flagged as underflow
    assert lines[1].endswith(",1")


def test_schedule_lambda_varies_in_logged_metrics():
    scen = tiny_scenario(horizon=60)
    from dataclasses import replace

    from twinslice.scenario import LambdaSchedule

    cycled = replace(
        scen, lambda_schedule=LambdaSchedule(values=(1.0, 3.0), dwell=10)
    )
    run = runner.simulate(cycled, "orthogonal")
    lams = {s.lambda_t for s in run.slots}
    assert lams == {1.0, 3.0}


def _labels_slot_by_slot(scen):
    """Reference harvest from the per-call forms: every slot records,
    snapshots the delivery, asks ``oracle_allocate`` and encodes the
    snapshot alone, then steps the environment one slot."""
    env, digital = scen.environment(), scen.make_twin()
    users, grid, qos, tau = scen.users(), scen.grid, scen.qos, scen.slot_duration
    col = {u.id: c for c, u in enumerate(users)}
    X, labels = [], []
    for t in range(scen.horizon_slots):
        digital.record(env.state)
        snap = digital.snapshot(now=t)
        decision = policy.oracle_allocate(snap, grid, users, qos, tau)
        X.append(nn.encode_features(snap, grid, users, qos, scen.scaling()))
        labels.append([col[uid] for uid in decision.allocation.assignment])
        env.step(decision.allocation)
    return np.array(X), np.array(labels)


@pytest.mark.parametrize(
    "delay, cadence", [(DelayClass.SIGNIFICANT, 1), (DelayClass.MODERATE, 3)]
)
def test_stale_label_harvest_is_the_slot_by_slot_harvest(delay, cadence, repo_root_scenarios):
    """Behind a stale twin, ``collect_training_data``'s features and labels
    are bit for bit those of a harvest that decides and encodes one
    snapshot per slot."""
    scen = replace(
        load_scenario(repo_root_scenarios / "tiny.cfg"), horizon_slots=400,
        twin_delay=delay, twin_cadence=cadence,
    )
    X, labels = runner.collect_training_data(scen)
    want_X, want_labels = _labels_slot_by_slot(scen)
    assert X.tobytes() == want_X.tobytes()
    assert labels.tobytes() == want_labels.astype(labels.dtype).tobytes()


@pytest.mark.parametrize(
    "cfg,delay,policy_id",
    [
        ("default.cfg", DelayClass.MINIMAL, "orthogonal"),
        ("default.cfg", DelayClass.MINIMAL, "oracle"),
        ("default.cfg", DelayClass.MINIMAL, "dnn+repair"),
        ("tiny.cfg", DelayClass.SIGNIFICANT, "orthogonal"),
        ("tiny.cfg", DelayClass.SIGNIFICANT, "oracle"),
        ("tiny.cfg", DelayClass.SIGNIFICANT, "dnn+repair"),
    ],
)
def test_one_rate_matrix_per_physical_state(
    cfg, delay, policy_id, repo_root_scenarios, monkeypatch
):
    """The environment, the twin's snapshots and the policy share each
    state's rate matrix: 100 slots compute 100 matrices, one per state,
    whether a call computes one state or a window's states."""
    scen = replace(
        load_scenario(repo_root_scenarios / cfg), horizon_slots=100, twin_delay=delay
    )
    n_users, num_rbs = scen.n_embb + scen.n_urllc, scen.num_rbs
    net = nn.MLP.glorot(
        [nn.feature_dim(n_users, num_rbs), 16, num_rbs * n_users],
        (num_rbs, n_users),
        seed=0,
    )
    computed = []
    kernel = envsim.block_rates

    def counted(snr, bw, tau):
        computed.extend(snr.reshape(-1, *snr.shape[-3:]).copy())  # one [R, U, B] per state
        return kernel(snr, bw, tau)

    monkeypatch.setattr(envsim, "block_rates", counted)
    runner.simulate(scen, policy_id, lam=100.0, net=net)
    assert len(computed) == 100
    assert len({snr.tobytes() for snr in computed}) == 100


def test_lockstep_experiment_computes_one_rate_matrix_per_slot_for_all_runs(
    repo_root_scenarios, tmp_path, monkeypatch
):
    """``run_experiment`` steps its 2 policies x 3 lambdas in lockstep: 100
    slots compute 100 rate matrices, one per state, each over all 6 runs."""
    scen = replace(
        load_scenario(repo_root_scenarios / "tiny.cfg"),
        horizon_slots=100,
        twin_delay=DelayClass.SIGNIFICANT,
    )
    computed = []
    kernel = envsim.block_rates

    def counted(snr, bw, tau):
        computed.extend(snr.reshape(-1, *snr.shape[-3:]).copy())  # one [R, U, B] per state
        return kernel(snr, bw, tau)

    monkeypatch.setattr(envsim, "block_rates", counted)
    runner.run_experiment(
        ExperimentSpec(
            scenario=scen,
            policies=("orthogonal", "oracle"),
            out_dir=str(tmp_path),
            lambdas=(1.0, 4.0, 16.0),
        )
    )
    assert len(computed) == 100
    assert {snr.shape for snr in computed} == {(6, 3, 4)}
    assert len({snr.tobytes() for snr in computed}) == 100


@pytest.mark.parametrize("policies", [("orthogonal", "oracle"), ("oracle", "orthogonal")])
def test_mixed_experiment_runs_are_each_run_alone(policies, repo_root_scenarios, tmp_path):
    """Each policy of a mixed experiment decides its own block of runs: every
    run's CSV and summary are those of ``simulate`` of that run alone."""
    scen = replace(load_scenario(repo_root_scenarios / "tiny.cfg"), horizon_slots=200)
    spec = ExperimentSpec(
        scenario=scen, policies=policies, out_dir=str(tmp_path / "sweep"),
        lambdas=(1.0, 4.0, 16.0),
    )
    runner.run_experiment(spec)
    for run_index, (policy_id, lam, stem) in enumerate(spec.runs()):
        seed = runner.derive_seed(scen.seed, run_index)
        run = runner.simulate(scen, policy_id, lam=lam, seed=seed)
        alone = str(tmp_path / f"{stem}.alone.csv")
        metrics.export_csv(run.records, run.summary, alone)
        for suffix in ("", ".summary"):
            assert _read(alone + suffix) == _read(tmp_path / "sweep" / f"{stem}.csv{suffix}")


def test_per_call_forms_sort_one_users_tuple_once(monkeypatch):
    """``oracle_allocate`` and ``encode_features`` called slot after slot with
    one users tuple derive its layout once; a list is sorted on every call."""
    scen = tiny_scenario()
    users, grid, qos, tau = scen.users(), scen.grid, scen.qos, scen.slot_duration
    snap = make_snapshot(np.full((3, 4), 5.0), users, lam=2.0)
    calls = []
    sort = domain.canonical_users

    def counted_sort(given):
        calls.append(given)
        return sort(given)

    monkeypatch.setattr(domain, "canonical_users", counted_sort)
    for _ in range(50):
        policy.oracle_allocate(snap, grid, users, qos, tau)
        nn.encode_features(snap, grid, users, qos, scen.scaling())
    assert len(calls) == 1
    for _ in range(2):
        policy.oracle_allocate(snap, grid, list(users), qos, tau)
    assert len(calls) == 3


@pytest.mark.parametrize("policy_id", runner.POLICY_IDS + ("labels",))
def test_no_per_slot_user_sorting_or_state_objects(policy_id, monkeypatch):
    """A run derives its user order once (``canonical_users`` runs a fixed
    number of times, whatever the horizon) and no slot builds, copies or
    scans a ``ChannelState`` or ``TrafficState``."""
    calls = {"canonical_users": 0, "ChannelState": 0, "TrafficState": 0}
    sort = domain.canonical_users

    def counted_sort(users):
        calls["canonical_users"] += 1
        return sort(users)

    for module in (domain, envsim, nn, policy, runner, scenario, twin):
        if hasattr(module, "canonical_users"):
            monkeypatch.setattr(module, "canonical_users", counted_sort)
    for cls in (domain.ChannelState, domain.TrafficState):

        def counted_check(self, check=cls.__post_init__, name=cls.__name__):
            calls[name] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counted_check)

    net = nn.MLP.glorot([nn.feature_dim(3, 4), 8, 12], (4, 3), seed=0)

    def run(horizon):
        calls.update(dict.fromkeys(calls, 0))
        scen = replace(
            tiny_scenario(horizon=horizon), twin_delay=DelayClass.MODERATE, twin_cadence=2
        )
        if policy_id == "labels":
            runner.collect_training_data(scen)
        else:
            runner.simulate(scen, policy_id, net=net)
        return dict(calls)

    short, long = run(10), run(50)
    assert short == long
    assert short["ChannelState"] == short["TrafficState"] == 0
    assert 0 < short["canonical_users"] <= 4


def test_run_records_hold_no_per_slot_objects(repo_root_scenarios):
    """A sweep's results are columns: 5 runs x 2000 tiny.cfg slots keep at
    most 64 B per run-slot. Per-slot record objects, with their own fields
    and a per-run copy of the twin log, kept 256 B."""
    scen = load_scenario(repo_root_scenarios / "tiny.cfg")
    runs = [("orthogonal", lam, seed) for seed, lam in enumerate((1.0, 2.0, 4.0, 8.0, 16.0))]
    runner._simulate(replace(scen, horizon_slots=20), runs, None)  # fill caches
    scen = replace(scen, horizon_slots=2000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        results = runner._simulate(scen, runs, None)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(results) == 5
    assert held <= 64 * 5 * 2000, f"{held / (5 * 2000):.0f} B per run-slot"


def test_the_slot_loop_builds_no_matrix_decision_or_objective(
    repo_root_scenarios, tmp_path, monkeypatch
):
    """The runs of every policy and the oracle labels decide in user-row
    arrays on the twin's ring entry: ``AllocationMatrix``, ``PolicyDecision``,
    ``allocation_objective`` and ``TwinSnapshot`` views belong to the
    per-call forms only."""
    scen = replace(load_scenario(repo_root_scenarios / "tiny.cfg"), horizon_slots=100)
    net = nn.MLP.glorot([nn.feature_dim(3, 4), 8, 12], (4, 3), seed=0).astype(np.float32)
    weights = str(tmp_path / "weights.bin")
    nn.save_weights(net, weights, seed=0)

    def built(*args, **kwargs):
        raise AssertionError("the slot loop built a per-call object")

    monkeypatch.setattr(domain.AllocationMatrix, "__init__", built)
    monkeypatch.setattr(policy.PolicyDecision, "__init__", built)
    monkeypatch.setattr(policy, "allocation_objective", built)
    monkeypatch.setattr(twin.TwinSnapshot, "view", classmethod(built))
    spec = ExperimentSpec(
        scenario=scen, policies=runner.POLICY_IDS, out_dir=str(tmp_path / "out"),
        lambdas=(1.0, 4.0), weights_path=weights,
    )
    assert len(runner.run_experiment(spec)) == 8
    X, labels = runner.collect_training_data(scen)
    assert X.shape[0] == labels.shape[0] == 100
    snap = make_snapshot(np.ones((3, 4)), scen.users(), lam=2.0)
    args = (snap, scen.grid, scen.users(), scen.qos, scen.slot_duration)
    with pytest.raises(AssertionError, match="per-call object"):  # the patches bite
        policy.oracle_allocate(*args)
    digital = scen.make_twin()
    digital.record(scen.environment().state)
    with pytest.raises(AssertionError, match="per-call object"):
        digital.snapshot(now=0)
    monkeypatch.undo()
    monkeypatch.setattr(policy, "allocation_objective", built)
    with pytest.raises(AssertionError, match="per-call object"):  # and this one alone
        policy.oracle_allocate(*args)
