from dataclasses import replace

import numpy as np
import pytest

from twinslice import runner
from twinslice.domain import (
    UNASSIGNED,
    AllocationMatrix,
    ChannelState,
    QoSRequirement,
    ResourceGrid,
    TrafficState,
)
from twinslice.nn import FeatureScaling, encode_features
from twinslice.policy import (
    OrthogonalConfig,
    allocation_objective,
    oracle_allocate,
    orthogonal_allocate,
)
from twinslice.scenario import ExperimentSpec, load_scenario
from twinslice.twin import (
    CalibrationTolerances,
    DelayClass,
    DigitalTwin,
    TwinSnapshot,
    calibrate,
    delay_to_slots,
)

from conftest import make_env, make_users


def _env(seed=0, lam=20.0):
    return make_env(make_users(2, 1), ResourceGrid(4, 1e5), lam=lam, seed=seed)


def _roll(env, twin, n, assignment=(0, 1, 2, 2)):
    m = AllocationMatrix(assignment)
    for _ in range(n):
        twin.record(env.state)
        env.step(m)


def test_delay_class_mapping_is_ordered():
    assert delay_to_slots(DelayClass.MINIMAL) == 0
    assert delay_to_slots(DelayClass.MODERATE, 3, 30) == 3
    assert delay_to_slots(DelayClass.SIGNIFICANT, 3, 30) == 30
    with pytest.raises(ValueError):
        delay_to_slots(DelayClass.MODERATE, 5, 2)


@pytest.mark.parametrize("delay", list(DelayClass))
def test_the_ring_covers_the_delay_and_the_cadence(delay):
    for cadence in (1, 3):
        twin = DigitalTwin(delay, cadence=cadence)
        assert twin.ring_depth == twin.delay_slots + 1 + cadence


def test_minimal_delay_snapshot_equals_physical():
    env = _env()
    twin = DigitalTwin(delay=DelayClass.MINIMAL)
    _roll(env, twin, 3)
    twin.record(env.state)
    snap = twin.snapshot(now=3)
    assert np.array_equal(snap.channel.snr, env.state.channel.snr)
    assert snap.captured_at == 3


def test_moderate_delay_capture_and_delivery_slots():
    env = _env()
    twin = DigitalTwin(delay=DelayClass.MODERATE, moderate_slots=2)
    _roll(env, twin, 11)
    snap = twin.snapshot(now=10)
    assert snap.captured_at == 8
    assert snap.delivered_at == 10


def test_significant_delay_steady_state_staleness():
    env = _env()
    twin = DigitalTwin(delay=DelayClass.SIGNIFICANT, significant_slots=5)
    stalenesses = []
    for t in range(30):
        twin.record(env.state)
        snap = twin.snapshot(now=t)
        stalenesses.append(t - snap.captured_at)
        env.step(AllocationMatrix((0, 1, 2, 2)))
    assert all(s == 5 for s in stalenesses[5:])
    # warm-up underflow is flagged, not fatal
    assert stalenesses[0] == 0


def test_staleness_monotone_between_syncs():
    env = _env()
    twin = DigitalTwin(cadence=4)
    ages = []
    for t in range(9):
        twin.record(env.state)
        snap = twin.snapshot(now=t)
        ages.append(t - snap.captured_at)
        env.step(AllocationMatrix((0, 1, 2, 2)))
    assert ages == [0, 1, 2, 3, 0, 1, 2, 3, 0]


def test_sync_underflow_returns_oldest_and_flags():
    env = _env()
    twin = DigitalTwin(delay=DelayClass.SIGNIFICANT, significant_slots=10)
    twin.record(env.state)
    snap = twin.snapshot(now=0)
    assert snap.stale_underflow
    assert snap.captured_at == 0


@pytest.mark.parametrize("delay", list(DelayClass))
@pytest.mark.parametrize("cadence", [1, 2, 3])
def test_a_delivery_taken_ahead_is_the_one_taken_at_its_slot(delay, cadence):
    """Once slot t is recorded the deliveries up to slot t + delay_slots are
    fixed: taken ahead, a window at a time as the runner takes them, they
    equal those taken at their own slots. One slot further asks for a
    capture not recorded yet, which raises instead of serving another slot."""

    def make():
        return DigitalTwin(delay, moderate_slots=2, significant_slots=5, cadence=cadence)

    env, own, ahead = _env(), make(), make()
    span = own.delay_slots + 1
    want, got = [], []
    for t in range(23):
        own.record(env.state)
        ahead.record(env.state)
        want.append(own.deliver(now=t))
        if t % span == 0:
            got += [ahead.deliver(now=s) for s in range(t, t + span)]
        env.step(AllocationMatrix((0, 1, 2, 2)))
    assert got[: len(want)] == want
    last = env.state.t
    fresh = make()
    fresh.record(env.state)
    assert fresh.deliver(now=last + span - 1) == (last, last + span - 1, False)
    fresh = make()
    fresh.record(env.state)
    with pytest.raises(ValueError, match="not recorded yet"):
        fresh.deliver(now=last + span)


def test_snapshot_is_isolated_from_later_steps():
    # Snapshots share the recorded read-only states instead of copying them.
    env = _env()
    twin = DigitalTwin()
    twin.record(env.state)
    snap = twin.snapshot(now=0)
    with pytest.raises(ValueError):
        snap.channel.snr[0, 0] = 1.0
    with pytest.raises(ValueError):
        snap.traffic.urllc_queue[0] = 1.0
    before = snap.channel.snr.copy()
    env.step(AllocationMatrix((0, 1, 2, 2)))
    assert np.array_equal(snap.channel.snr, before)


def test_delayed_snapshots_keep_their_slot_over_many_steps():
    env = _env(seed=4)
    twin = DigitalTwin(delay=DelayClass.SIGNIFICANT, significant_slots=5)
    seen = []  # (snr, queue) copies of the physical state at each slot
    held = []  # (snapshot, its content when delivered)
    for t in range(60):
        state = env.state
        seen.append((state.channel.snr.copy(), state.traffic.urllc_queue.copy()))
        twin.record(env.state)
        snap = twin.snapshot(now=t)
        held.append((snap, snap.channel.snr.copy(), snap.traffic.urllc_queue.copy()))
        env.step(AllocationMatrix((0, 1, 2, 2)))
    for snap, snr, queue in held:
        assert np.array_equal(snap.channel.snr, snr)
        assert np.array_equal(snap.traffic.urllc_queue, queue)
        assert np.array_equal(snr, seen[snap.captured_at][0])
        assert np.array_equal(queue, seen[snap.captured_at][1])
    assert held[-1][0].captured_at == 54


@pytest.mark.parametrize("decide", ["orthogonal", "oracle", "encode"])
def test_an_expired_snapshot_raises_instead_of_reading_another_slot(decide):
    env, twin = _env(), DigitalTwin()  # a ring of delay + 1 + cadence = 2
    twin.record(env.state)
    snap = twin.snapshot(now=0)
    for _ in range(2):  # slot 2 takes slot 0's entry
        env.step(AllocationMatrix((0, 1, 2, 2)))
        twin.record(env.state)
    users, grid, qos = make_users(2, 1), ResourceGrid(4, 1e5), QoSRequirement()
    with pytest.raises(LookupError, match="slot 0 has left"):
        if decide == "orthogonal":
            orthogonal_allocate(snap, OrthogonalConfig(), grid, users, 1e-3)
        elif decide == "oracle":
            oracle_allocate(snap, grid, users, qos, 1e-3)
        else:
            encode_features(snap, grid, users, qos, FeatureScaling())


def test_record_takes_every_slot_in_order():
    env, twin = _env(), DigitalTwin()
    with pytest.raises(ValueError, match="no physical state recorded"):
        twin.snapshot(now=0)
    twin.record(env.state)
    for _ in range(2):
        env.step(AllocationMatrix((0, 1, 2, 2)))
    with pytest.raises(ValueError, match="slot 2 recorded after slot 0"):
        twin.record(env.state)


def test_hand_built_snapshot_traffic_ids_must_be_the_channel_urllc_users():
    channel = ChannelState(snr=np.ones((3, 2)), user_ids=(0, 1, 2))
    TwinSnapshot(0, 0, channel, TrafficState(0.0, np.zeros(2), (1, 2)), QoSRequirement())
    for ids in ((2, 1), (1, 5), (5,)):
        traffic = TrafficState(0.0, np.zeros(len(ids)), ids)
        with pytest.raises(ValueError, match="are not the channel's URLLC users"):
            TwinSnapshot(0, 0, channel, traffic, QoSRequirement())


def test_calibrate_identity_is_exactly_zero():
    env = _env()
    twin = DigitalTwin()
    twin.record(env.state)
    report = calibrate(twin.snapshot(now=0), env.state)
    assert report.mean_abs_snr_error == 0.0
    assert report.mean_abs_queue_error == 0.0
    assert report.passed


def test_calibrate_constant_offset_is_measured_exactly():
    env = _env()
    twin = DigitalTwin()
    twin.record(env.state)
    snap = twin.snapshot(now=0)
    shifted = TwinSnapshot(
        captured_at=0,
        delivered_at=0,
        channel=ChannelState(
            snr=np.array(snap.channel.snr) + 0.5, user_ids=snap.channel.user_ids
        ),
        traffic=snap.traffic,
        qos=snap.qos,
    )
    report = calibrate(shifted, env.state)
    assert report.mean_abs_snr_error == pytest.approx(0.5)
    assert not report.passed


def test_calibrate_detects_staleness_on_a_fading_channel():
    # Derived check: a delayed twin of an i.i.d. fading channel must diverge.
    env = _env(seed=12)
    twin = DigitalTwin(delay=DelayClass.SIGNIFICANT, significant_slots=5)
    for t in range(10):
        twin.record(env.state)
        snap = twin.snapshot(now=t)
        env.step(AllocationMatrix((0, 1, 2, 2)))
    report = calibrate(snap, env.state, CalibrationTolerances(1e-9, 1e9))
    assert report.mean_abs_snr_error > 0.1
    assert not report.passed


def test_calibrate_rejects_dimension_mismatch():
    env = _env()
    other = make_env(make_users(1, 1), ResourceGrid(4, 1e5))
    twin = DigitalTwin()
    twin.record(env.state)
    with pytest.raises(ValueError, match="dims"):
        calibrate(twin.snapshot(now=0), other.state)


def test_zero_delay_fidelity_over_a_run():
    env = _env(seed=21)
    twin = DigitalTwin(delay=DelayClass.MINIMAL)
    for t in range(50):
        twin.record(env.state)
        report = calibrate(twin.snapshot(now=t), env.state)
        assert report.mean_abs_snr_error == 0.0
        assert report.passed
        env.step(AllocationMatrix((0, 1, 2, 2)))


def test_a_kept_decision_holds_its_objective_after_its_slot_left_the_ring(
    repo_root_scenarios,
):
    # A decision is scored when the per-call form returns: after the twin
    # has reused the snapshot's slot, the snapshot can no longer be scored,
    # but the decision still holds the objective of its own slot's channel.
    scen = load_scenario(repo_root_scenarios / "tiny.cfg")
    env, twin = scen.environment(), scen.make_twin()
    args = (scen.grid, scen.users(), scen.qos, scen.slot_duration)
    kept = []
    for t in range(4):
        twin.record(env.state)
        snap = twin.snapshot(now=t)
        decision = oracle_allocate(snap, *args, mode="greedy")
        kept.append((decision, snap, allocation_objective(decision.allocation, snap, *args)))
        env.step(decision.allocation)
    for decision, _, objective in kept:
        assert type(decision.objective_estimate) is float
        assert decision.objective_estimate.hex() == objective.hex()
    decision, snap, _ = kept[0]
    with pytest.raises(LookupError, match="slot 0 has left the state ring"):
        allocation_objective(decision.allocation, snap, *args)


def test_deliver_is_the_dumped_twin_log_and_the_snapshot(repo_root_scenarios, tmp_path):
    # The golden "cadence" settings: a 2-slot delay delivered every third slot.
    scen = replace(
        load_scenario(repo_root_scenarios / "tiny.cfg"), horizon_slots=60, outage_window=20,
        twin_delay=DelayClass.MODERATE, twin_cadence=3,
    )
    spec = ExperimentSpec(
        scenario=scen, policies=("orthogonal",), out_dir=str(tmp_path), lambdas=(2.0,),
        dump_twin=True,
    )
    runner.run_experiment(spec)
    (log,) = tmp_path.glob("*.twin.csv")
    lines = log.read_text().splitlines()
    assert lines[0] == "t,captured_at,delivered_at,staleness,stale_underflow"
    rows = [[int(v) for v in line.split(",")] for line in lines[1:]]
    assert len(rows) == 60
    env, twin = scen.environment(), scen.make_twin()
    for t, (slot, captured, delivered, staleness, underflow) in enumerate(rows):
        twin.record(env.state)
        delivery = twin.deliver(now=t)
        assert (slot, staleness) == (t, t - captured)
        assert delivery == (captured, delivered, underflow)
        snap = twin.snapshot(now=t)
        assert (snap.captured_at, snap.delivered_at, snap.stale_underflow) == delivery
        env.step_runs(np.full((1, scen.num_rbs), UNASSIGNED))
    assert sum(delivered < t for t, (_, _, delivered, _, _) in enumerate(rows)) == 40
    assert [underflow for *_, underflow in rows[:3]] == [1, 1, 1]
