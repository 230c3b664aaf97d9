"""Slot invariants on generated scenarios.

Every example builds a small scenario, runs a few slots of the runner's
record -> deliver -> decide -> step loop under one policy and checks what
each slot promises: queue bits are conserved, served bits stay within
capacity and backlog, decisions validate, and at zero twin delay the twin's
predicted URLLC rate is the realised one, bit for bit. The examples are drawn from a
fixed seed (the profile in ``conftest.py``), so every run sees the same ones.
"""
import math
from functools import partial

import numpy as np
from hypothesis import example, given, strategies as st

from twinslice import metrics, nn, runner
from twinslice.domain import (
    UNASSIGNED,
    AllocationMatrix,
    QoSRequirement,
    UserLayout,
    validate_allocation,
)
from twinslice.envsim import FadingModel, FadingParams
from twinslice.policy import predicted_urllc_rate
from twinslice.scenario import LambdaSchedule, Scenario
from twinslice.twin import DelayClass

from conftest import make_snapshot

POLICIES = ("orthogonal", "oracle", "dnn", "dnn+repair")
SLOTS = 8

FADINGS = (
    FadingParams(FadingModel.RAYLEIGH),
    FadingParams(FadingModel.RICIAN, k_factor=5.0),
    FadingParams(FadingModel.RICIAN, k_factor=math.inf),
)


@st.composite
def scenarios(draw, zero_delay=False):
    n_embb = draw(st.integers(0, 3))
    n_urllc = draw(st.integers(0 if n_embb else 1, 3))
    snr_db = st.floats(-5.0, 20.0)
    embb_snrs = draw(st.lists(snr_db, min_size=n_embb, max_size=n_embb))
    urllc_snrs = draw(st.lists(snr_db, min_size=n_urllc, max_size=n_urllc))
    if n_urllc == 0:
        fraction = 0.0
    elif n_embb == 0:
        fraction = 1.0
    else:
        fraction = draw(st.sampled_from((0.0, 0.25, 0.5, 1.0)))
    lambdas = draw(st.lists(st.floats(0.0, 20.0), min_size=1, max_size=3))
    delay, cadence = DelayClass.MINIMAL, 1
    if not zero_delay:
        delay = draw(st.sampled_from(tuple(DelayClass)))
        cadence = draw(st.integers(1, 3))
    return Scenario(
        n_embb=n_embb,
        n_urllc=n_urllc,
        embb_mean_snr_db=tuple(embb_snrs),
        urllc_mean_snr_db=tuple(urllc_snrs),
        fading=draw(st.sampled_from(FADINGS)),
        num_rbs=draw(st.integers(1, 6)),
        rb_bandwidth=draw(st.sampled_from((1e5, 1e6))),
        lambda_schedule=LambdaSchedule(tuple(lambdas), dwell=draw(st.integers(1, 3))),
        qos=QoSRequirement(
            embb_min_rate=draw(st.sampled_from((0.0, 2e5))),
            urllc_packet_bits=draw(st.sampled_from((64, 256, 1024))),
        ),
        twin_delay=delay,
        moderate_slots=1,
        significant_slots=3,
        twin_cadence=cadence,
        urllc_fraction=fraction,
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _slots(scen, policy_id, net_seed):
    """(snapshot, state before, the run's user rows, repair flag, outcome,
    state after) per slot. The policy decides on the twin's delivered ring
    entry, as the runner's does; the snapshot is the run's view of it."""
    users = scen.users()
    n, b = len(users), scen.num_rbs
    net = nn.MLP.glorot([nn.feature_dim(n, b), 8, b * n], (b, n), seed=net_seed)
    env = scen.environment()
    twin = scen.make_twin()
    decide = runner._make_policy(policy_id, scen, net)
    unmet = np.empty(1, dtype=bool)
    for t in range(SLOTS):
        before = env.state
        twin.record(before)
        captured, _, _ = twin.deliver(now=t)
        rows, unmet[:] = decide(twin.ring, twin.ring.entry(captured), slice(1))
        outcome = env.step_runs(rows).outcome(env.ring.layout)
        yield twin.snapshot(now=t), before, rows[0], unmet[0], outcome, env.state


@given(scenarios(), st.sampled_from(POLICIES), st.integers(0, 100))
def test_queue_bits_are_conserved(scen, policy_id, net_seed):
    bits = scen.qos.urllc_packet_bits
    for _, before, _, _, outcome, after in _slots(scen, policy_id, net_seed):
        ids = before.traffic.urllc_user_ids
        packets = 0
        for i, uid in enumerate(ids):
            left = before.traffic.urllc_queue[i] - outcome.urllc_served_bits[uid]
            arrived = (after.traffic.urllc_queue[i] - left) / bits
            k = round(arrived)
            assert k >= 0 and abs(arrived - k) <= 1e-9 * max(1, k)
            packets += k
        assert packets == outcome.urllc_arrival_packets


@given(scenarios(), st.sampled_from(POLICIES), st.integers(0, 100))
def test_served_bits_within_capacity_and_backlog(scen, policy_id, net_seed):
    for _, before, _, _, outcome, _ in _slots(scen, policy_id, net_seed):
        for i, uid in enumerate(before.traffic.urllc_user_ids):
            served = outcome.urllc_served_bits[uid]
            assert 0 <= served <= min(outcome.rates[uid], before.traffic.urllc_queue[i])


@given(scenarios(), st.sampled_from(POLICIES), st.integers(0, 100))
def test_every_decision_validates(scen, policy_id, net_seed):
    users = scen.users()
    layout = UserLayout(users)
    for _, _, rows, _, _, _ in _slots(scen, policy_id, net_seed):
        assert rows.shape == (scen.num_rbs,)
        assert ((rows >= UNASSIGNED) & (rows < len(users))).all()
        assert validate_allocation(AllocationMatrix.of_rows(rows, layout), scen.grid, users)


@given(scenarios(zero_delay=True), st.sampled_from(POLICIES), st.integers(0, 100))
def test_zero_delay_prediction_is_the_realised_rate(scen, policy_id, net_seed):
    users = scen.users()
    layout = UserLayout(users)
    for snap, _, rows, _, outcome, _ in _slots(scen, policy_id, net_seed):
        predicted = predicted_urllc_rate(
            AllocationMatrix.of_rows(rows, layout), snap, scen.grid, users,
            scen.slot_duration,
        )
        assert predicted == outcome.urllc_sum_rate


# The load equals the realised URLLC rate of the first slot's repaired
# decision. A repair that stops on a prediction summed in another order
# than the realised rate can stop a few ulps short of it: an outage.
BOUNDARY = Scenario(
    n_embb=1,
    n_urllc=1,
    embb_mean_snr_db=(10.0,),
    urllc_mean_snr_db=(5.0,),
    fading=FadingParams(FadingModel.RAYLEIGH),
    num_rbs=3,
    rb_bandwidth=1e5,
    lambda_schedule=LambdaSchedule.constant(6.019551514475285),
    qos=QoSRequirement(urllc_packet_bits=64),
    seed=1,
)


@given(scenarios(zero_delay=True), st.integers(0, 100))
@example(BOUNDARY, 1)
def test_zero_delay_repaired_slot_is_never_an_outage(scen, net_seed):
    bits = scen.qos.urllc_packet_bits
    for _, _, _, unmet, outcome, _ in _slots(scen, "dnn+repair", net_seed):
        if not unmet:
            assert not metrics.outage_event(
                outcome.urllc_sum_rate, bits, outcome.lambda_t
            )


@given(
    st.sampled_from(tuple(DelayClass)),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
def test_snapshot_is_the_state_recorded_at_its_capture_slot(delay, cadence, seed):
    """Every delay class and cadence: each slot's snapshot holds the SNR,
    queue and lambda of the physical state at ``captured_at`` bit for bit,
    and is flagged exactly when its target slot predates the oldest of the
    delay + 1 slots kept for it. The features read the snapshot where
    policies read it."""
    delay_slots = {DelayClass.MINIMAL: 0, DelayClass.MODERATE: 2}.get(delay, 4)
    depth = delay_slots + 1
    scen = Scenario(
        n_embb=2,
        n_urllc=2,
        num_rbs=3,
        rb_bandwidth=1e5,
        lambda_schedule=LambdaSchedule((4.0, 30.0, 0.0), dwell=2),
        qos=QoSRequirement(urllc_packet_bits=64),
        twin_delay=delay,
        moderate_slots=2,
        significant_slots=4,
        twin_cadence=cadence,
        seed=seed,
    )
    env = scen.environment()
    twin = scen.make_twin()
    users = scen.users()
    ids = [u.id for u in users]
    features = partial(
        nn.encode_features, grid=scen.grid, users=users, qos=scen.qos, scaling=scen.scaling()
    )
    recorded = []
    for t in range(depth + 3 * cadence + 4):
        state = env.state
        recorded.append(
            (
                state.channel.snr.copy(),
                state.traffic.urllc_queue.copy(),
                state.traffic.urllc_rate,
            )
        )
        twin.record(state)
        snap = twin.snapshot(now=t)
        snr, queue, lam = recorded[snap.captured_at]
        held = make_snapshot(snr, users, lam=lam, queue=queue)
        assert features(snap).tobytes() == features(held).tobytes()
        assert snap.channel.snr.tobytes() == snr.tobytes()
        assert snap.traffic.urllc_queue.tobytes() == queue.tobytes()
        assert snap.traffic.urllc_rate == lam
        oldest_kept = max(0, snap.delivered_at - depth + 1)
        assert snap.stale_underflow == (snap.delivered_at - delay_slots < oldest_kept)
        assert t - snap.delivered_at < cadence
        env.step(AllocationMatrix([ids[(b + t) % len(ids)] for b in range(3)]))
