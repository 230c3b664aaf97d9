"""Runs stepped in lockstep are the runs stepped alone, bit for bit.

Every example draws a user set with mixed fading groups (Rayleigh, Rician,
``k = inf``), a twin delay and cadence, and one to four runs, each with its
own policy, seed and lambda plan (zero included). The runs step together
through one environment and one twin, each block of consecutive runs of
one policy deciding in one call on the twin's delivered ring entry, and
each run also steps alone through a one-run environment and twin of its
own. Every slot's delivered state, user rows and repair flags, each
generator's final state and, bit for bit, every run's columns of the
lockstep step and the outcome of its own step must agree. The per-call
forms decide, and the per-call encoder encodes, as the slot forms do.
"""
import itertools
import math

import numpy as np
from hypothesis import given, strategies as st

from twinslice import nn, policy
from twinslice.domain import (
    UNASSIGNED,
    AllocationMatrix,
    QoSRequirement,
    ResourceGrid,
    ServiceClass,
    UserTerminal,
)
from twinslice.envsim import Environment, FadingModel, FadingParams, LinkBudget
from twinslice.nn import FeatureScaling
from twinslice.scenario import LambdaSchedule
from twinslice.twin import DelayClass, DigitalTwin, TwinSnapshot

FADINGS = (
    FadingParams(FadingModel.RAYLEIGH),
    FadingParams(FadingModel.RICIAN, k_factor=5.0),
    FadingParams(FadingModel.RICIAN, k_factor=math.inf),
)
POLICIES = ("orthogonal", "oracle", "dnn", "dnn+repair")
TAU = 1e-3


@st.composite
def cases(draw):
    n_users = draw(st.integers(1, 4))
    urllc = draw(st.lists(st.booleans(), min_size=n_users, max_size=n_users))
    users = tuple(
        UserTerminal(
            i,
            ServiceClass.URLLC if is_urllc else ServiceClass.EMBB,
            LinkBudget(draw(st.floats(-5.0, 20.0)), draw(st.sampled_from(FADINGS))),
        )
        for i, is_urllc in enumerate(urllc)
    )
    if not any(urllc):
        fraction = 0.0
    elif all(urllc):
        fraction = 1.0
    else:
        fraction = draw(st.sampled_from((0.0, 0.5, 1.0)))
    lam = st.sampled_from((0.0, 0.4, 3.0, 20.0))
    runs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(POLICIES),
                st.lists(lam, min_size=1, max_size=3),
                st.integers(1, 3),  # dwell
                st.integers(0, 2**32),  # seed
            ),
            min_size=1,
            max_size=4,
        )
    )
    twin = dict(
        delay=draw(st.sampled_from(tuple(DelayClass))),
        moderate_slots=draw(st.integers(0, 2)),
        significant_slots=draw(st.integers(2, 5)),
        cadence=draw(st.integers(1, 3)),
    )
    grid = ResourceGrid(draw(st.integers(1, 7)), draw(st.sampled_from((1e5, 1e6))))
    return users, grid, fraction, runs, twin, draw(st.integers(1, 10))


def _policy(policy_id, users, grid, qos, fraction, net):
    """A slot call (ring, i, runs) -> (rows, one repair flag per run)."""
    if policy_id == "orthogonal":
        decide = policy.orthogonal_policy(policy.OrthogonalConfig(fraction), grid, users, TAU)
    elif policy_id == "oracle":
        decide = policy.oracle_policy(grid, users, qos, TAU)
    else:
        decide = policy.dynamic_policy(net, grid, users, qos, FeatureScaling(), TAU)
    if policy_id == "dnn+repair":
        repair = policy.repair_policy(qos, grid, users, TAU)
        return lambda ring, i, runs: repair(decide(ring, i, runs), ring, i, runs)

    def slot(ring, i, runs):
        rows = decide(ring, i, runs)
        return rows, [False] * len(rows)

    return slot


def _blocks(policy_ids):
    """``(policy_id, runs)`` per block of consecutive runs of one policy, as
    ``runner._simulate`` groups them."""
    start = 0
    for policy_id, block in itertools.groupby(policy_ids):
        stop = start + len(list(block))
        yield policy_id, slice(start, stop)
        start = stop


def _same_snapshot(ring, i, r, delivery, snap):
    """Run r of the delivered ring entry is ``snap``, delivered alike."""
    assert ring.snr[i, r].tobytes() == snap.snr.tobytes()
    assert ring.queue[i, r].tobytes() == snap.queue.tobytes()
    assert repr(ring.lam[i][r]) == repr(snap.lam)
    assert delivery == (snap.captured_at, snap.delivered_at, snap.stale_underflow)


def _same_bits(a, b):
    assert np.array(a, dtype=float).tobytes() == np.array(b, dtype=float).tobytes()


def _same_outcome(columns, r, outcome):
    """Run r's values in a lockstep step's columns are its own step's."""
    assert columns.t == outcome.t
    _same_bits(
        [columns.lam[r], columns.embb[r], columns.urllc[r], columns.served[r]],
        [outcome.lambda_t, outcome.embb_sum_rate, outcome.urllc_sum_rate,
         outcome.urllc_served_total],
    )
    _same_bits(columns.rates[r], list(outcome.rates.values()))
    _same_bits(columns.served_bits[r], list(outcome.urllc_served_bits.values()))
    assert sum(columns.arrivals[r]) == outcome.urllc_arrival_packets


@given(cases())
def test_lockstep_runs_equal_each_run_alone(case):
    users, grid, fraction, runs, twin_args, n_slots = case
    qos = QoSRequirement()
    n = len(users)
    net = nn.MLP.glorot(
        [nn.feature_dim(n, grid.num_rbs), 8, grid.num_rbs * n], (grid.num_rbs, n), seed=1
    ).astype(np.float32)
    schedules = [LambdaSchedule(tuple(values), dwell).at for _, values, dwell, _ in runs]
    seeds = [seed for *_, seed in runs]

    env = Environment(users, grid, qos, TAU, schedules, seeds)
    twin = DigitalTwin(**twin_args)
    decides = [
        (_policy(p, users, grid, qos, fraction, net), block)
        for p, block in _blocks(p for p, *_ in runs)
    ]
    alone = [
        (
            Environment(users, grid, qos, TAU, [schedule], [seed]),
            DigitalTwin(**twin_args),
            _policy(p, users, grid, qos, fraction, net),
        )
        for (p, *_), schedule, seed in zip(runs, schedules, seeds)
    ]
    rows = np.empty((len(runs), grid.num_rbs), dtype=np.intp)
    unmet = np.empty(len(runs), dtype=bool)
    for t in range(n_slots):
        twin.record(env.state)
        delivery = twin.deliver(now=t)
        ring = twin.ring
        i = ring.entry(delivery[0])
        for decide, block in decides:
            rows[block], unmet[block] = decide(ring, i, block)
        columns = env.step_runs(rows)
        for r, (own_env, own_twin, own_decide) in enumerate(alone):
            own_twin.record(own_env.state)
            snap = own_twin.snapshot(now=t)
            _same_snapshot(ring, i, r, delivery, snap)
            own_rows, (own_unmet,) = own_decide(*snap.as_slot())
            assert own_rows.tolist() == [rows[r].tolist()]
            assert own_unmet == unmet[r]
            outcome = own_env.step(AllocationMatrix.of_rows(own_rows[0], own_env.ring.layout))
            _same_outcome(columns, r, outcome)
    for rng, (own_env, _, _) in zip(env.rngs, alone):
        assert rng.bit_generator.state == own_env.rngs[0].bit_generator.state


@st.composite
def slot_cases(draw):
    """One to four runs on one environment and twin. Equal means with
    ``k = inf`` give users equal SNRs on every block (ties); up to five
    users on one to seven blocks give partitions with more members than
    blocks and last rounds that are not full."""
    n_users = draw(st.integers(1, 5))
    urllc = draw(st.lists(st.booleans(), min_size=n_users, max_size=n_users))
    users = tuple(
        UserTerminal(
            i,
            ServiceClass.URLLC if is_urllc else ServiceClass.EMBB,
            LinkBudget(draw(st.sampled_from((0.0, 6.0))), draw(st.sampled_from(FADINGS))),
        )
        for i, is_urllc in enumerate(urllc)
    )
    fractions = [f for f, ok in ((0.0, not all(urllc)), (0.5, 0 < sum(urllc) < n_users),
                                 (1.0, any(urllc))) if ok]
    n_runs = draw(st.integers(1, 4))
    lams = draw(st.lists(st.sampled_from((0.0, 0.4, 3.0, 20.0)), min_size=n_runs, max_size=n_runs))
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=n_runs, max_size=n_runs))
    qos = QoSRequirement(embb_min_rate=draw(st.sampled_from((0.0, 2e5))))
    grid = ResourceGrid(draw(st.integers(1, 7)), 1e5)
    return users, grid, qos, draw(st.sampled_from(fractions)), lams, seeds, draw(st.integers(1, 5))


def _forms(users, grid, qos, fraction, net):
    """Per policy: its slot form, (ring, i, runs) -> (rows, one repair flag
    per run or None); its per-call form, one snapshot -> decision; the
    penalty weight both are given; and the per-call form's policy id."""
    cfg, scaling = policy.OrthogonalConfig(fraction), FeatureScaling()
    dnn = policy.dynamic_policy(net, grid, users, qos, scaling, TAU)
    repair = policy.repair_policy(qos, grid, users, TAU)

    def rows_only(decide):
        return lambda *slot: (decide(*slot), None)

    def dnn_alone(snap):
        return policy.dynamic_allocate(snap, net, grid, users, qos, scaling, TAU)

    forms = [
        (rows_only(policy.orthogonal_policy(cfg, grid, users, TAU)),
         lambda snap: policy.orthogonal_allocate(snap, cfg, grid, users, TAU), None,
         "orthogonal"),
        (rows_only(dnn), dnn_alone, None, "dnn"),
        (lambda *slot: repair(dnn(*slot), *slot),
         lambda snap: policy.priority_repair(dnn_alone(snap), snap, qos, grid, users, TAU),
         None, "dnn+repair"),
    ]
    for mode, pw in itertools.product(("auto", "greedy"), (None, 2.5)):
        forms.append((
            rows_only(policy.oracle_policy(grid, users, qos, TAU, mode, pw)),
            lambda snap, mode=mode, pw=pw: policy.oracle_allocate(
                snap, grid, users, qos, TAU, mode, pw
            ),
            pw,
            "oracle",
        ))
    return forms


def _slot_snapshots(case):
    """(policy forms, layout, the twin's ring and delivered entry, and a
    snapshot of each run in it) per slot of a ``slot_cases`` case; every run
    idles its blocks."""
    users, grid, qos, fraction, lams, seeds, n_slots = case
    n = len(users)
    net = nn.MLP.glorot(
        [nn.feature_dim(n, grid.num_rbs), 8, grid.num_rbs * n], (grid.num_rbs, n), seed=2
    ).astype(np.float32)
    env = Environment(users, grid, qos, TAU, [lambda t, lam=lam: lam for lam in lams], seeds)
    twin = DigitalTwin()
    forms = _forms(users, grid, qos, fraction, net)
    for t in range(n_slots):
        twin.record(env.state)
        captured, _, _ = twin.deliver(now=t)
        ring = twin.ring
        snaps = [TwinSnapshot.view(ring, captured, r) for r in range(len(lams))]
        yield forms, env.ring.layout, (ring, ring.entry(captured)), snaps
        env.step_runs(np.full((len(lams), grid.num_rbs), UNASSIGNED))


@given(slot_cases())
def test_slot_decisions_equal_one_run_decisions(case):
    grid = case[1]
    for forms, layout, (ring, i), snaps in _slot_snapshots(case):
        for decide, alone, _, policy_id in forms:
            rows, unmet = decide(ring, i, slice(None))
            assert rows.shape == (len(snaps), grid.num_rbs)
            for r, snap in enumerate(snaps):
                want = alone(snap)
                assert rows[r].tolist() == want.allocation.rows_in(layout).tolist()
                assert (unmet[r] if unmet else False) == want.constraint_unmet
                assert want.policy_id == policy_id


@given(slot_cases())
def test_a_per_call_decision_is_its_slot_rows_and_their_objective(case):
    users, grid, qos = case[:3]
    for forms, layout, (ring, i), snaps in _slot_snapshots(case):
        for decide, alone, pw, _ in forms:
            rows, _ = decide(ring, i, slice(None))
            for r, snap in enumerate(snaps):
                got = alone(snap)
                m = AllocationMatrix.of_rows(rows[r], layout)
                assert got.allocation.assignment == m.assignment
                want = policy.allocation_objective(m, snap, grid, users, qos, TAU, pw)
                _same_bits([got.objective_estimate], [want])


@given(slot_cases())
def test_a_slot_encoding_is_each_run_encoded_alone(case):
    """One to four runs, lambda 0 included, users without URLLC ones and
    queues that fill while every block idles."""
    users, grid, qos = case[:3]
    scaling = FeatureScaling()
    encode = nn.feature_encoder(grid, users, qos, scaling)
    for _, _, (ring, i), snaps in _slot_snapshots(case):
        X = encode(ring, i, slice(None))
        assert X.shape == (len(snaps), nn.feature_dim(len(users), grid.num_rbs))
        for r, snap in enumerate(snaps):
            x = nn.encode_features(snap, grid, users, qos, scaling)
            assert X[r].tobytes() == x.tobytes()
