"""Runs stepped in lockstep are the runs stepped alone, bit for bit.

Every example draws a user set with mixed fading groups (Rayleigh, Rician,
``k = inf``), a twin delay and cadence, and one to four runs, each with its
own policy, seed and lambda plan (zero included). The runs step together
through one environment and one twin, and each also steps alone through a
one-run environment and twin of its own. Every slot's outcome and snapshot,
every decision and each generator's final state must agree.
"""
import math

import numpy as np
from hypothesis import given, strategies as st

from twinslice import nn, policy
from twinslice.domain import QoSRequirement, ResourceGrid, ServiceClass, UserTerminal
from twinslice.envsim import Environment, FadingModel, FadingParams, LinkBudget
from twinslice.nn import FeatureScaling
from twinslice.scenario import LambdaSchedule
from twinslice.twin import DelayClass, DigitalTwin

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
    if policy_id == "orthogonal":
        return policy.orthogonal_policy(policy.OrthogonalConfig(fraction), grid, users, TAU)
    if policy_id == "oracle":
        return policy.oracle_policy(grid, users, qos, TAU)
    decide = policy.dynamic_policy(net, grid, users, qos, FeatureScaling(), TAU)
    if policy_id == "dnn":
        return decide
    repair = policy.repair_policy(qos, grid, users, TAU)
    return lambda snap: repair(decide(snap), snap)


def _same_snapshot(a, b):
    assert a.snr.tobytes() == b.snr.tobytes()
    assert a.queue.tobytes() == b.queue.tobytes()
    assert repr(a.lam) == repr(b.lam)
    assert (a.captured_at, a.delivered_at, a.stale_underflow) == (
        b.captured_at, b.delivered_at, b.stale_underflow
    )


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

    env = Environment.lockstep(users, grid, qos, TAU, schedules, seeds)
    twin = DigitalTwin(**twin_args)
    decides = [_policy(p, users, grid, qos, fraction, net) for p, *_ in runs]
    alone = [
        (
            Environment(users, grid, qos, TAU, schedule, seed),
            DigitalTwin(**twin_args),
            _policy(p, users, grid, qos, fraction, net),
        )
        for (p, *_), schedule, seed in zip(runs, schedules, seeds)
    ]
    for t in range(n_slots):
        twin.record(env.state)
        snaps = twin.snapshots(now=t)
        decisions = [decide(snap) for decide, snap in zip(decides, snaps)]
        outcomes = env.step_runs([d.allocation for d in decisions])
        for r, (own_env, own_twin, own_decide) in enumerate(alone):
            own_twin.record(own_env.state)
            snap = own_twin.snapshot(now=t)
            _same_snapshot(snaps[r], snap)
            decision = own_decide(snap)
            assert decision.allocation.assignment == decisions[r].allocation.assignment
            assert decision.constraint_unmet == decisions[r].constraint_unmet
            outcome = own_env.step(decision.allocation)
            assert repr(outcomes[r]) == repr(outcome)
    for rng, (own_env, _, _) in zip(env.rngs, alone):
        assert rng.bit_generator.state == own_env.rng.bit_generator.state
