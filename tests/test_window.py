"""A stale twin's delivery window, decided in one policy call per block, is
the loop that decides one slot at a time, bit for bit.

With a delay of d slots the deliveries of slots t ... t + d read only states
recorded at or before t, so ``runner._slots`` decides each window of d + 1
slots in one call per block of runs. The reference loop below decides each
slot on its own: record, deliver, decide on the twin ring's delivered entry,
step. Both must yield the same deliveries, user rows, repair flags and
columns on every slot.
"""
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from twinslice import nn, runner
from twinslice.twin import DelayClass

from conftest import tiny_scenario


def _net(scen):
    n_users = scen.n_embb + scen.n_urllc
    return nn.MLP.glorot(
        [nn.feature_dim(n_users, scen.num_rbs), 8, scen.num_rbs * n_users],
        (scen.num_rbs, n_users), seed=4,
    ).astype(np.float32)


def _decides(scen, policy_ids, net):
    """``(decide, runs)`` per block of consecutive runs of one policy, as
    ``runner._simulate`` builds them."""
    decides, start = [], 0
    for policy_id, block in itertools.groupby(policy_ids):
        n = len(list(block))
        decides.append((runner._make_policy(policy_id, scen, net), slice(start, start + n)))
        start += n
    return decides


def _one_slot_at_a_time(scen, decides, seeds, lams):
    """The reference loop: every slot records, delivers, decides on the
    twin ring's delivered entry and steps."""
    env = scen.environments(seeds, lams)
    twin = scen.make_twin()
    for t in range(scen.horizon_slots):
        twin.record(env.state)
        delivery = twin.deliver(now=t)
        ring = twin.ring
        i = ring.entry(delivery[0])
        rows = np.empty((len(seeds), scen.num_rbs), dtype=np.intp)
        unmet = np.empty(len(seeds), dtype=bool)
        for decide, runs in decides:
            rows[runs], unmet[runs] = decide(ring, i, runs)
        yield t, delivery, rows, unmet, env.step_runs(rows)


def _same_bits(a, b):
    assert np.array(a, dtype=float).tobytes() == np.array(b, dtype=float).tobytes()


@st.composite
def cases(draw):
    delay = draw(st.sampled_from(tuple(DelayClass)))
    d = draw(st.integers(0, 5))
    scen = replace(
        tiny_scenario(horizon=draw(st.integers(1, 30))),
        num_rbs=draw(st.integers(1, 5)),
        twin_delay=delay,
        moderate_slots=d if delay is DelayClass.MODERATE else 0,
        significant_slots=d,
        twin_cadence=draw(st.integers(1, 3)),
    )
    runs = draw(st.lists(
        st.tuples(
            st.sampled_from(runner.POLICY_IDS),
            st.sampled_from((None, 0.0, 0.4, 3.0, 20.0)),
            st.integers(0, 2**32),
        ),
        min_size=1, max_size=4,
    ))
    return scen, runs


@given(cases())
def test_a_delivery_window_is_the_slots_decided_one_at_a_time(case):
    """Every delay class with 0-5 slots of delay, cadence 1-3, horizons of
    1-30 slots (windows cut short by the end included) and 1-4 runs mixing
    all four policies."""
    scen, runs = case
    policy_ids = [policy_id for policy_id, _, _ in runs]
    lams = [lam for _, lam, _ in runs]
    seeds = [seed for _, _, seed in runs]
    net = _net(scen)
    windowed = runner._slots(scen, _decides(scen, policy_ids, net), seeds, lams)
    alone = _one_slot_at_a_time(scen, _decides(scen, policy_ids, net), seeds, lams)
    n = 0
    for got, want in zip(windowed, alone, strict=True):
        t, delivery, ring, i, rows, unmet, columns = got
        assert (t, delivery) == want[:2]
        assert ring.slot[i] == delivery[0]
        assert rows.tobytes() == want[2].tobytes()
        assert unmet.tobytes() == want[3].tobytes()
        assert columns.t == want[4].t == t
        for field in ("lam", "embb", "urllc", "served", "rates", "served_bits", "arrivals"):
            _same_bits(getattr(columns, field), getattr(want[4], field))
        n += 1
    assert n == scen.horizon_slots


@pytest.mark.parametrize(
    "delay, ahead",
    [(DelayClass.MINIMAL, 0), (DelayClass.MODERATE, 2), (DelayClass.SIGNIFICANT, 20)],
)
@pytest.mark.parametrize("cadence", [1, 3])
def test_each_policy_is_called_once_per_delivery_window(delay, ahead, cadence, monkeypatch):
    """On a twin of d slots' delay each policy decides ceil(horizon / (d + 1))
    times, each call on all of its block's runs of a window; at zero delay,
    once per slot."""
    scen = replace(tiny_scenario(horizon=47), twin_delay=delay, twin_cadence=cadence)
    calls = {policy_id: [] for policy_id in runner.POLICY_IDS}
    make = runner._make_policy

    def spied(policy_id, scenario, net):
        decide = make(policy_id, scenario, net)

        def counted(ring, i, runs):
            calls[policy_id].append(len(ring.lam[i][runs]))
            return decide(ring, i, runs)

        return counted

    monkeypatch.setattr(runner, "_make_policy", spied)
    runs = [(policy_id, lam, seed) for seed, (policy_id, lam) in enumerate(
        itertools.product(runner.POLICY_IDS, (1.0, 8.0))
    )]
    runner._simulate(scen, runs, _net(scen))
    windows = math.ceil(47 / (ahead + 1))
    last = 47 - (windows - 1) * (ahead + 1)
    for policy_id in runner.POLICY_IDS:
        assert calls[policy_id] == [2 * (ahead + 1)] * (windows - 1) + [2 * last]
