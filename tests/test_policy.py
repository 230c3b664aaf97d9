import functools
import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from twinslice import envsim, nn, policy
from twinslice.domain import (
    UNASSIGNED,
    AllocationMatrix,
    QoSRequirement,
    ResourceGrid,
    ServiceClass,
    UserLayout,
    validate_allocation,
)
from twinslice.envsim import StateRing, block_rates
from twinslice.nn import MLP, FeatureScaling, feature_dim
from twinslice.policy import (
    EXHAUSTIVE_CAP,
    OrthogonalConfig,
    PolicyDecision,
    allocation_objective,
    default_penalty_weight,
    dynamic_allocate,
    dynamic_policy,
    oracle_allocate,
    orthogonal_allocate,
    predicted_urllc_rate,
    priority_repair,
    repair_policy,
)

from conftest import make_snapshot, make_users


def test_orthogonal_half_split_is_fixed_over_slots():
    users = make_users(2, 2)
    grid = ResourceGrid(10, 1e5)
    rng = np.random.default_rng(0)
    urllc_sets = []
    for _ in range(5):
        snap = make_snapshot(rng.exponential(1.0, (4, 10)), users)
        d = orthogonal_allocate(snap, OrthogonalConfig(0.5), grid, users, 1e-3)
        held = {
            b
            for b, uid in enumerate(d.allocation.assignment)
            if uid in (2, 3)  # URLLC ids
        }
        urllc_sets.append(frozenset(held))
    assert all(s == frozenset(range(5)) for s in urllc_sets)


def test_orthogonal_fraction_zero_gives_everything_to_embb():
    users = make_users(2, 1)
    snap = make_snapshot(np.ones((3, 4)), users)
    d = orthogonal_allocate(snap, OrthogonalConfig(0.0), ResourceGrid(4, 1e5), users, 1e-3)
    assert all(uid in (0, 1) for uid in d.allocation.assignment)


def test_orthogonal_fraction_one_single_urllc_user_takes_all():
    users = make_users(1, 1)
    snap = make_snapshot(np.ones((2, 4)), users)
    d = orthogonal_allocate(snap, OrthogonalConfig(1.0), ResourceGrid(4, 1e5), users, 1e-3)
    assert d.allocation.assignment == (1, 1, 1, 1)


def test_orthogonal_requires_users_for_nonempty_partitions():
    users = make_users(1, 0)
    snap = make_snapshot(np.ones((1, 4)), users)
    with pytest.raises(ValueError, match="URLLC"):
        orthogonal_allocate(snap, OrthogonalConfig(0.5), ResourceGrid(4, 1e5), users, 1e-3)


def _reference_orthogonal(snap, fraction, grid, users):
    """Reference: a max over the least-loaded members keyed on (SNR, -id)."""
    split = int(fraction * grid.num_rbs)
    assignment = []
    for b in range(grid.num_rbs):
        service = ServiceClass.URLLC if b < split else ServiceClass.EMBB
        members = [u.id for u in users if u.service is service]
        held = [sum(1 for a in assignment if a == uid) for uid in members]
        floor = min(held)
        candidates = [uid for uid, n in zip(members, held) if n == floor]
        assignment.append(
            max(candidates, key=lambda uid: (snap.channel.row(uid)[b], -uid))
        )
    return tuple(assignment)


def test_orthogonal_equals_reference_including_ties():
    # SNRs from a three-value set make equal candidates common.
    rng = np.random.default_rng(29)
    users = make_users(3, 4)
    grid = ResourceGrid(15, 1e5)
    for fraction in (0.0, 0.4, 0.5, 1.0):
        for _ in range(40):
            snap = make_snapshot(rng.choice([1.0, 2.0, 4.0], (7, 15)), users)
            d = orthogonal_allocate(snap, OrthogonalConfig(fraction), grid, users, 1e-3)
            assert d.allocation.assignment == _reference_orthogonal(
                snap, fraction, grid, users
            )


def test_oracle_single_user_gets_every_block():
    users = make_users(1, 0)
    snap = make_snapshot([[0.5, 2.0, 1.0]], users)
    d = oracle_allocate(snap, ResourceGrid(3, 1e5), users, QoSRequirement(), 1e-3)
    assert d.allocation.assignment == (0, 0, 0)


def test_oracle_two_by_two_matches_enumeration():
    # Independent oracle: enumerate all four assignments by hand.
    users = make_users(2, 0)
    snap = make_snapshot([[5.0, 1.0], [1.0, 5.0]], users, lam=0.0)
    grid = ResourceGrid(2, 1e5)
    d = oracle_allocate(snap, grid, users, QoSRequirement(), 1e-3, mode="exhaustive")
    assert d.allocation.assignment == (0, 1)

    best = max(
        itertools.product((0, 1), repeat=2),
        key=lambda combo: sum(
            1e5 * 1e-3 * math.log2(1.0 + snap.channel.snr[uid][b])
            for b, uid in enumerate(combo)
        ),
    )
    assert d.allocation.assignment == best


def _independent_objective(m, snap, grid, users, qos, tau, penalty):
    """Straight-line re-derivation of the documented objective."""
    total = 0.0
    urllc = 0.0
    embb_def = 0.0
    for u in users:
        row = snap.channel.row(u.id)
        r = 0.0
        for b, uid in enumerate(m):
            if uid == u.id:
                r += grid.rb_bandwidth * math.log2(1.0 + row[b]) * tau
        total += r
        if u.service is ServiceClass.URLLC:
            urllc += r
        else:
            embb_def += max(0.0, qos.embb_min_rate * tau - r)
    load = qos.urllc_packet_bits * snap.traffic.urllc_rate
    return total - penalty * max(0.0, load - urllc) - penalty * embb_def


def test_objective_equals_plain_user_block_loop_with_idle_blocks():
    rng = np.random.default_rng(19)
    grid = ResourceGrid(8, 1e5)
    qos = QoSRequirement(embb_min_rate=3e5)
    # Mixed classes, then no URLLC and no eMBB users: each class term empty.
    for users in (make_users(3, 2), make_users(3, 0), make_users(0, 3)):
        choices = [u.id for u in users] + [UNASSIGNED]
        for _ in range(200):
            snr = rng.exponential(2.0, (len(users), 8))
            snap = make_snapshot(snr, users, lam=rng.uniform(0, 9))
            m = AllocationMatrix(tuple(rng.choice(choices, size=8)))
            default = default_penalty_weight(snap.snr, grid, 1e-3)
            for given, penalty in ((None, default), (2.5, 2.5)):
                expected = _independent_objective(
                    m.assignment, snap, grid, users, qos, 1e-3, penalty
                )
                got = allocation_objective(m, snap, grid, users, qos, 1e-3, given)
                assert got == expected


@functools.cache
def _perfbench_checks():
    """``perfbench/checks.py``, which re-derives the objective without the
    package's code, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@given(
    snr=st.tuples(st.integers(1, 40), st.integers(1, 6), st.integers(1, 12)).flatmap(
        lambda shape: arrays(float, shape, elements=st.one_of(
            st.just(0.0), st.floats(0.0, 1e4), st.floats(0.0, 1e300),
        ))
    ),
    bw=st.sampled_from([1e5, 1.8e5, 1e6]),
    tau=st.sampled_from([1e-3, 0.37]),
)
@settings(phases=[Phase.explicit, Phase.generate])
def test_run_axis_penalty_weights_are_each_runs_own_bit_for_bit(snr, bw, tau):
    """One call over ``[R, U, B]`` SNRs, as the oracle makes for a slot's
    runs, gives each run the weight of its own call, and that weight is the
    one ``perfbench/checks.py`` re-derives."""
    grid = ResourceGrid(snr.shape[2], bw)
    weights = default_penalty_weight(snr, grid, tau)
    own = [default_penalty_weight(run, grid, tau) for run in snr]
    assert weights.shape == (len(snr),)
    bad = [r for r, (a, b) in enumerate(zip(weights.tolist(), own)) if a.hex() != b.hex()]
    assert not bad, (
        f"run-axis penalty weights differ from each run's own call on {len(bad)} of "
        f"{len(snr)} runs (first run {bad[0]}) under numpy {np.__version__}; a numpy "
        "whose log2 results depend on the array's length breaks the run axis"
    )
    model = _perfbench_checks().SlotModel(range(snr.shape[1]), [False] * snr.shape[1],
                                          bw, tau, 256, 0.0)
    assert own == [model.penalty_weight(run) for run in snr]


def test_oracle_exhaustive_matches_independent_enumeration():
    rng = np.random.default_rng(17)
    grid = ResourceGrid(3, 1e5)
    qos = QoSRequirement(embb_min_rate=2e4)
    users = make_users(2, 1)
    penalty = 1e7
    for _ in range(50):
        snap = make_snapshot(rng.exponential(2.0, (3, 3)), users, lam=rng.uniform(0, 4))
        d = oracle_allocate(
            snap, grid, users, qos, 1e-3, mode="exhaustive", penalty_weight=penalty
        )
        best_obj = -math.inf
        best = None
        for combo in itertools.product((0, 1, 2), repeat=3):
            obj = _independent_objective(combo, snap, grid, users, qos, 1e-3, penalty)
            if obj > best_obj:
                best_obj = obj
                best = combo
        assert d.allocation.assignment == best
        assert d.objective_estimate == best_obj


@pytest.mark.parametrize(
    "n_embb,n_urllc,num_rbs,snr",
    [
        (1, 1, 1, "exp"),  # 2 users x 1 block
        (1, 1, 1, "tied"),
        (2, 2, 6, "exp"),  # 4 ** 6 = EXHAUSTIVE_CAP
        (2, 2, 6, "tied"),
        (3, 1, 6, "three"),
    ],
)
def test_oracle_exhaustive_matches_enumeration_up_to_the_cap(n_embb, n_urllc, num_rbs, snr):
    rng = np.random.default_rng(n_embb * 100 + n_urllc * 10 + num_rbs)
    grid = ResourceGrid(num_rbs, 1e5)
    users = make_users(n_embb, n_urllc)
    n = n_embb + n_urllc
    ids = [u.id for u in users]
    draws = {
        "exp": lambda: rng.exponential(2.0, (n, num_rbs)),
        "tied": lambda: np.full((n, num_rbs), 2.0),
        "three": lambda: rng.choice([1.0, 2.0, 4.0], (n, num_rbs)),
    }
    rounds = 3 if n**num_rbs == EXHAUSTIVE_CAP else 20
    for i in range(rounds):
        qos = QoSRequirement(embb_min_rate=(0.0, 2e4, 6e4)[i % 3])
        penalty = (None, 0.0, 1e7)[(i // 3) % 3]
        snap = make_snapshot(draws[snr](), users, lam=(0.0, 0.7, 2.5)[i % 3])
        d = oracle_allocate(
            snap, grid, users, qos, 1e-3, mode="exhaustive", penalty_weight=penalty
        )
        if penalty is None:
            penalty = default_penalty_weight(snap.snr, grid, 1e-3)
        best_obj = -math.inf
        best = None
        for combo in itertools.product(ids, repeat=num_rbs):
            obj = _independent_objective(combo, snap, grid, users, qos, 1e-3, penalty)
            if obj > best_obj:
                best_obj = obj
                best = combo
        assert d.allocation.assignment == best
        assert d.objective_estimate == best_obj


def _reference_greedy(snap, grid, users, qos, tau, penalty_weight):
    """The greedy oracle as a full rebuild: every step recomputes the whole
    marginal matrix from the current deficits and takes its first maximum
    in (block, user) order."""
    rates = block_rates(snap.channel.snr, grid.rb_bandwidth, tau)
    if penalty_weight is None:
        penalty_weight = default_penalty_weight(snap.snr, grid, tau)
    n_users, n_rbs = rates.shape
    is_urllc = np.array([u.service is ServiceClass.URLLC for u in users])
    load = qos.urllc_packet_bits * snap.traffic.urllc_rate
    min_rate_bits = qos.embb_min_rate * tau
    assignment = np.full(n_rbs, UNASSIGNED, dtype=int)
    user_rates = np.zeros(n_users)
    open_blocks = np.ones(n_rbs, dtype=bool)
    for _ in range(n_rbs):
        urllc_deficit = max(0.0, load - user_rates[is_urllc].sum())
        embb_deficit = np.maximum(0.0, min_rate_bits - user_rates)
        relief = np.where(
            is_urllc[:, None],
            np.minimum(rates, urllc_deficit),
            np.minimum(rates, embb_deficit[:, None]),
        )
        marginal = rates + penalty_weight * relief
        marginal = np.where(open_blocks[None, :], marginal, -np.inf)
        b, u = divmod(int(np.argmax(marginal.T)), n_users)
        assignment[b] = users[u].id
        user_rates[u] += rates[u, b]
        open_blocks[b] = False
    m = AllocationMatrix(tuple(assignment))
    return m.assignment, allocation_objective(
        m, snap, grid, users, qos, tau, penalty_weight
    )


GREEDY_CASES = {
    # name: (n_embb, n_urllc, num_rbs, lambda, embb_min_rate, snr); a block
    # carries 1000 * log2(1 + snr) bits and a packet is 256 bits.
    "zero-load": (10, 10, 50, 0.0, 0.0, "exp"),
    "deficit-closes": (10, 10, 50, 100.0, 0.0, "exp"),
    "overload": (10, 10, 50, 1000.0, 0.0, "exp"),  # the deficit never closes
    "embb-min-rate": (4, 3, 30, 20.0, 4e6, "exp"),
    "all-tied": (4, 3, 30, 20.0, 2e6, "tied"),
    "three-valued": (5, 4, 40, 60.0, 2e6, "three"),
    "spread-snr": (6, 6, 40, 40.0, 0.0, "spread"),
    "spread-snr-min-rate": (6, 6, 40, 40.0, 3e6, "spread"),
    "urllc-only": (0, 5, 20, 30.0, 0.0, "exp"),
    "embb-only": (5, 0, 20, 30.0, 3e6, "three"),
}


@pytest.mark.parametrize("case", sorted(GREEDY_CASES))
def test_greedy_equals_full_rebuild_reference(case):
    n_embb, n_urllc, num_rbs, lam, min_rate, snr = GREEDY_CASES[case]
    rng = np.random.default_rng(sorted(GREEDY_CASES).index(case))
    grid = ResourceGrid(num_rbs, 1e6)
    users = make_users(n_embb, n_urllc)
    qos = QoSRequirement(embb_min_rate=min_rate)
    n = n_embb + n_urllc
    draws = {
        "exp": lambda: rng.exponential(2.0, (n, num_rbs)),
        "tied": lambda: np.full((n, num_rbs), 3.0),
        "three": lambda: rng.choice([0.5, 2.0, 4.0], (n, num_rbs)),
        # Users' rows on different scales, so their peak rates differ.
        "spread": lambda: rng.exponential(2.0, (n, num_rbs)) * rng.uniform(0.1, 10, (n, 1)),
    }
    for _ in range(8):
        snap = make_snapshot(draws[snr](), users, lam=lam)
        for penalty in (None, 0.0, 0.3, 2.0):
            d = oracle_allocate(
                snap, grid, users, qos, 1e-3, mode="greedy", penalty_weight=penalty
            )
            ref = _reference_greedy(snap, grid, users, qos, 1e-3, penalty)
            assert (d.allocation.assignment, d.objective_estimate) == ref


def test_greedy_close_to_exhaustive_and_never_above():
    rng = np.random.default_rng(23)
    grid = ResourceGrid(4, 1e5)
    qos = QoSRequirement()
    users = make_users(2, 1)
    close = 0
    for _ in range(100):
        snap = make_snapshot(rng.exponential(3.0, (3, 4)), users, lam=3.0)
        ex = oracle_allocate(snap, grid, users, qos, 1e-3, mode="exhaustive")
        gr = oracle_allocate(snap, grid, users, qos, 1e-3, mode="greedy")
        assert ex.objective_estimate >= gr.objective_estimate - 1e-9
        if gr.objective_estimate >= ex.objective_estimate - 0.05 * abs(ex.objective_estimate):
            close += 1
    assert close >= 95


def test_oracle_cap_enforced_in_exhaustive_mode():
    users = make_users(3, 1)
    snap = make_snapshot(np.ones((4, 7)), users)
    with pytest.raises(ValueError, match="cap"):
        oracle_allocate(
            snap, ResourceGrid(7, 1e5), users, QoSRequirement(), 1e-3, mode="exhaustive"
        )


def test_oracle_optimality_by_enumeration():
    # No other allocation may beat the exhaustive oracle's objective.
    rng = np.random.default_rng(31)
    grid = ResourceGrid(3, 1e5)
    users = make_users(1, 1)
    qos = QoSRequirement()
    for _ in range(30):
        snap = make_snapshot(rng.exponential(1.0, (2, 3)), users, lam=rng.uniform(0, 3))
        d = oracle_allocate(snap, grid, users, qos, 1e-3, mode="exhaustive")
        for combo in itertools.product((0, 1), repeat=3):
            obj = allocation_objective(
                AllocationMatrix(combo), snap, grid, users, qos, 1e-3
            )
            assert obj <= d.objective_estimate + 1e-9


def test_scale_free_argmax_with_zero_penalties():
    # With no QoS pressure, scaling every SNR must not move the argmax.
    rng = np.random.default_rng(37)
    grid = ResourceGrid(3, 1e5)
    users = make_users(2, 1)
    qos = QoSRequirement()
    for _ in range(30):
        snr = rng.exponential(1.0, (3, 3))
        a = oracle_allocate(
            make_snapshot(snr, users, lam=0.0), grid, users, qos, 1e-3,
            mode="exhaustive", penalty_weight=0.0,
        )
        b = oracle_allocate(
            make_snapshot(snr * 7.5, users, lam=0.0), grid, users, qos, 1e-3,
            mode="exhaustive", penalty_weight=0.0,
        )
        assert a.allocation.assignment == b.allocation.assignment


def test_dynamic_zero_net_sends_every_block_to_lowest_id():
    users = make_users(2, 1)
    grid = ResourceGrid(4, 1e5)
    net = MLP.zeros([feature_dim(3, 4), 8, 12], (4, 3))
    snap = make_snapshot(np.ones((3, 4)), users)
    d = dynamic_allocate(
        snap, net, grid, users, QoSRequirement(), FeatureScaling(), 1e-3
    )
    assert d.allocation.assignment == (0, 0, 0, 0)
    assert validate_allocation(d.allocation, grid, users)


def test_dynamic_is_deterministic(tiny_trained):
    scen = tiny_trained["scenario"]
    users = scen.users()
    rng = np.random.default_rng(3)
    snap = make_snapshot(rng.exponential(1.0, (3, 4)), users, lam=2.0)
    kwargs = dict(
        grid=scen.grid, users=users, qos=scen.qos,
        scaling=scen.scaling(), slot_duration=scen.slot_duration,
    )
    a = dynamic_allocate(snap, tiny_trained["net"], **kwargs)
    b = dynamic_allocate(snap, tiny_trained["net"], **kwargs)
    assert a.allocation.assignment == b.allocation.assignment


def test_trained_net_imitates_oracle_on_training_set(tiny_trained):
    from twinslice import nn

    acc = nn.accuracy(
        tiny_trained["net"], tiny_trained["X_train"], tiny_trained["labels_train"]
    )
    assert acc >= 0.90


def test_repair_noop_when_constraint_already_met():
    users = make_users(1, 1)
    grid = ResourceGrid(2, 1e5)
    snap = make_snapshot([[1.0, 1.0], [3.0, 3.0]], users, lam=1.0)
    base = oracle_allocate(snap, grid, users, QoSRequirement(), 1e-3)
    repaired = priority_repair(base, snap, QoSRequirement(), grid, users, 1e-3)
    assert repaired.allocation.assignment == base.allocation.assignment
    assert not repaired.constraint_unmet
    assert repaired.policy_id == "oracle+repair"


def test_repair_gives_urllc_a_block_at_zero_lambda():
    # R_u = 0 = zeta * lambda is an outage under the inclusive rule, so the
    # repair must act even though the load is zero.
    users = make_users(1, 1)
    grid = ResourceGrid(2, 1e5)
    snap = make_snapshot([[1.0, 1.0], [0.1, 0.1]], users, lam=0.0)
    d = orthogonal_allocate(snap, OrthogonalConfig(0.0), grid, users, 1e-3)
    assert d.allocation.assignment == (0, 0)
    repaired = priority_repair(d, snap, QoSRequirement(), grid, users, 1e-3)
    assert repaired.allocation.assignment.count(1) >= 1
    assert not repaired.constraint_unmet


def test_repair_flags_exhaustion_when_all_blocks_urllc():
    users = make_users(0, 1)
    grid = ResourceGrid(2, 1e5)
    # tiny SNR: even all blocks cannot carry the load
    snap = make_snapshot([[1e-6, 1e-6]], users, lam=1000.0)
    base = oracle_allocate(snap, grid, users, QoSRequirement(), 1e-3)
    repaired = priority_repair(base, snap, QoSRequirement(), grid, users, 1e-3)
    assert repaired.allocation.assignment == base.allocation.assignment
    assert repaired.constraint_unmet


def test_repair_monotone_and_never_touches_urllc_blocks():
    rng = np.random.default_rng(41)
    users = make_users(2, 2)
    grid = ResourceGrid(6, 1e5)
    qos = QoSRequirement()
    for _ in range(50):
        snap = make_snapshot(
            rng.exponential(1.0, (4, 6)), users, lam=rng.uniform(0, 30)
        )
        base = orthogonal_allocate(snap, OrthogonalConfig(1 / 3), grid, users, 1e-3)
        repaired = priority_repair(base, snap, qos, grid, users, 1e-3)
        before = predicted_urllc_rate(base.allocation, snap, grid, users, 1e-3)
        after = predicted_urllc_rate(repaired.allocation, snap, grid, users, 1e-3)
        assert after >= before - 1e-9
        for b, uid in enumerate(base.allocation.assignment):
            if uid in (2, 3):  # URLLC-held stays put
                assert repaired.allocation.assignment[b] == uid
        n_embb = sum(1 for u in base.allocation.assignment if u in (0, 1))
        n_embb_after = sum(1 for u in repaired.allocation.assignment if u in (0, 1))
        assert n_embb_after <= n_embb


def _stepwise_repair(decision, snap, qos, grid, users, tau):
    """The repair one move at a time: after every move the best (eMBB-held
    block, URLLC user) rate is searched afresh and the prediction
    re-evaluated. Returns the assignment, the unmet flag and the prediction
    after each move."""
    rates = block_rates(snap.channel.snr, grid.rb_bandwidth, tau)
    service = {u.id: u.service for u in users}
    urllc = [i for i, u in enumerate(users) if u.service is ServiceClass.URLLC]
    target = qos.urllc_packet_bits * snap.traffic.urllc_rate
    assignment = list(decision.allocation.assignment)
    trail = []
    while True:
        m = AllocationMatrix(tuple(assignment))
        trail.append(predicted_urllc_rate(m, snap, grid, users, tau))
        if trail[-1] > target:
            return m.assignment, False, trail
        embb = [
            b
            for b, uid in enumerate(assignment)
            if uid != UNASSIGNED and service[uid] is ServiceClass.EMBB
        ]
        if not urllc or not embb:
            return m.assignment, True, trail
        _, nb, ni = max((rates[i, b], -b, -i) for b in embb for i in urllc)
        assignment[-nb] = users[-ni].id


def test_repair_equals_stepwise_reference():
    """The per-call form on one run, and the slot form on 1-5 runs at once,
    each run with its own rows, SNRs and load: every run is repaired as the
    one-move-at-a-time reference repairs it alone."""
    rng = np.random.default_rng(71)
    grid = ResourceGrid(7, 1e5)
    qos = QoSRequirement(urllc_packet_bits=64)
    cases = 0
    for n_embb, n_urllc in ((2, 1), (2, 2), (1, 3), (3, 0), (0, 2)):
        users = make_users(n_embb, n_urllc)
        choices = [u.id for u in users] + [UNASSIGNED]
        runs = []  # (snr, assignment, lam, repaired, unmet) of each case
        for i in range(60):
            shape = (len(users), 7)
            if i % 3:
                snr = rng.exponential(2.0, shape)
            else:  # ties
                snr = rng.choice([0.0, 1.0, 3.0], shape)
            m = AllocationMatrix(tuple(rng.choice(choices, size=7)))
            lam = rng.uniform(0, 12)
            _, _, trail = _stepwise_repair(
                PolicyDecision(m, 0.0, "dnn"), make_snapshot(snr, users, lam=lam),
                qos, grid, users, 1e-3,
            )
            if i % 2:  # a load equal to the prediction after some move
                lam = trail[int(rng.integers(len(trail)))] / qos.urllc_packet_bits
            snap = make_snapshot(snr, users, lam=lam)
            base = PolicyDecision(m, 0.0, "dnn")
            want, unmet, _ = _stepwise_repair(base, snap, qos, grid, users, 1e-3)
            got = priority_repair(base, snap, qos, grid, users, 1e-3)
            assert got.allocation.assignment == want
            assert got.constraint_unmet == unmet
            cases += want != m.assignment
            runs.append((snr, m.assignment, lam, want, unmet))

        # The same cases as slots of 1, 2, ..., 5 runs; ids are rows here.
        repair = repair_policy(qos, grid, users, 1e-3)
        start = 0
        for n in itertools.cycle(range(1, 6)):
            block = runs[start : start + n]
            if not block:
                break
            start += n
            snr, own, lams, want, unmet = zip(*block)
            ring = StateRing(1, qos, UserLayout(users))
            ring.put(0, np.array(snr), np.zeros((len(block), n_urllc)), list(lams))
            rows, flags = repair(np.array(own), ring, 0, slice(None))
            assert [tuple(r) for r in rows.tolist()] == list(want)
            assert flags == list(unmet)
    assert cases > 100


def test_the_dnn_policy_serves_each_run_as_its_own_forward_pass(monkeypatch):
    # The slot's runs go through the net in one call, and each run's probs
    # are the bytes of its own forward pass: one-row gemvs, not the (R, d)
    # gemm, which rounds the default float32 shape otherwise.
    users, grid, qos = make_users(10, 10), ResourceGrid(50, 1e6), QoSRequirement()
    net = MLP.glorot([feature_dim(20, 50), 1024, 1000], (50, 20), seed=2).astype(np.float32)
    rng = np.random.default_rng(9)
    ring = StateRing(1, qos, UserLayout(users))
    lams = [0.0, 50.0, 100.0, 150.0, 200.0]
    ring.put(0, rng.exponential(3.0, (5, 20, 50)), rng.uniform(0, 3e3, (5, 10)), lams)
    served = []

    def spy(net, X):
        out = nn._forward_batch(net, X)
        served.append((X, out[0]))
        return out

    monkeypatch.setattr(policy, "_forward_batch", spy)
    rows = dynamic_policy(net, grid, users, qos, FeatureScaling(), 1e-3)(ring, 0, slice(None))
    ((X, probs),) = served
    for r, x in enumerate(X.reshape(5, -1)):
        assert probs[r].tobytes() == nn.forward(net, x).probs.tobytes()
    assert rows.tolist() == probs.argmax(axis=2).tolist()


def test_repair_probes_rows_and_builds_one_matrix(monkeypatch):
    # The bisection scores user rows on the one rate matrix it read; only
    # the repaired allocation of the per-call form becomes an
    # AllocationMatrix, and the slot form builds none.
    users = make_users(3, 2)
    grid = ResourceGrid(8, 1e5)
    snr = np.random.default_rng(5).exponential(1.0, (5, 8))
    snap = make_snapshot(snr, users, lam=1.0)
    base = PolicyDecision(AllocationMatrix((0, 1, 2, 0, 1, 2, 0, 1)), 0.0, "dnn")
    qos = QoSRequirement()
    want = priority_repair(base, snap, qos, grid, users, 1e-3)  # fills the memo
    calls = {"of_rows": 0, "memo_rates": 0, "block_rates": 0}
    of_rows = AllocationMatrix.of_rows.__func__

    def counted(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)
        return call

    def no_prediction(*args):
        raise AssertionError("the repair called predicted_urllc_rate")

    monkeypatch.setattr(AllocationMatrix, "of_rows", classmethod(counted("of_rows", of_rows)))
    monkeypatch.setattr(policy, "memo_rates", counted("memo_rates", policy.memo_rates))
    monkeypatch.setattr(envsim, "block_rates", counted("block_rates", envsim.block_rates))
    monkeypatch.setattr(policy, "predicted_urllc_rate", no_prediction)
    got = priority_repair(base, snap, qos, grid, users, 1e-3)
    assert calls == {"of_rows": 1, "memo_rates": 1, "block_rates": 0}
    assert got.allocation.assignment == want.allocation.assignment
    pairs = zip(got.allocation.assignment, base.allocation.assignment)
    assert sum(a != b for a, b in pairs) >= 2  # the bisection probed
    assert not got.constraint_unmet

    def no_matrix(*args):
        raise AssertionError("the slot repair built an AllocationMatrix")

    monkeypatch.setattr(AllocationMatrix, "__init__", no_matrix)
    repair = repair_policy(qos, grid, users, 1e-3)
    rows, unmet = repair(np.array([[0, 1, 2, 0, 1, 2, 0, 1]]), snap.ring, snap.held(), slice(1))
    assert rows.tolist() == [list(want.allocation.assignment)]  # ids are rows here
    assert unmet == [False]
    assert calls == {"of_rows": 1, "memo_rates": 2, "block_rates": 0}


def test_policy_outputs_always_validate_fuzz():
    # 10,000 random decisions across the three allocators stay well-formed.
    rng = np.random.default_rng(53)
    users = make_users(2, 1)
    grid = ResourceGrid(4, 1e5)
    qos = QoSRequirement()
    net = MLP.glorot([feature_dim(3, 4), 16, 12], (4, 3), seed=0)
    scaling = FeatureScaling()
    cfg = OrthogonalConfig(0.5)
    for i in range(2500):
        snap = make_snapshot(
            rng.exponential(1.0, (3, 4)), users, lam=rng.uniform(0, 10)
        )
        d1 = orthogonal_allocate(snap, cfg, grid, users, 1e-3)
        d2 = oracle_allocate(snap, grid, users, qos, 1e-3, mode="greedy")
        d3 = dynamic_allocate(snap, net, grid, users, qos, scaling, 1e-3)
        d4 = priority_repair(d3, snap, qos, grid, users, 1e-3)
        for d in (d1, d2, d3, d4):
            assert validate_allocation(d.allocation, grid, users)
