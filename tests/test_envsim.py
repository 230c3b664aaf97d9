import math
from dataclasses import replace

import numpy as np
import pytest

from twinslice.domain import (
    UNASSIGNED,
    AllocationMatrix,
    ChannelState,
    QoSRequirement,
    ResourceGrid,
    ServiceClass,
    SlotClock,
    TrafficState,
)
from twinslice.envsim import (
    Environment,
    FadingModel,
    FadingParams,
    LinkBudget,
    PhysicalState,
    advance,
    db_to_linear,
    fading_gains,
    rate_matrix,
    rate_sums,
    step_channel,
)
from twinslice.scenario import load_scenario

from conftest import RAYLEIGH, make_users

RICIAN = FadingParams(FadingModel.RICIAN, k_factor=5.0)
NO_FADING = FadingParams(FadingModel.RICIAN, k_factor=math.inf)


def test_rician_infinite_k_is_the_no_fading_limit():
    users = make_users(
        1, 0, fading=FadingParams(FadingModel.RICIAN, k_factor=math.inf)
    )
    grid = ResourceGrid(4, 1e5)
    ch = step_channel(np.random.default_rng(0), users, grid)
    assert np.allclose(ch.snr, db_to_linear(10.0))


def test_rayleigh_preserves_mean_snr():
    # Monte-Carlo oracle: unit-mean fading must keep the configured average.
    rng = np.random.default_rng(123)
    gains = fading_gains(rng, FadingParams(FadingModel.RAYLEIGH), (10**6,))
    mean_snr = float(np.mean(db_to_linear(10.0) * gains))
    assert abs(mean_snr - 10.0) / 10.0 < 0.02


def test_rician_unit_mean_power():
    rng = np.random.default_rng(5)
    gains = fading_gains(rng, FadingParams(FadingModel.RICIAN, 5.0), (10**6,))
    assert abs(float(gains.mean()) - 1.0) < 0.02


def test_step_channel_same_seed_is_bit_identical():
    users = make_users(2, 2)
    grid = ResourceGrid(6, 1e5)
    a = step_channel(np.random.default_rng(99), users, grid)
    b = step_channel(np.random.default_rng(99), users, grid)
    assert np.array_equal(a.snr, b.snr)


def _arrivals(lam, slots, seed):
    """Packets per slot of an environment whose one URLLC user holds no block."""
    env = Environment(
        make_users(0, 1), ResourceGrid(2, 1e5), QoSRequirement(), 1e-3,
        lambda t: lam, seed=seed,
    )
    idle = AllocationMatrix((UNASSIGNED, UNASSIGNED))
    return np.array([env.step(idle).urllc_arrival_packets for _ in range(slots)])


def test_arrivals_zero_lambda_is_always_zero():
    assert not _arrivals(0.0, 100, seed=1).any()


def test_arrivals_law_of_large_numbers():
    draws = _arrivals(100.0, 10_000, seed=7)
    assert 98.0 <= np.mean(draws) <= 102.0


def test_arrivals_poisson_dispersion():
    draws = _arrivals(200.0, 10_000, seed=11)
    ratio = draws.var() / draws.mean()
    assert 0.9 <= ratio <= 1.1


def _channel(snr_rows, ids):
    return ChannelState(snr=np.asarray(snr_rows, dtype=float), user_ids=ids)


def test_rate_sums_zero_when_unassigned():
    ch = _channel([[3.0, 7.0]], (0,))
    m = AllocationMatrix((UNASSIGNED, UNASSIGNED))
    assert rate_sums(m, ch, ResourceGrid(2, 10.0), 1.0) == {0: 0.0}


def test_rate_sums_single_block_closed_form():
    # 1 Hz x 1 s x log2(1 + 1) = 1 bit
    ch = _channel([[1.0]], (0,))
    grid = ResourceGrid(1, 1.0)
    assert rate_matrix(ch, grid, 1.0).tolist() == [[1.0]]
    assert rate_sums(AllocationMatrix((0,)), ch, grid, 1.0) == {0: 1.0}


def test_rate_sums_two_blocks_closed_form():
    # 10 Hz x (log2 4 + log2 8) = 50 bits
    ch = _channel([[3.0, 7.0]], (0,))
    grid = ResourceGrid(2, 10.0)
    assert rate_matrix(ch, grid, 1.0).tolist() == [[20.0, 30.0]]
    assert rate_sums(AllocationMatrix((0, 0)), ch, grid, 1.0) == {0: 50.0}


def test_rate_matrix_is_the_scalar_term_memoised_read_only():
    users = make_users(3, 2)
    grid = ResourceGrid(9, 1.8e5)
    ch = step_channel(np.random.default_rng(2), users, grid)
    rates = rate_matrix(ch, grid, 1e-3)
    assert rates.tolist() == [
        [grid.rb_bandwidth * math.log2(1.0 + s) * 1e-3 for s in row]
        for row in ch.snr.tolist()
    ]
    assert rate_matrix(ch, grid, 1e-3) is rates
    assert rate_matrix(ch, grid, 2e-3) is not rates
    with pytest.raises(ValueError):
        rates[0, 0] = 1.0


def _state(users, grid, lam=0.0, queue=None, seed=0):
    urllc_ids = tuple(u.id for u in users if u.service.value == "urllc")
    if queue is None:
        queue = np.zeros(len(urllc_ids))
    return PhysicalState(
        clock=SlotClock(0, 1.0),
        channel=step_channel(np.random.default_rng(seed), users, grid),
        traffic=TrafficState(
            urllc_rate=lam, urllc_queue=queue, urllc_user_ids=urllc_ids
        ),
        qos=QoSRequirement(),
        users=users,
        grid=grid,
    )


def test_advance_null_step_changes_nothing_but_the_clock():
    users = make_users(1, 1)
    grid = ResourceGrid(3, 1e5)
    state = _state(users, grid, lam=0.0, queue=np.array([40.0]))
    nxt, outcome = advance(
        state, AllocationMatrix((UNASSIGNED,) * 3), np.random.default_rng(1)
    )
    assert all(r == 0.0 for r in outcome.rates.values())
    assert nxt.clock.t == 1
    assert nxt.traffic.urllc_queue[0] == 40.0


def test_advance_queue_bookkeeping():
    # queue 500, capacity makes the user serve 300, no arrivals -> 200 left
    users = make_users(0, 1, urllc_snr=0.0)
    grid = ResourceGrid(1, 300.0)
    state = _state(users, grid, lam=0.0, queue=np.array([500.0]))
    # force snr = 1 so the rate is exactly 300 bits
    state = PhysicalState(
        clock=state.clock,
        channel=_channel([[1.0]], (0,)),
        traffic=state.traffic,
        qos=state.qos,
        users=users,
        grid=grid,
    )
    nxt, outcome = advance(state, AllocationMatrix((0,)), np.random.default_rng(1))
    assert outcome.rates[0] == pytest.approx(300.0)
    assert outcome.urllc_served_bits[0] == pytest.approx(300.0)
    assert nxt.traffic.urllc_queue[0] == pytest.approx(200.0)


def test_three_slot_run_is_deterministic():
    def run():
        users = make_users(2, 1)
        grid = ResourceGrid(4, 1e5)
        env = Environment(users, grid, QoSRequirement(), 1e-3, lambda t: 50.0, seed=5)
        m = AllocationMatrix((0, 1, 2, 2))
        return [env.step(m) for _ in range(3)]

    a, b = run(), run()
    for oa, ob in zip(a, b):
        assert oa.rates == ob.rates
        assert oa.urllc_served_bits == ob.urllc_served_bits
        assert oa.urllc_arrival_packets == ob.urllc_arrival_packets


def test_queue_never_negative_and_drain_bounded_by_rate():
    users = make_users(1, 2, urllc_snr=0.0)
    grid = ResourceGrid(4, 1e5)
    env = Environment(users, grid, QoSRequirement(), 1e-3, lambda t: 30.0, seed=9)
    rng = np.random.default_rng(2)
    ids = [u.id for u in users]
    for _ in range(200):
        m = AllocationMatrix(tuple(rng.choice(ids + [UNASSIGNED], size=4)))
        out = env.step(m)
        assert np.all(env.state.traffic.urllc_queue >= 0.0)
        for uid, served in out.urllc_served_bits.items():
            assert served <= out.rates[uid] + 1e-9


def test_rate_monotonicity_adding_a_block_never_hurts():
    users = make_users(1, 0)
    grid = ResourceGrid(5, 1e5)
    ch = step_channel(np.random.default_rng(3), users, grid)
    rng = np.random.default_rng(4)
    for _ in range(100):
        base = tuple(rng.choice([0, UNASSIGNED], size=5))
        if UNASSIGNED not in base:
            continue
        idle = [b for b, v in enumerate(base) if v == UNASSIGNED]
        grown = list(base)
        grown[idle[0]] = 0
        r0 = rate_sums(AllocationMatrix(base), ch, grid, 1e-3)[0]
        r1 = rate_sums(AllocationMatrix(tuple(grown)), ch, grid, 1e-3)[0]
        assert r1 >= r0


def test_advance_rejects_invalid_allocation():
    users = make_users(1, 0)
    grid = ResourceGrid(2, 1e5)
    state = _state(users, grid)
    with pytest.raises(ValueError, match="invalid allocation"):
        advance(state, AllocationMatrix((0, 99)), np.random.default_rng(0))


def test_hand_built_state_ids_must_be_the_users_in_order():
    users = make_users(1, 2)  # id 0 eMBB, ids 1 and 2 URLLC
    grid = ResourceGrid(2, 1e5)
    state = _state(users, grid)
    for channel, traffic in (
        (_channel(np.ones((3, 2)), (0, 1, 5)), state.traffic),
        (state.channel, TrafficState(0.0, np.zeros(2), (2, 1))),
        (state.channel, TrafficState(0.0, np.zeros(1), (1,))),
    ):
        with pytest.raises(ValueError, match="do not match the users"):
            PhysicalState(state.clock, channel, traffic, state.qos, users, grid)


def test_a_view_raises_once_its_ring_entry_is_reused():
    users = make_users(1, 1)
    env = Environment(users, ResourceGrid(2, 1e5), QoSRequirement(), 1e-3, lambda t: 5.0, 3)
    state = env.state
    env.step(AllocationMatrix((0, 1)))
    assert state.snr.shape == (2, 2) and state.lam == 5.0  # the step left it
    env.step(AllocationMatrix((0, 1)))  # slot 2 takes slot 0's entry
    for read in ("snr", "queue", "lam", "memo", "channel", "traffic"):
        with pytest.raises(LookupError, match="slot 0 has left"):
            getattr(state, read)
    with pytest.raises(LookupError):
        state.rates(1e5, 1e-3)
    with pytest.raises(LookupError):
        advance(state, AllocationMatrix((0, 1)), np.random.default_rng(0))


def test_link_budget_validation():
    with pytest.raises(ValueError):
        LinkBudget(mean_snr_db=math.nan)
    with pytest.raises(ValueError):
        FadingParams(FadingModel.RICIAN, k_factor=-1.0)


def _per_user_channel(rng, users, grid):
    """Reference: one fading draw per user, in ascending id order."""
    return np.array(
        [
            db_to_linear(u.link.mean_snr_db)
            * fading_gains(rng, u.link.fading, (grid.num_rbs,))
            for u in sorted(users, key=lambda u: u.id)
        ]
    )


def _mixed_users():
    fadings = (RICIAN, RICIAN, RAYLEIGH, NO_FADING, RAYLEIGH, RICIAN)
    return tuple(
        replace(u, link=LinkBudget(u.link.mean_snr_db + u.id, f))
        for u, f in zip(make_users(3, 3), fadings)
    )


@pytest.mark.parametrize(
    "users",
    [
        make_users(3, 2, fading=RAYLEIGH),
        make_users(3, 2, fading=RICIAN),
        make_users(3, 2, fading=NO_FADING),
        _mixed_users(),
    ],
    ids=["rayleigh", "rician", "k_inf", "mixed"],
)
def test_batched_channel_draw_equals_per_user_draws(users):
    grid = ResourceGrid(7, 1e5)
    batched, ref = np.random.default_rng(21), np.random.default_rng(21)
    for _ in range(3):
        ch = step_channel(batched, users, grid)
        assert np.array_equal(ch.snr, _per_user_channel(ref, users, grid))
    assert batched.bit_generator.state == ref.bit_generator.state


def test_rician_gains_draw_real_parts_then_imaginary_parts():
    k = 5.0
    a, b = np.random.default_rng(8), np.random.default_rng(8)
    gains = fading_gains(a, RICIAN, (6,))
    los, scale = math.sqrt(k / (k + 1.0)), math.sqrt(1.0 / (2.0 * (k + 1.0)))
    re = los + scale * b.standard_normal(6)
    im = scale * b.standard_normal(6)
    assert np.array_equal(gains, re * re + im * im)
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("source", ["default_cfg", "mixed"])
def test_environment_channel_draws_equal_per_user_draws(source, repo_root_scenarios):
    """The run's hoisted channel draw over 200 slots, arrivals drawn between
    the channels, against per-user draws from a second generator."""
    if source == "default_cfg":
        scenario = load_scenario(repo_root_scenarios / "default.cfg")
        users, grid, lam = scenario.users(), scenario.grid, 100.0
    else:
        users, grid, lam = _mixed_users(), ResourceGrid(7, 1e5), 30.0
    n_urllc = sum(u.service is ServiceClass.URLLC for u in users)
    env = Environment(users, grid, QoSRequirement(), 1e-3, lambda t: lam, seed=17)
    ref = np.random.default_rng(17)
    idle = AllocationMatrix((UNASSIGNED,) * grid.num_rbs)
    for _ in range(200):
        assert (env.state.channel.snr == _per_user_channel(ref, users, grid)).all()
        env.step(idle)
        ref.poisson(lam / n_urllc, size=n_urllc)
    assert (env.state.channel.snr == _per_user_channel(ref, users, grid)).all()
    assert env.rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("lam", [0.0, 0.7, 30.0])
def test_single_arrivals_draw_equals_per_user_draws(lam):
    users = make_users(2, 4)
    grid = ResourceGrid(3, 1e5)
    queue = np.array([0.0, 5.0, 17.0, 256.0])
    state = _state(users, grid, lam=lam, queue=queue)
    idle = AllocationMatrix((UNASSIGNED,) * 3)
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    nxt, outcome = advance(state, idle, rng)

    # Reference: four single-user Poisson(lam / 4) draws; nothing at lam = 0.
    packets = [int(ref.poisson(lam / 4)) if lam else 0 for _ in range(4)]
    expected_queue = queue + np.array(packets) * state.qos.urllc_packet_bits
    assert outcome.urllc_arrival_packets == sum(packets)
    assert np.array_equal(nxt.traffic.urllc_queue, expected_queue)
    assert np.array_equal(nxt.channel.snr, step_channel(ref, users, grid).snr)
    assert rng.bit_generator.state == ref.bit_generator.state


def _plain_rate(assignment, ch, user_id, bw, tau):
    """Reference: one user's blocks in index order, nothing shared."""
    row = ch.snr[ch.user_ids.index(user_id)]
    r = 0.0
    for b, uid in enumerate(assignment):
        if uid == user_id:
            r += bw * math.log2(1.0 + row[b]) * tau
    return r


def test_rate_accumulator_equals_plain_user_block_loop():
    users = make_users(3, 2)
    grid = ResourceGrid(9, 1.8e5)
    rng = np.random.default_rng(6)
    choices = [u.id for u in users] + [UNASSIGNED]
    for _ in range(200):
        ch = step_channel(rng, users, grid)
        m = AllocationMatrix(tuple(rng.choice(choices, size=9)))
        rates = rate_sums(m, ch, grid, 1e-3)
        assert list(rates) == [u.id for u in users]
        for u in users:
            expected = _plain_rate(m.assignment, ch, u.id, grid.rb_bandwidth, 1e-3)
            assert rates[u.id] == expected
