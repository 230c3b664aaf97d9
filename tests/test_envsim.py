import ast
import math
import sys
from unittest import mock
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import twinslice

from twinslice import envsim
from twinslice.domain import (
    UNASSIGNED,
    AllocationMatrix,
    QoSRequirement,
    ResourceGrid,
    ServiceClass,
)
from twinslice.envsim import (
    Environment,
    FadingModel,
    FadingParams,
    LinkBudget,
    block_rates,
    db_to_linear,
    fading_gains,
    user_rates,
)
from twinslice.scenario import load_scenario
from twinslice.twin import DigitalTwin

from conftest import RAYLEIGH, make_env, make_users, put_state

RICIAN = FadingParams(FadingModel.RICIAN, k_factor=5.0)
NO_FADING = FadingParams(FadingModel.RICIAN, k_factor=math.inf)


def test_rician_infinite_k_is_the_no_fading_limit():
    users = make_users(
        1, 0, fading=FadingParams(FadingModel.RICIAN, k_factor=math.inf)
    )
    env = make_env(users, ResourceGrid(4, 1e5))
    assert np.allclose(env.state.snr, db_to_linear(10.0))


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
    a, b = make_env(users, grid, seed=99), make_env(users, grid, seed=99)
    assert np.array_equal(a.state.snr, b.state.snr)


def _arrivals(lam, slots, seed):
    """Packets per slot of an environment whose one URLLC user holds no block."""
    env = make_env(make_users(0, 1), ResourceGrid(2, 1e5), lam=lam, seed=seed)
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


def test_rate_sums_zero_when_unassigned():
    rates = block_rates(np.array([[3.0, 7.0]]), 10.0, 1.0)
    m = AllocationMatrix((UNASSIGNED, UNASSIGNED))
    assert user_rates(m, make_users(1, 0), rates).tolist() == [0.0]


def test_rate_sums_single_block_closed_form():
    # 1 Hz x 1 s x log2(1 + 1) = 1 bit
    rates = block_rates(np.array([[1.0]]), 1.0, 1.0)
    assert rates.tolist() == [[1.0]]
    assert user_rates(AllocationMatrix((0,)), make_users(1, 0), rates).tolist() == [1.0]


def test_rate_sums_two_blocks_closed_form():
    # 10 Hz x (log2 4 + log2 8) = 50 bits
    rates = block_rates(np.array([[3.0, 7.0]]), 10.0, 1.0)
    assert rates.tolist() == [[20.0, 30.0]]
    assert user_rates(AllocationMatrix((0, 0)), make_users(1, 0), rates).tolist() == [50.0]


def test_rate_matrix_is_the_scalar_term_memoised_read_only():
    users = make_users(3, 2)
    grid = ResourceGrid(9, 1.8e5)
    state = make_env(users, grid, seed=2).state
    rates = state.rates(grid.rb_bandwidth, 1e-3)
    assert rates.tolist() == [
        [grid.rb_bandwidth * math.log2(1.0 + s) * 1e-3 for s in row]
        for row in state.snr.tolist()
    ]
    # Each read is a view of the state's one memoised matrix per (bw, tau).
    assert state.rates(grid.rb_bandwidth, 1e-3).base is rates.base
    assert state.rates(grid.rb_bandwidth, 2e-3).base is not rates.base
    with pytest.raises(ValueError):
        rates[0, 0] = 1.0


def _assert_scalar_formula(snr, bw, tau):
    """``block_rates`` gives, bit for bit, what ``bw * math.log2(1 + s) * tau``
    gives per entry."""
    got = block_rates(snr, bw, tau)
    want = np.array(
        [bw * math.log2(1.0 + s) * tau for s in snr.ravel().tolist()]
    ).reshape(snr.shape)
    bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert bad.size == 0, (
        f"block_rates differs from bw * math.log2(1 + snr) * tau on {bad.size} "
        f"of {snr.size} entries (first at snr={snr.ravel()[bad[0]]!r}, "
        f"bw={bw!r}, tau={tau!r}) under numpy {np.__version__}; a numpy whose "
        "log2 dispatch differs breaks the kernel's exactness"
    )


def _near(x, ulps):
    """``x`` moved ``ulps`` representable floats up (or down, if negative)."""
    toward = math.inf if ulps > 0 else 0.0
    for _ in range(abs(ulps)):
        x = math.nextafter(x, toward)
    return x


#: SNR entries where a log2 is most likely to round differently: zero,
#: subnormals, values around powers of two and around ``2**k - 1`` (where
#: ``1 + snr`` is near a power of two), the largest finite floats (where
#: ``1 + snr`` rounds to the largest float), the SNRs of real channels, and
#: anything else finite.
SNR_ENTRIES = st.one_of(
    st.just(0.0),
    st.floats(0.0, 2.2250738585072014e-308, exclude_max=True),
    st.builds(
        lambda k, d: _near(math.ldexp(1.0, k), d),
        st.integers(-1074, 1023),
        st.integers(-3, 3),
    ).filter(math.isfinite),
    st.builds(
        lambda k, d: _near(math.ldexp(1.0, k) - 1.0, d),
        st.integers(1, 60),
        st.integers(-3, 3),
    ),
    st.builds(lambda d: _near(sys.float_info.max, -d), st.integers(0, 5)),
    st.floats(0.0, 1e4),
    st.floats(0.0, allow_infinity=False),
)


@given(
    snr=st.tuples(st.integers(1, 20), st.integers(1, 50)).flatmap(
        lambda shape: arrays(float, shape, elements=SNR_ENTRIES)
    ),
    # A bandwidth up to the largest float: there the product overflows to inf.
    bw=st.sampled_from([1.0, 1.8e5, 1e6, 1e300, sys.float_info.max]),
    tau=st.sampled_from([1.0, 1e-3, 0.37]),
)
# No shrinking: the message names the first differing entry, and shrinking
# a matrix of a thousand entries takes minutes.
@settings(phases=[Phase.explicit, Phase.generate])
def test_block_rates_is_the_scalar_formula_bit_for_bit(snr, bw, tau):
    with np.errstate(over="ignore"):
        _assert_scalar_formula(snr, bw, tau)


@given(
    snr=st.tuples(st.integers(1, 6), st.integers(1, 10), st.integers(1, 20)).flatmap(
        lambda shape: arrays(float, shape, elements=SNR_ENTRIES)
    ),
    bw=st.sampled_from([1.8e5, 1e6, sys.float_info.max]),
    tau=st.sampled_from([1e-3, 0.37]),
)
@settings(phases=[Phase.explicit, Phase.generate])
def test_block_rates_is_the_scalar_formula_on_run_stacks(snr, bw, tau):
    """The lockstep engine's kernel call covers a (runs, users, blocks)
    stack; each entry is still the scalar formula, so each run's slice is
    its own matrix's ``block_rates``."""
    with np.errstate(over="ignore"):
        _assert_scalar_formula(snr, bw, tau)
        stacked = block_rates(snr, bw, tau)
        for run, own in zip(stacked, snr):
            assert run.tobytes() == block_rates(own, bw, tau).tobytes()


def test_block_rates_is_the_scalar_formula_on_log_uniform_values():
    exponents = np.random.default_rng(2024).uniform(-320.0, 308.25, 10**5)
    snr = (10.0 ** exponents).reshape(200, 500)
    _assert_scalar_formula(snr, 1.8e5, 1e-3)


class _Log2Sites(ast.NodeVisitor):
    """Every use of a name ``log2`` (``np.log2``, ``math.log2``, a bare
    ``log2``), called or passed, as (module, innermost enclosing function)."""

    def __init__(self, module):
        self.module, self.scope, self.sites = module, ["<module>"], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node):
        if node.attr == "log2":
            self.sites.append((self.module, self.scope[-1]))
        self.generic_visit(node)

    def visit_Name(self, node):
        if node.id == "log2":
            self.sites.append((self.module, self.scope[-1]))


def test_log2_is_used_only_by_the_rate_kernel_and_the_penalty_scale():
    """``src/twinslice`` has two log2 sites: the exact rate kernel and the
    penalty weight's documented numpy scale. Any other rate computation must
    read ``block_rates``, so a per-entry ``math.log2`` loop cannot return."""
    sites = []
    for path in sorted(Path(twinslice.__file__).parent.glob("*.py")):
        finder = _Log2Sites(path.stem)
        finder.visit(ast.parse(path.read_text(encoding="utf-8")))
        sites += finder.sites
    assert sorted(sites) == [
        ("envsim", "block_rates"),
        ("policy", "default_penalty_weight"),
    ]


def test_advance_null_step_changes_nothing_but_the_clock():
    users = make_users(1, 1)
    env = make_env(users, ResourceGrid(3, 1e5))
    put_state(env, np.ones((2, 3)), [40.0], 0.0)
    outcome = env.step(AllocationMatrix((UNASSIGNED,) * 3))
    assert all(r == 0.0 for r in outcome.rates.values())
    assert env.state.t == 1
    assert env.state.traffic.urllc_queue[0] == 40.0


def test_advance_queue_bookkeeping():
    # queue 500, capacity makes the user serve 300, no arrivals -> 200 left
    users = make_users(0, 1, urllc_snr=0.0)
    env = make_env(users, ResourceGrid(1, 300.0), slot_duration=1.0)
    # snr = 1, so the rate is exactly 300 bits
    put_state(env, [[1.0]], [500.0], 0.0)
    outcome = env.step(AllocationMatrix((0,)))
    assert outcome.rates[0] == pytest.approx(300.0)
    assert outcome.urllc_served_bits[0] == pytest.approx(300.0)
    assert env.state.traffic.urllc_queue[0] == pytest.approx(200.0)


def test_three_slot_run_is_deterministic():
    def run():
        users = make_users(2, 1)
        grid = ResourceGrid(4, 1e5)
        env = make_env(users, grid, lam=50.0, seed=5)
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
    env = make_env(users, grid, lam=30.0, seed=9)
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
    rates = make_env(users, grid, seed=3).state.rates(grid.rb_bandwidth, 1e-3)
    rng = np.random.default_rng(4)
    for _ in range(100):
        base = tuple(rng.choice([0, UNASSIGNED], size=5))
        if UNASSIGNED not in base:
            continue
        idle = [b for b, v in enumerate(base) if v == UNASSIGNED]
        grown = list(base)
        grown[idle[0]] = 0
        r0 = user_rates(AllocationMatrix(base), users, rates)[0]
        r1 = user_rates(AllocationMatrix(tuple(grown)), users, rates)[0]
        assert r1 >= r0


def test_advance_rejects_invalid_allocation():
    env = make_env(make_users(1, 0), ResourceGrid(2, 1e5))
    with pytest.raises(ValueError, match="invalid allocation"):
        env.step(AllocationMatrix((0, 99)))


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 1, 2]],  # one run's rows for two runs
        [[0, 1], [2, 0]],  # two blocks of three
        [[0, 1, 2], [2, 3, 0]],  # a row >= the three users
        [[0, 1, 2], [-2, 0, 1]],  # a row below UNASSIGNED
        [[[0, 1, 2], [2, 1, 0]], [[0, 1, 2], [2, 3, 0]]],  # slot 2 of a window: >= users
        [[[0, 1, 2]] * 2, [[0, 1, 2]] * 2, [[0, 1, 2], [-2, 0, 1]]],  # slot 3: below
        [[[0, 1, 2]] * 2] * 4,  # four slots, where a twin delay of 2 fixes three
        [[[0, 1, 2]]] * 2,  # a window of one run's rows for two runs
        np.zeros((0, 2, 3), dtype=int),  # a window of no slots
        [[[[0, 1, 2]] * 2] * 2],  # a window of windows
    ],
)
def test_step_runs_rejects_bad_rows_before_drawing(rows):
    """Bad rows in any slot of a window raise before any generator moves."""
    users = make_users(2, 1)
    env = Environment(
        users, ResourceGrid(3, 1e5), QoSRequirement(), 1e-3, [lambda t: 5.0] * 2, [1, 2],
        delay_slots=2,
    )
    before = [rng.bit_generator.state for rng in env.rngs]
    with pytest.raises(ValueError, match="invalid allocation"):
        env.step_runs(np.array(rows))
    assert env.now == 0
    assert [rng.bit_generator.state for rng in env.rngs] == before
    env.step_runs(np.array([[0, 1, 2], [UNASSIGNED, 2, 1]]))  # still steps
    assert env.now == 1
    assert len(env.step_runs(np.array([[[0, 1, 2], [UNASSIGNED, 2, 1]]] * 3))) == 3
    assert env.now == 4


def _same_bits(a, b):
    assert np.array(a, dtype=float).tobytes() == np.array(b, dtype=float).tobytes()


@st.composite
def windowed_runs(draw):
    """Users (none of them URLLC at times), 1-5 blocks, 1-3 runs, a delay
    of 0-6 slots and 1-30 slots, so that the last window may be cut short;
    per slot each run's lambda (0 included) and rows (idle blocks included)."""
    n_embb, n_urllc = draw(st.sampled_from([(1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (1, 3)]))
    users = make_users(
        n_embb, n_urllc, fading=draw(st.sampled_from([RAYLEIGH, RICIAN, NO_FADING]))
    )
    n_rbs, n_runs = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    delay, horizon = draw(st.integers(0, 6)), draw(st.integers(1, 30))
    lams = draw(st.lists(
        st.lists(st.sampled_from([0.0, 0.5, 3.0, 40.0]), min_size=horizon + 1, max_size=horizon + 1),
        min_size=n_runs, max_size=n_runs,
    ))
    rows = np.random.default_rng(draw(st.integers(0, 2**32))).integers(
        UNASSIGNED, len(users), size=(horizon, n_runs, n_rbs)
    )
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=n_runs, max_size=n_runs))
    return users, n_rbs, delay, lams, rows, seeds, draw(st.booleans())


@given(windowed_runs())
def test_a_window_step_is_its_slots_stepped_one_by_one(case):
    """Stepping the d + 1 slots of a window in one call equals stepping them
    one call each, bit for bit: every slot's columns, the ring's SNRs,
    queues, lambdas and rate memos, and every generator's state. ``rated``
    computes each window's first state's rates first, as a policy does; the
    window then computes the rest in one ``block_rates`` call."""
    users, n_rbs, delay, lams, rows, seeds, rated = case
    grid, key = ResourceGrid(n_rbs, 1e5), (1e5, 1e-3)
    schedules = [lambda t, lam=lam: lam[t] for lam in lams]
    windowed, alone = (
        Environment(users, grid, QoSRequirement(), 1e-3, schedules, seeds, delay_slots=delay)
        for _ in range(2)
    )
    for start in range(0, len(rows), delay + 1):
        window = rows[start : start + delay + 1]
        if rated:
            for env in (windowed, alone):
                env.state.rates(*key)
        with mock.patch.object(envsim, "block_rates", wraps=envsim.block_rates) as kernel:
            got = windowed.step_runs(window)
        assert kernel.call_count == (len(window) > 1 or not rated)
        want = [alone.step_runs(slot) for slot in window]
        assert len(got) == len(want) == len(window)
        for columns, expected in zip(got, want):
            assert columns.t == expected.t
            for name in ("lam", "embb", "urllc", "served", "rates", "served_bits", "arrivals"):
                _same_bits(getattr(columns, name), getattr(expected, name))
        assert windowed.now == alone.now == start + len(window)
        for t in range(start, windowed.now + 1):
            a, b = windowed.ring, alone.ring
            i, j = a.entry(t), b.entry(t)
            assert a.snr[i].tobytes() == b.snr[j].tobytes()
            assert a.queue[i].tobytes() == b.queue[j].tobytes()
            _same_bits(a.lam[i], b.lam[j])
            assert a.memo[i].keys() == b.memo[j].keys() == ({key} if t < windowed.now else set())
            for k in a.memo[i]:
                assert a.memo[i][k].tobytes() == b.memo[j][k].tobytes()
                assert not a.memo[i][k].flags.writeable
        assert [rng.bit_generator.state for rng in windowed.rngs] == [
            rng.bit_generator.state for rng in alone.rngs
        ]


def test_a_view_raises_once_its_ring_entry_is_reused():
    users = make_users(1, 1)
    env = make_env(users, ResourceGrid(2, 1e5), lam=5.0, seed=3)
    state = env.state
    env.step(AllocationMatrix((0, 1)))
    assert state.snr.shape == (2, 2) and state.lam == 5.0  # the step left it
    env.step(AllocationMatrix((0, 1)))  # slot 2 takes slot 0's entry
    for read in ("snr", "queue", "lam", "channel", "traffic"):
        with pytest.raises(LookupError, match="slot 0 has left"):
            getattr(state, read)
    with pytest.raises(LookupError):
        state.rates(1e5, 1e-3)
    with pytest.raises(LookupError):
        DigitalTwin().record(state)


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
    env, ref = make_env(users, grid, seed=21), np.random.default_rng(21)
    idle = AllocationMatrix((UNASSIGNED,) * grid.num_rbs)
    for t in range(3):
        if t:
            env.step(idle)  # at lambda 0 a step draws only the next channel
        assert np.array_equal(env.state.snr, _per_user_channel(ref, users, grid))
    assert env.rngs[0].bit_generator.state == ref.bit_generator.state


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
    env = make_env(users, grid, lam=lam, seed=17)
    ref = np.random.default_rng(17)
    idle = AllocationMatrix((UNASSIGNED,) * grid.num_rbs)
    for _ in range(200):
        assert (env.state.channel.snr == _per_user_channel(ref, users, grid)).all()
        env.step(idle)
        ref.poisson(lam / n_urllc, size=n_urllc)
    assert (env.state.channel.snr == _per_user_channel(ref, users, grid)).all()
    assert env.rngs[0].bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("lam", [0.0, 0.7, 30.0])
def test_single_arrivals_draw_equals_per_user_draws(lam):
    users = make_users(2, 4)
    grid = ResourceGrid(3, 1e5)
    queue = np.array([0.0, 5.0, 17.0, 256.0])
    env, ref = make_env(users, grid, lam=lam, seed=4), np.random.default_rng(4)
    _per_user_channel(ref, users, grid)  # slot 0's channel
    put_state(env, env.state.snr.copy(), queue, lam)
    outcome = env.step(AllocationMatrix((UNASSIGNED,) * 3))

    # Reference: four single-user Poisson(lam / 4) draws; nothing at lam = 0.
    packets = [int(ref.poisson(lam / 4)) if lam else 0 for _ in range(4)]
    expected_queue = queue + np.array(packets) * QoSRequirement().urllc_packet_bits
    assert outcome.urllc_arrival_packets == sum(packets)
    assert np.array_equal(env.state.traffic.urllc_queue, expected_queue)
    assert np.array_equal(env.state.snr, _per_user_channel(ref, users, grid))
    assert env.rngs[0].bit_generator.state == ref.bit_generator.state


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
    env, rng = make_env(users, grid, seed=6), np.random.default_rng(7)
    choices = [u.id for u in users] + [UNASSIGNED]
    for _ in range(200):
        ch = env.state.channel
        m = AllocationMatrix(tuple(rng.choice(choices, size=9)))
        rates = env.step(m).rates
        assert list(rates) == [u.id for u in users]
        for u in users:
            expected = _plain_rate(m.assignment, ch, u.id, grid.rb_bandwidth, 1e-3)
            assert rates[u.id] == expected
