"""Physical layer of the simulated network.

Generates per-slot channel realisations and URLLC packet arrivals, and
realises data rates for a chosen allocation. Everything is driven by a
single seedable numpy Generator per run, so (seed, scenario) fully
determines the trajectory. Runs that share their users step in lockstep:
their recent states live in one ``StateRing`` of preallocated arrays with a
leading run axis, and ``PhysicalState`` is a view of one run in one of its
slots. A run's trajectory is the same bit for bit whether it steps alone or
beside others, and one slot or a stale twin's window of slots at a time.
"""
from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .domain import (
    UNASSIGNED,
    AllocationMatrix,
    ChannelState,
    QoSRequirement,
    ResourceGrid,
    TrafficState,
    UserLayout,
    UserTerminal,
)


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


class FadingModel(enum.Enum):
    RAYLEIGH = "rayleigh"
    RICIAN = "rician"


@dataclass(frozen=True)
class FadingParams:
    """Small-scale fading drawn i.i.d. per slot per resource block.

    Power gains have unit mean, so the configured mean SNR is preserved in
    expectation. ``k_factor`` of ``math.inf`` degenerates to no fading.
    """

    model: FadingModel = FadingModel.RAYLEIGH
    k_factor: float = 0.0

    def __post_init__(self):
        if self.model is FadingModel.RICIAN and self.k_factor < 0:
            raise ValueError("Rician k_factor must be >= 0")


@dataclass(frozen=True)
class LinkBudget:
    mean_snr_db: float
    fading: FadingParams = field(default_factory=FadingParams)

    def __post_init__(self):
        if not math.isfinite(self.mean_snr_db):
            raise ValueError("mean_snr_db must be finite")


def _rician(w: np.ndarray, k: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Rician power gains |sqrt(K/(K+1)) + sqrt(1/(K+1)) w|^2, w ~ CN(0,1),
    unit mean: ``re * re + im * im`` with ``re = los + scale * w_re`` and
    ``im = scale * w_im``, from normals ``w`` (..., 2, B) holding per row the
    real parts, then the imaginary parts, which it overwrites."""
    los = math.sqrt(k / (k + 1.0))
    scale = math.sqrt(1.0 / (2.0 * (k + 1.0)))
    w *= scale
    w[..., 0, :] += los
    w *= w
    return np.add(w[..., 0, :], w[..., 1, :], out=out)


def fading_gains(
    rng: np.random.Generator, params: FadingParams, shape: tuple[int, ...]
) -> np.ndarray:
    """Draw unit-mean power gains for the given fading model, one row of the
    last axis after another: an ``(n, B)`` draw equals ``n`` draws of ``(B,)``."""
    if params.model is FadingModel.RAYLEIGH:
        return rng.exponential(1.0, size=shape)
    if math.isinf(params.k_factor):
        return np.ones(shape)
    return _rician(rng.standard_normal((*shape[:-1], 2, shape[-1])), params.k_factor)


class ChannelDraw:
    """The channel draw of runs that share their users. The users never
    change, so their groups of consecutive users with equal fading and the
    linear-mean column are derived once here; each call draws one slot's SNR
    matrix for every run."""

    def __init__(self, layout: UserLayout, grid: ResourceGrid):
        self.groups, start = [], 0
        for fading, group in itertools.groupby(layout.users, key=lambda u: u.link.fading):
            n = sum(1 for _ in group)
            self.groups.append((fading, start, n))
            start += n
        self.means = np.array(
            [db_to_linear(u.link.mean_snr_db) for u in layout.users]
        )[:, None]

    def __call__(self, rngs: Sequence[np.random.Generator], out: np.ndarray) -> None:
        """Write run r's SNR matrix into ``out[r]``: its raw fading values
        drawn from ``rngs[r]`` as ``fading_gains`` draws them, one draw per
        group, then the gain transform and the per-user means applied to
        every run at once."""
        for fading, start, n in self.groups:
            gains = out[:, start : start + n]
            if fading.model is FadingModel.RAYLEIGH:
                for rng, g in zip(rngs, gains):
                    rng.standard_exponential(out=g)  # exponential(1.0), in place
            elif math.isinf(fading.k_factor):
                gains[...] = 1.0  # draws nothing
            else:
                w = np.empty((len(rngs), n, 2, out.shape[2]))
                for rng, w_r in zip(rngs, w):
                    rng.standard_normal(out=w_r)
                _rician(w, fading.k_factor, out=gains)
        out *= self.means


def block_rates(snr: np.ndarray, bw: float, slot_duration: float) -> np.ndarray:
    """The rate kernel: ``bw * log2(1 + snr) * tau`` for every entry.

    One ``np.log2`` call over the matrix runs the C library's log2, the one
    ``math.log2`` calls, so each float is the one a per-block scalar loop
    ``bw * math.log2(1 + s) * tau`` gives. ``tests/test_envsim.py`` pins
    that bit for bit."""
    # Reversed view: numpy runs its own SIMD log2 only on forward-strided
    # input, and that loop differs from the C library's log2 in the last
    # bit on about 0.1 % of entries; on a negative stride numpy's scalar
    # loop calls the C library's log2. test_block_rates_is_the_scalar_formula_bit_for_bit
    # (tests/test_envsim.py) fails, naming the numpy version, if an upgrade
    # changes that dispatch.
    rates = 1.0 + snr
    flat = rates.reshape(-1)
    logs = np.log2(flat[::-1])
    np.multiply(bw, logs[::-1], out=flat)  # bw * log2(1 + snr), in place
    rates *= slot_duration
    return rates


def memo_rates(
    memo: dict, snr: np.ndarray, bw: float, slot_duration: float
) -> np.ndarray:
    """``block_rates`` of one physical state, computed on the first request
    and kept read-only in the state's ``memo``; later requests share it."""
    key = (bw, slot_duration)
    rates = memo.get(key)
    if rates is None:
        rates = memo[key] = block_rates(snr, bw, slot_duration)
        rates.setflags(write=False)
    return rates


@functools.lru_cache
def _run_index(n_runs: int, n_users: int, n_rbs: int) -> tuple[np.ndarray, np.ndarray]:
    """Per entry of ``n_runs`` allocations laid end to end: its run's first
    row of a (runs * users, blocks) stack, and its block."""
    offsets = np.repeat(np.arange(0, n_runs * n_users, n_users), n_rbs)
    blocks = np.tile(np.arange(n_rbs), n_runs)
    offsets.setflags(write=False)
    blocks.setflags(write=False)
    return offsets, blocks


def _user_rates(rows: np.ndarray, rates: np.ndarray, idle: bool) -> np.ndarray:
    """Bits/slot of every user of every run: ``rows[r]`` holds run r's user
    row per block, ``rates`` (runs, users, blocks) the runs'
    ``block_rates``; ``idle`` says some block is UNASSIGNED. One
    ``bincount``, each run in a range of bins of its own, which adds each
    user's entries in block order."""
    n_runs, n_users, n_rbs = rates.shape
    offsets, blocks = _run_index(n_runs, n_users, n_rbs)
    rows = rows.reshape(-1)
    bins = rows + offsets  # each entry's row in the (runs * users, blocks) stack
    weights = rates.reshape(-1, n_rbs)[bins, blocks]
    if idle:
        held = rows >= 0
        bins, weights = bins[held], weights[held]
    return np.bincount(bins, weights=weights, minlength=n_runs * n_users).reshape(
        n_runs, n_users
    )


def user_rates(
    m: AllocationMatrix, users: Iterable[UserTerminal], rates: np.ndarray
) -> np.ndarray:
    """Bits/slot of every user (the rows of ``rates``, ``users`` in ascending
    id order) under ``m``: the user's entries added in block order, by the
    one ``bincount`` the slot kernel runs for all runs (``_user_rates``)."""
    return _user_rates(m.rows_in(UserLayout.of(users)), rates[None], m.idle)[0]


def class_sum(values: list[float], rows: Iterable[int]) -> float:
    """Sum of ``values`` over one service class's rows in ascending id order:
    the one grouping behind every realised and predicted class sum."""
    total = 0.0
    for r in rows:
        total += values[r]
    return total


class StateRing:
    """The recent physical states of runs that step in lockstep, in
    preallocated arrays with a leading run axis, beside the constants the
    runs share. Slot t lives in entry t % depth until slot t + depth
    overwrites it: run r's SNR matrix ``snr[i, r]`` (users x blocks, in
    ``layout`` order), its URLLC queues ``queue[i, r]`` (ascending id) and
    its arrival rate ``lam[i][r]``, and the entry's rate memo ``memo[i]``,
    where ``block_rates`` of all its runs' SNRs is kept once computed. The
    arrays take their shape from the first state put in."""

    def __init__(self, depth: int, qos: QoSRequirement, layout: UserLayout):
        self.depth, self.qos, self.layout = depth, qos, layout
        self.snr = self.queue = None
        self.lam: list[list[float]] = [[]] * depth
        self.slot = [-1] * depth
        self.memo: list[dict] = [{} for _ in range(depth)]

    def entry(self, t: int) -> int:
        """Slot t's entry; LookupError unless the ring still holds slot t."""
        i = t % self.depth
        if self.slot[i] != t:
            raise LookupError(f"slot {t} has left the state ring")
        return i

    def put(
        self, t: int, snr, queue, lam: list[float], memo: Optional[dict] = None
    ) -> None:
        """Write slot t's states of every run into its entry: ``snr`` is
        (runs, users, blocks), ``queue`` (runs, URLLC users) and ``lam`` one
        float per run. ``memo`` shares the rate matrices of the same states
        held in another ring."""
        if self.snr is None:
            self.snr = np.empty((self.depth, *np.shape(snr)))
            self.queue = np.empty((self.depth, *np.shape(queue)))
        i = t % self.depth
        self.snr[i], self.queue[i], self.lam[i], self.slot[i] = snr, queue, lam, t
        self.memo[i] = {} if memo is None else memo

    def gather(self, entries: list, runs: slice, bw: float, slot_duration: float) -> StateRing:
        """The ``runs`` of ``entries``, slot-major (run k * R + r is run r of
        ``entries[k]``), as the one entry of a depth-1 ring whose rate memo
        stacks each entry's ``memo_rates``: one ``block_rates`` per state."""
        snr, queue = self.snr[entries, runs], self.queue[entries, runs]
        n = snr.shape[0] * snr.shape[1]
        out = StateRing(1, self.qos, self.layout)
        out.snr, out.queue = snr.reshape(1, n, *snr.shape[2:]), queue.reshape(1, n, queue.shape[2])
        out.lam, out.slot = [[lam for i in entries for lam in self.lam[i][runs]]], [0]
        rates = np.concatenate(
            [memo_rates(self.memo[i], self.snr[i], bw, slot_duration)[runs] for i in entries]
        )
        rates.setflags(write=False)
        out.memo = [{(bw, slot_duration): rates}]
        return out


class PhysicalState:
    """Everything the physical network knows at the start of slot ``t`` in
    one run: a view of that slot's entry in a ``StateRing`` and of the run's
    place on its run axis. Every read checks that the ring still holds the
    slot, and raises LookupError once the ring has reused the entry;
    ``channel`` and ``traffic`` copy the run's values on their first read
    and keep them."""

    __slots__ = ("ring", "t", "run", "_channel", "_traffic")

    @classmethod
    def view(cls, ring: StateRing, t: int, run: int = 0) -> "PhysicalState":
        state = cls.__new__(cls)
        state.ring, state.t, state.run = ring, t, run
        state._channel = state._traffic = None
        return state

    def held(self) -> int:
        """The slot's ring entry (``StateRing.entry``)."""
        return self.ring.entry(self.t)

    def as_slot(self) -> tuple[StateRing, int, slice]:
        """The run as a slot policy's ``(ring, entry, runs)``: one run."""
        return self.ring, self.held(), slice(self.run, self.run + 1)

    @property
    def snr(self) -> np.ndarray:
        return self.ring.snr[self.held(), self.run]

    @property
    def queue(self) -> np.ndarray:
        return self.ring.queue[self.held(), self.run]

    @property
    def lam(self) -> float:
        return self.ring.lam[self.held()][self.run]

    def rates(self, bw: float, slot_duration: float) -> np.ndarray:
        """The run's ``block_rates``, read from the matrices of every run of
        the entry, computed on the entry's first request."""
        i, ring = self.held(), self.ring
        return memo_rates(ring.memo[i], ring.snr[i], bw, slot_duration)[self.run]

    @property
    def channel(self) -> ChannelState:
        if self._channel is None:
            self._channel = ChannelState(snr=self.snr, user_ids=self.ring.layout.ids)
        return self._channel

    @property
    def traffic(self) -> TrafficState:
        if self._traffic is None:
            self._traffic = TrafficState(
                urllc_rate=self.lam,
                urllc_queue=self.queue,
                urllc_user_ids=self.ring.layout.urllc_ids,
            )
        return self._traffic

    @property
    def qos(self) -> QoSRequirement:
        return self.ring.qos


class SlotOutcome(NamedTuple):
    """Realised rates and queue movements for one simulated slot.

    ``rates`` are Shannon capacities of the allocation (bits/slot);
    ``urllc_sum_rate`` is their sum over URLLC users, the quantity the
    outage contract is written against. ``urllc_served_bits`` is what the
    backlog actually allowed to be drained, so it never exceeds the rate;
    ``urllc_served_total`` is their sum, as ``SlotColumns.served``.
    """

    t: int
    rates: dict[int, float]
    embb_sum_rate: float
    urllc_sum_rate: float
    urllc_served_bits: dict[int, float]
    urllc_arrival_packets: int
    lambda_t: float
    urllc_served_total: float


class SlotColumns(NamedTuple):
    """One slot of the runs that step in lockstep, run r's values at index r:
    its arrival rate, its eMBB, URLLC and URLLC-served bit sums, each added
    in ascending id order (``class_sum``), and the per-user values behind
    them, in ascending id: every user's rate, the URLLC users' served bits
    and arrived packets."""

    t: int
    lam: list[float]
    embb: list[float]
    urllc: list[float]
    served: list[float]
    rates: list[list[float]]
    served_bits: list[list[float]]
    arrivals: list[list[int]]

    def outcome(self, layout: UserLayout, run: int = 0) -> SlotOutcome:
        """The run's slot as a ``SlotOutcome``, its values by user id."""
        return SlotOutcome(
            self.t, dict(zip(layout.ids, self.rates[run])), self.embb[run],
            self.urllc[run], dict(zip(layout.urllc_ids, self.served_bits[run])),
            sum(self.arrivals[run]), self.lam[run], self.served[run],
        )


class Environment:
    """Owns the physical trajectories of runs that share their users, grid,
    QoS and slot length and step in lockstep: a ``StateRing`` of their
    ``delay_slots + 2`` latest states (a step takes up to the twin delay + 1
    slots, whose states stay readable), and per run a generator and a lambda
    plan. Run r follows ``lambda_schedules[r]`` and draws from a generator
    seeded with ``seeds[r]`` (a Generator is used as it is); its trajectory
    is the one it has alone."""

    def __init__(
        self,
        users: Iterable[UserTerminal],
        grid: ResourceGrid,
        qos: QoSRequirement,
        slot_duration: float,
        lambda_schedules: Sequence[Callable[[int], float]],
        seeds: Sequence,
        delay_slots: int = 0,
    ):
        layout = UserLayout.of(users)
        self.lambda_schedules = list(lambda_schedules)
        self.rngs = [np.random.default_rng(seed) for seed in seeds]
        self.draw = ChannelDraw(layout, grid)
        self.grid, self.slot_duration = grid, slot_duration
        self.ring, self.now = StateRing(delay_slots + 2, qos, layout), 0
        snr = np.empty((len(self.rngs), len(layout.ids), grid.num_rbs))
        self.draw(self.rngs, snr)
        queue = np.zeros((len(self.rngs), len(layout.urllc)))
        self.ring.put(0, snr, queue, [float(s(0)) for s in self.lambda_schedules])

    @property
    def state(self) -> PhysicalState:
        """The first run's current state; ``DigitalTwin.record`` of it
        records every run."""
        return PhysicalState.view(self.ring, self.now)

    def step(self, decision: AllocationMatrix) -> SlotOutcome:
        """Apply an allocation for the current slot of a one-run environment
        and move to the next one (``step_runs``), as a ``SlotOutcome``."""
        layout = self.ring.layout
        return self.step_runs(decision.rows_in(layout)[None]).outcome(layout)

    def step_runs(self, rows: np.ndarray) -> Union[SlotColumns, list[SlotColumns]]:
        """The slot kernel: apply the user rows of n consecutive slots,
        ``rows[k, r]`` run r's at slot now + k, one per block with UNASSIGNED
        for an idle block; write each next slot of every run into the ring,
        move past them and return each slot's columns (rows ``[R, B]``: one
        slot, its columns alone). Rows of another shape, of more than
        ``delay_slots + 1`` slots or outside the users are a ValueError,
        raised before anything is drawn.

        Order of events within a slot: realise rates against its channel,
        drain URLLC queues by served bits, add the slot's new arrivals
        (packet count times packet size), then tick the clock and draw a
        fresh channel with the next slot's lambda. Each run draws from its
        own generator, slot after slot, its arrivals before its next channel;
        one ``block_rates`` call then rates the states that have no memo yet.
        """
        ring, t, rngs = self.ring, self.now, self.rngs
        layout, n_rbs, n_runs = ring.layout, self.grid.num_rbs, len(rngs)
        n = len(rows) if rows.ndim == 3 else 1
        if rows.shape[-2:] != (n_runs, n_rbs) or rows.ndim > 3 or not 0 < n < ring.depth:
            raise ValueError(
                f"invalid allocation: rows of shape {rows.shape} for {n_runs} runs "
                f"of {n_rbs} blocks and at most {ring.depth - 1} slots"
            )
        lo = rows.min()
        if lo < UNASSIGNED or rows.max() >= len(layout.ids):
            raise ValueError(
                f"invalid allocation: rows {rows.tolist()} outside the "
                f"{len(layout.ids)} users"
            )
        urllc, n_urllc, depth = layout.urllc, len(layout.urllc), ring.depth
        held, arrivals = [t % depth], []  # the entries of slots t ... t + n
        for ahead in range(t + 1, t + n + 1):
            drawn = []
            for rng, lam in zip(rngs, ring.lam[held[-1]]):
                # Independent per-user Poisson(lam/n) streams in one draw; the
                # aggregate stays Poisson(lam). At lam = 0 nothing is drawn.
                if n_urllc > 0 and lam > 0:
                    drawn.append(rng.poisson(lam / n_urllc, size=n_urllc).tolist())
                else:
                    drawn.append([0] * n_urllc)
            arrivals.append(drawn)
            j = ahead % depth
            ring.lam[j] = [float(schedule(ahead)) for schedule in self.lambda_schedules]
            ring.slot[j], ring.memo[j] = ahead, {}
            self.draw(rngs, ring.snr[j])
            held.append(j)

        bw, tau = self.grid.rb_bandwidth, self.slot_duration
        if n == 1:
            matrix = memo_rates(ring.memo[held[0]], ring.snr[held[0]], bw, tau)
        else:  # one call for the window's states that have no rate memo yet
            fresh = held[1:n] if (bw, tau) in ring.memo[held[0]] else held[:n]
            matrices = block_rates(ring.snr[fresh], bw, tau)
            matrices.setflags(write=False)
            for i, rated in zip(fresh, matrices):
                ring.memo[i][bw, tau] = rated
            matrix = np.concatenate([ring.memo[i][bw, tau] for i in held[:n]])
        rates = _user_rates(rows, matrix, lo == UNASSIGNED).tolist()

        bits, embb, every = ring.qos.urllc_packet_bits, layout.embb, range(n_urllc)
        queues, out = ring.queue[held[0]].tolist(), []
        for k, drawn in enumerate(arrivals):
            slot_rates = rates if n == 1 else rates[k * n_runs : (k + 1) * n_runs]
            served_bits, next_queues = [], []
            for queue, own, got in zip(queues, slot_rates, drawn):
                served = [min(q, own[r]) for q, r in zip(queue, urllc)]
                served_bits.append(served)
                next_queues.append([q - s + a * bits for q, s, a in zip(queue, served, got)])
            ring.queue[held[k + 1]] = queues = next_queues
            out.append(SlotColumns(
                t + k, ring.lam[held[k]], [class_sum(own, embb) for own in slot_rates],
                [class_sum(own, urllc) for own in slot_rates],
                [class_sum(served, every) for served in served_bits], slot_rates,
                served_bits, drawn,
            ))
        self.now = t + n
        return out if rows.ndim == 3 else out[0]
