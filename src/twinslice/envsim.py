"""Physical layer of the simulated network.

Generates per-slot channel realisations and URLLC packet arrivals, and
realises data rates for a chosen allocation. Everything is driven by a
single seedable numpy Generator per run, so (seed, scenario) fully
determines the trajectory. A run's recent states live in a ``StateRing`` of
preallocated arrays; ``PhysicalState`` is a view of one of its slots.
"""
from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from .domain import (
    AllocationMatrix,
    ChannelState,
    QoSRequirement,
    ResourceGrid,
    SlotClock,
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


def fading_gains(
    rng: np.random.Generator, params: FadingParams, shape: tuple[int, ...]
) -> np.ndarray:
    """Draw unit-mean power gains for the given fading model, one row of the
    last axis after another: an ``(n, B)`` draw equals ``n`` draws of ``(B,)``."""
    if params.model is FadingModel.RAYLEIGH:
        return rng.exponential(1.0, size=shape)
    # Rician: |sqrt(K/(K+1)) + sqrt(1/(K+1)) w|^2 with w ~ CN(0,1); unit mean.
    k = params.k_factor
    if math.isinf(k):
        return np.ones(shape)
    los = math.sqrt(k / (k + 1.0))
    scale = math.sqrt(1.0 / (2.0 * (k + 1.0)))
    # Per row: the real parts of w, then the imaginary parts.
    w = rng.standard_normal((*shape[:-1], 2, shape[-1]))
    re = los + scale * w[..., 0, :]
    im = scale * w[..., 1, :]
    return re * re + im * im


class ChannelDraw:
    """One run's channel draw. The users never change within a run, so their
    runs of equal fading and the linear-mean column are derived once here;
    each call draws one slot's SNR matrix."""

    def __init__(self, layout: UserLayout, grid: ResourceGrid):
        users = layout.users
        self.runs = [
            (fading, sum(1 for _ in run))
            for fading, run in itertools.groupby(users, key=lambda u: u.link.fading)
        ]
        self.means = np.array([db_to_linear(u.link.mean_snr_db) for u in users])[:, None]
        self.num_rbs = grid.num_rbs

    def __call__(self, rng: np.random.Generator) -> np.ndarray:
        """Per-user mean times an i.i.d. fading gain, drawn once per run of
        consecutive users that share their fading."""
        if len(self.runs) == 1:
            fading, n = self.runs[0]
            return self.means * fading_gains(rng, fading, (n, self.num_rbs))
        gains = np.empty((len(self.means), self.num_rbs))
        start = 0
        for fading, n in self.runs:
            gains[start : start + n] = fading_gains(rng, fading, (n, self.num_rbs))
            start += n
        return self.means * gains


def step_channel(
    rng: np.random.Generator, users: Iterable[UserTerminal], grid: ResourceGrid
) -> ChannelState:
    """Draw one slot's SNR matrix; a one-shot ``ChannelDraw``."""
    layout = UserLayout(users)
    return ChannelState(snr=ChannelDraw(layout, grid)(rng), user_ids=layout.ids)


def block_rates(snr: np.ndarray, bw: float, slot_duration: float) -> np.ndarray:
    """The rate kernel: ``bw * log2(1 + snr) * tau`` for every entry, with
    Python's log2, so each float is the one a per-block scalar loop gives."""
    logs = np.fromiter(map(math.log2, (1.0 + snr).ravel().tolist()), float, snr.size)
    return bw * logs.reshape(snr.shape) * slot_duration


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


def rate_matrix(
    ch: ChannelState, grid: ResourceGrid, slot_duration: float
) -> np.ndarray:
    """Shannon bits/slot each user would get from each block alone, read-only,
    computed once per channel state (``memo_rates``)."""
    return memo_rates(ch.rate_memo, ch.snr, grid.rb_bandwidth, slot_duration)


@functools.lru_cache
def _blocks(num_rbs: int) -> np.ndarray:
    blocks = np.arange(num_rbs)
    blocks.setflags(write=False)
    return blocks


def user_rates(
    m: AllocationMatrix, ids: tuple[int, ...], rates: np.ndarray
) -> np.ndarray:
    """Bits/slot of every user (the rows of ``rates``, with ``ids``) under
    ``m``: the user's entries added in block order, as ``bincount`` adds its
    weights in index order."""
    rows = m.rows_in(ids)
    if m.idle:
        blocks = np.flatnonzero(rows >= 0)
        rows = rows[blocks]
    else:
        blocks = _blocks(len(rows))
    return np.bincount(rows, weights=rates[rows, blocks], minlength=len(rates))


def class_sum(values: list[float], rows: Iterable[int]) -> float:
    """Sum of ``values`` over one service class's rows in ascending id order:
    the one grouping behind every realised and predicted class sum."""
    total = 0.0
    for r in rows:
        total += values[r]
    return total


def rate_sums(
    m: AllocationMatrix, ch: ChannelState, grid: ResourceGrid, slot_duration: float
) -> dict[int, float]:
    """Bits/slot delivered capacity of every user of ``ch`` under an allocation,
    by id: ``user_rates`` of its ``rate_matrix``."""
    rates = user_rates(m, ch.user_ids, rate_matrix(ch, grid, slot_duration))
    return dict(zip(ch.user_ids, rates.tolist()))


class StateRing:
    """One run's recent physical states in preallocated arrays, beside the
    run's constants. Slot t lives in entry t % depth until slot t + depth
    overwrites it: its SNR matrix ``snr[i]`` (users x blocks, in ``layout``
    order), its URLLC queues ``queue[i]`` (ascending id), its arrival rate
    ``lam[i]`` and its rate memo ``memo[i]``, where ``block_rates`` is kept
    once computed. The arrays take their shape from the first state put in.
    ``grid`` and ``slot_duration`` are None only in the ring of a hand-built
    snapshot, which is never stepped."""

    def __init__(
        self,
        depth: int,
        qos: QoSRequirement,
        layout: UserLayout,
        grid: Optional[ResourceGrid] = None,
        slot_duration: Optional[float] = None,
    ):
        self.depth, self.qos, self.layout = depth, qos, layout
        self.grid, self.slot_duration = grid, slot_duration
        self.snr = self.queue = None
        self.lam = [0.0] * depth
        self.slot = [-1] * depth
        self.memo: list[dict] = [{} for _ in range(depth)]

    def like(self, depth: int) -> "StateRing":
        """An empty ring of ``depth`` entries with this ring's constants."""
        return StateRing(depth, self.qos, self.layout, self.grid, self.slot_duration)

    def put(self, t: int, snr, queue, lam: float, memo: Optional[dict] = None) -> None:
        """Write slot t's state into its entry. ``memo`` shares the rate
        matrices of the same state held in another ring."""
        if self.snr is None:
            self.snr = np.empty((self.depth, *np.shape(snr)))
            self.queue = np.empty((self.depth, len(queue)))
        i = t % self.depth
        self.snr[i], self.queue[i], self.lam[i], self.slot[i] = snr, queue, lam, t
        self.memo[i] = {} if memo is None else memo


class PhysicalState:
    """Everything the physical network knows at the start of slot ``t``: a
    view of that slot's entry in a ``StateRing``. Every read checks that the
    ring still holds the slot, and raises LookupError once the ring has
    reused the entry; ``channel`` and ``traffic`` copy the slot's values on
    their first read and keep them."""

    __slots__ = ("ring", "t", "index", "_channel", "_traffic")

    def __init__(
        self,
        clock: SlotClock,
        channel: ChannelState,
        traffic: TrafficState,
        qos: QoSRequirement,
        users: tuple[UserTerminal, ...],
        grid: ResourceGrid,
    ):
        """A hand-built state: a one-slot ring holding these values."""
        if channel.snr.shape != (len(users), grid.num_rbs):
            raise ValueError(
                f"channel shape {channel.snr.shape} does not match "
                f"{len(users)} users x {grid.num_rbs} RBs"
            )
        ring = StateRing(1, qos, UserLayout(users), grid, clock.slot_duration)
        self._hold(clock.t, channel, traffic, ring)

    def _hold(
        self, t: int, channel: ChannelState, traffic: TrafficState, ring: StateRing
    ):
        """Make this the view of slot t in ``ring``, put there from hand-built
        states, which are also what ``channel`` and ``traffic`` read. Their
        ids must be the ring's users and URLLC users, in ascending order."""
        layout = ring.layout
        if channel.user_ids != layout.ids or traffic.urllc_user_ids != layout.urllc_ids:
            raise ValueError(
                f"state ids (channel {channel.user_ids}, URLLC "
                f"{traffic.urllc_user_ids}) do not match the users {layout.ids} "
                f"(URLLC {layout.urllc_ids})"
            )
        q, lam = traffic.urllc_queue, traffic.urllc_rate
        ring.put(t, channel.snr, q, lam, channel.rate_memo)
        self.ring, self.t, self.index = ring, t, t % ring.depth
        self._channel, self._traffic = channel, traffic

    @classmethod
    def view(cls, ring: StateRing, t: int) -> "PhysicalState":
        state = cls.__new__(cls)
        state.ring, state.t, state.index = ring, t, t % ring.depth
        state._channel = state._traffic = None
        return state

    def held(self) -> int:
        """The slot's ring entry; LookupError once the ring has reused it."""
        if self.ring.slot[self.index] != self.t:
            raise LookupError(f"slot {self.t} has left the state ring")
        return self.index

    @property
    def snr(self) -> np.ndarray:
        return self.ring.snr[self.held()]

    @property
    def queue(self) -> np.ndarray:
        return self.ring.queue[self.held()]

    @property
    def lam(self) -> float:
        return self.ring.lam[self.held()]

    @property
    def memo(self) -> dict:
        return self.ring.memo[self.held()]

    def rates(self, bw: float, slot_duration: float) -> np.ndarray:
        return memo_rates(self.memo, self.snr, bw, slot_duration)

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
    def clock(self) -> SlotClock:
        return SlotClock(self.t, self.ring.slot_duration)

    @property
    def qos(self) -> QoSRequirement:
        return self.ring.qos


class SlotOutcome(NamedTuple):
    """Realised rates and queue movements for one simulated slot.

    ``rates`` are Shannon capacities of the allocation (bits/slot);
    ``urllc_sum_rate`` is their sum over URLLC users, the quantity the
    outage contract is written against. ``urllc_served_bits`` is what the
    backlog actually allowed to be drained, so it never exceeds the rate.
    """

    t: int
    rates: dict[int, float]
    embb_sum_rate: float
    urllc_sum_rate: float
    urllc_served_bits: dict[int, float]
    urllc_arrival_packets: int
    lambda_t: float

    @property
    def urllc_served_total(self) -> float:
        return float(sum(self.urllc_served_bits.values()))


def _step(
    ring: StateRing,
    t: int,
    decision: AllocationMatrix,
    rng: np.random.Generator,
    draw: ChannelDraw,
    lambda_schedule: Callable[[int], float],
) -> SlotOutcome:
    """The slot kernel: apply an allocation to slot t of ``ring`` and write
    slot t + 1 into it.

    Order of events within the slot: realise rates against the current
    channel, drain URLLC queues by served bits, add the slot's new
    arrivals (packet count times packet size), then tick the clock and
    draw a fresh channel with the next slot's lambda.
    """
    layout, grid = ring.layout, ring.grid
    if len(decision.rows_in(layout.ids)) != grid.num_rbs:
        raise ValueError(
            f"invalid allocation: length {len(decision)} != num_rbs {grid.num_rbs}"
        )
    i = t % ring.depth
    matrix = memo_rates(ring.memo[i], ring.snr[i], grid.rb_bandwidth, ring.slot_duration)
    rates = user_rates(decision, layout.ids, matrix).tolist()
    queue = ring.queue[i].tolist()
    served = [min(q, rates[r]) for q, r in zip(queue, layout.urllc)]

    lam = ring.lam[i]
    n_urllc = len(layout.urllc)
    # Independent per-user Poisson(lam/n) streams in one draw; the aggregate
    # stays Poisson(lam). At lam = 0 nothing is drawn.
    if n_urllc > 0 and lam > 0:
        arrivals = rng.poisson(lam / n_urllc, size=n_urllc).tolist()
    else:
        arrivals = [0] * n_urllc
    outcome = SlotOutcome(
        t, dict(zip(layout.ids, rates)), class_sum(rates, layout.embb),
        class_sum(rates, layout.urllc), dict(zip(layout.urllc_ids, served)),
        sum(arrivals), lam,
    )
    bits = ring.qos.urllc_packet_bits
    queue = [q - s + a * bits for q, s, a in zip(queue, served, arrivals)]
    ring.put(t + 1, draw(rng), queue, float(lambda_schedule(t + 1)))
    return outcome


class Environment:
    """Owns one run's physical trajectory: a ``StateRing`` of its two latest
    states (so that the state a step leaves stays readable), the rng stream
    and the lambda plan."""

    def __init__(
        self,
        users: Iterable[UserTerminal],
        grid: ResourceGrid,
        qos: QoSRequirement,
        slot_duration: float,
        lambda_schedule: Callable[[int], float],
        seed,
    ):
        layout = UserLayout(users)
        self.lambda_schedule = lambda_schedule
        self.rng = np.random.default_rng(seed)  # a Generator is used as it is
        self.draw = ChannelDraw(layout, grid)
        self.ring = StateRing(2, qos, layout, grid, slot_duration)
        self.now = 0
        queue = [0.0] * len(layout.urllc)
        self.ring.put(0, self.draw(self.rng), queue, float(lambda_schedule(0)))

    @property
    def state(self) -> PhysicalState:
        return PhysicalState.view(self.ring, self.now)

    def step(self, decision: AllocationMatrix) -> SlotOutcome:
        """Apply an allocation for the current slot and move to the next one
        (``_step``)."""
        ring, rng, t = self.ring, self.rng, self.now
        outcome = _step(ring, t, decision, rng, self.draw, self.lambda_schedule)
        self.now = t + 1
        return outcome


def advance(
    state: PhysicalState,
    decision: AllocationMatrix,
    rng: np.random.Generator,
    next_lambda: Optional[float] = None,
) -> tuple[PhysicalState, SlotOutcome]:
    """One slot (``_step``) from ``state``, in a ring of its own: the next
    state and the slot's outcome. ``next_lambda`` sets the following slot's
    arrival rate; omitted means unchanged."""
    lam = state.lam if next_lambda is None else float(next_lambda)
    ring = state.ring.like(2)
    ring.put(state.t, state.snr, state.queue, state.lam, state.memo)
    draw = ChannelDraw(ring.layout, ring.grid)
    outcome = _step(ring, state.t, decision, rng, draw, lambda t: lam)
    return PhysicalState.view(ring, state.t + 1), outcome
