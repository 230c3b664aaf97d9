"""Physical layer of the simulated network.

Generates per-slot channel realisations and URLLC packet arrivals, and
realises data rates for a chosen allocation. Everything is driven by a
single seedable numpy Generator per run, so (seed, scenario) fully
determines the trajectory.
"""
from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

import numpy as np

from .domain import (
    UNASSIGNED,
    AllocationMatrix,
    ChannelState,
    QoSRequirement,
    ResourceGrid,
    ServiceClass,
    SlotClock,
    TrafficState,
    UserTerminal,
    canonical_users,
    validate_allocation,
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


@dataclass(frozen=True)
class PhysicalState:
    """Everything the physical network knows at the start of one slot."""

    clock: SlotClock
    channel: ChannelState
    traffic: TrafficState
    qos: QoSRequirement
    users: tuple[UserTerminal, ...]
    grid: ResourceGrid

    def __post_init__(self):
        if self.channel.snr.shape != (len(self.users), self.grid.num_rbs):
            raise ValueError(
                f"channel shape {self.channel.snr.shape} does not match "
                f"{len(self.users)} users x {self.grid.num_rbs} RBs"
            )


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
    order, their runs of equal fading, the linear-mean column and the ids are
    derived once here; each call draws one slot."""

    def __init__(self, users: Iterable[UserTerminal], grid: ResourceGrid):
        ordered = canonical_users(users)
        self.ids = tuple(u.id for u in ordered)
        self.runs = [
            (fading, sum(1 for _ in run))
            for fading, run in itertools.groupby(ordered, key=lambda u: u.link.fading)
        ]
        self.means = np.array([db_to_linear(u.link.mean_snr_db) for u in ordered])[:, None]
        self.num_rbs = grid.num_rbs

    def __call__(self, rng: np.random.Generator) -> ChannelState:
        """Per-user mean times an i.i.d. fading gain, drawn once per run of
        consecutive users that share their fading."""
        gains = np.empty((len(self.ids), self.num_rbs))
        start = 0
        for fading, n in self.runs:
            gains[start : start + n] = fading_gains(rng, fading, (n, self.num_rbs))
            start += n
        return ChannelState(snr=self.means * gains, user_ids=self.ids)


def step_channel(
    rng: np.random.Generator, users: Iterable[UserTerminal], grid: ResourceGrid
) -> ChannelState:
    """Draw one slot's SNR matrix; a one-shot ``ChannelDraw``."""
    return ChannelDraw(users, grid)(rng)


def urllc_arrivals(rng: np.random.Generator, lam: float) -> int:
    """Packet count for one slot, Poisson with mean ``lam``."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if lam == 0:
        return 0
    return int(rng.poisson(lam))


def block_rates(snr: np.ndarray, bw: float, slot_duration: float) -> np.ndarray:
    """The rate kernel: ``bw * log2(1 + snr) * tau`` for every entry, with
    Python's log2, so each float is the one a per-block scalar loop gives."""
    logs = np.fromiter(map(math.log2, (1.0 + snr).ravel().tolist()), float, snr.size)
    return bw * logs.reshape(snr.shape) * slot_duration


def rate_matrix(
    ch: ChannelState, grid: ResourceGrid, slot_duration: float
) -> np.ndarray:
    """Shannon bits/slot each user would get from each block alone, read-only.
    ``block_rates`` runs once per state and the result is kept on ``ch``: the
    environment, the twin's snapshots and every policy share it."""
    key = (grid.rb_bandwidth, slot_duration)
    rates = ch.rate_memo.get(key)
    if rates is None:
        rates = block_rates(ch.snr, *key)
        rates.setflags(write=False)
        ch.rate_memo[key] = rates
    return rates


def rate_sums(
    m: AllocationMatrix, ch: ChannelState, grid: ResourceGrid, slot_duration: float
) -> dict[int, float]:
    """Bits/slot delivered capacity of every user of ``ch`` under an allocation:
    the user's ``rate_matrix`` entries added in block order."""
    rates = dict.fromkeys(ch.user_ids, 0.0)
    row = dict(zip(ch.user_ids, range(len(ch.user_ids))))
    a = m.assignment
    held = [b for b, uid in enumerate(a) if uid != UNASSIGNED]
    entries = rate_matrix(ch, grid, slot_duration)[[row[a[b]] for b in held], held]
    for b, r in zip(held, entries.tolist()):
        rates[a[b]] += r
    return rates


def class_rate(
    rates: Mapping[int, float], users: Iterable[UserTerminal], service: ServiceClass
) -> float:
    """Sum of ``rates`` over one service class's users, in ascending id order:
    the one grouping behind every realised and predicted class sum."""
    total = 0.0
    for u in users:
        if u.service is service:
            total += rates[u.id]
    return total


@dataclass(frozen=True)
class SlotOutcome:
    """Realised rates and queue movements for one simulated slot.

    ``rates`` are Shannon capacities of the allocation (bits/slot);
    ``urllc_sum_rate`` is their sum over URLLC users, the quantity the
    outage contract is written against. ``urllc_served_bits`` is what the
    backlog actually allowed to be drained, so it never exceeds the rate.
    """

    t: int
    rates: Mapping[int, float]
    embb_sum_rate: float
    urllc_sum_rate: float
    urllc_served_bits: Mapping[int, float]
    urllc_arrival_packets: int
    lambda_t: float

    @property
    def urllc_served_total(self) -> float:
        return float(sum(self.urllc_served_bits.values()))


def advance(
    state: PhysicalState,
    decision: AllocationMatrix,
    rng: np.random.Generator,
    next_lambda: Optional[float] = None,
    draw: Optional[ChannelDraw] = None,
) -> tuple[PhysicalState, SlotOutcome]:
    """Apply an allocation for the current slot and move to the next one.

    Order of events within the slot: realise rates against the current
    channel, drain URLLC queues by served bits, add the slot's new arrivals
    (packet count times packet size), then tick the clock and draw a fresh
    channel. ``next_lambda`` sets the following slot's arrival rate; omitted
    means unchanged. ``draw`` is the run's channel draw; omitted, one is
    derived from the state's users.
    """
    check = validate_allocation(decision, state.grid, state.users)
    if not check:
        raise ValueError(f"invalid allocation: {check.reason}")

    rates = rate_sums(decision, state.channel, state.grid, state.clock.slot_duration)

    traffic = state.traffic
    urllc_ids = traffic.urllc_user_ids
    n_urllc = len(urllc_ids)
    drained = np.minimum(traffic.urllc_queue, [rates[uid] for uid in urllc_ids])
    served = dict(zip(urllc_ids, drained.tolist()))

    lam_t = traffic.urllc_rate
    # Independent per-user Poisson(lam/n) streams in one draw; the aggregate
    # stays Poisson(lam). At lam = 0 nothing is drawn.
    if n_urllc > 0 and lam_t > 0:
        arrivals = rng.poisson(lam_t / n_urllc, size=n_urllc)
    else:
        arrivals = np.zeros(n_urllc, dtype=int)
    queue = traffic.urllc_queue - drained + arrivals * state.qos.urllc_packet_bits

    outcome = SlotOutcome(
        t=state.clock.t,
        rates=rates,
        embb_sum_rate=class_rate(rates, state.users, ServiceClass.EMBB),
        urllc_sum_rate=class_rate(rates, state.users, ServiceClass.URLLC),
        urllc_served_bits=served,
        urllc_arrival_packets=int(arrivals.sum()),
        lambda_t=lam_t,
    )

    next_state = PhysicalState(
        clock=state.clock.tick(),
        channel=(draw or ChannelDraw(state.users, state.grid))(rng),
        traffic=TrafficState(
            urllc_rate=lam_t if next_lambda is None else float(next_lambda),
            urllc_queue=queue,
            urllc_user_ids=urllc_ids,
        ),
        qos=state.qos,
        users=state.users,
        grid=state.grid,
    )
    return next_state, outcome


class Environment:
    """Owns one run's physical trajectory: state, rng stream and lambda plan."""

    def __init__(
        self,
        users: Iterable[UserTerminal],
        grid: ResourceGrid,
        qos: QoSRequirement,
        slot_duration: float,
        lambda_schedule: Callable[[int], float],
        seed: int,
    ):
        self.users = canonical_users(users)
        self.grid = grid
        self.qos = qos
        self.lambda_schedule = lambda_schedule
        self.rng = np.random.default_rng(seed)
        self.draw = ChannelDraw(self.users, grid)
        urllc_ids = tuple(
            u.id for u in self.users if u.service is ServiceClass.URLLC
        )
        self.state = PhysicalState(
            clock=SlotClock(0, slot_duration),
            channel=self.draw(self.rng),
            traffic=TrafficState(
                urllc_rate=float(lambda_schedule(0)),
                urllc_queue=np.zeros(len(urllc_ids)),
                urllc_user_ids=urllc_ids,
            ),
            qos=qos,
            users=self.users,
            grid=grid,
        )

    @property
    def now(self) -> int:
        return self.state.clock.t

    def step(self, decision: AllocationMatrix) -> SlotOutcome:
        self.state, outcome = advance(
            self.state,
            decision,
            self.rng,
            next_lambda=self.lambda_schedule(self.now + 1),
            draw=self.draw,
        )
        return outcome
