"""Allocation strategies.

Four entry points share one contract: take a twin snapshot, return a
``PolicyDecision`` whose allocation always validates. Tie-breaking is
lowest block index then lowest user id everywhere, so decisions are
reproducible bit for bit.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterable, Optional, Union

import numpy as np

from .domain import (
    UNASSIGNED,
    AllocationMatrix,
    ChannelState,
    ConfigError,
    QoSRequirement,
    ResourceGrid,
    ServiceClass,
    UserTerminal,
    canonical_users,
)
from .envsim import class_rate, rate_matrix, rate_sums
from .nn import MLP, FeatureScaling, decode_output, encode_features, forward
from .twin import TwinSnapshot

#: Penalty multiplier applied to the largest per-block rate in the snapshot.
PENALTY_SCALE = 10.0
#: Exhaustive search cap: enumerate only when num_users ** num_rbs fits.
EXHAUSTIVE_CAP = 4 ** 6


@dataclass(frozen=True)
class OrthogonalConfig:
    """Static split: a fixed leading share of blocks is reserved for URLLC."""

    urllc_fraction: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.urllc_fraction <= 1.0:
            raise ValueError("urllc_fraction must be in [0, 1]")

    def split(self, num_rbs: int, n_urllc: int, n_embb: int) -> int:
        """Number of leading blocks reserved for URLLC; a nonempty partition
        without users of its class is a ``ConfigError``."""
        split = int(self.urllc_fraction * num_rbs)
        for name, blocks, n in (
            ("URLLC", split, n_urllc),
            ("eMBB", num_rbs - split, n_embb),
        ):
            if blocks > 0 and n == 0:
                raise ConfigError(
                    f"orthogonal policy: urllc_fraction = {self.urllc_fraction} "
                    f"gives the {name} partition {blocks} of {num_rbs} blocks, "
                    f"but the scenario has {n} {name} users"
                )
        return split


@dataclass(frozen=True)
class PolicyDecision:
    """``objective`` is the decision's objective value, or a zero-argument
    callable that computes it on the first read of ``objective_estimate``."""

    allocation: AllocationMatrix
    objective: Union[float, Callable[[], float]]
    policy_id: str
    constraint_unmet: bool = False

    @cached_property
    def objective_estimate(self) -> float:
        return self.objective() if callable(self.objective) else self.objective


def default_penalty_weight(
    ch: ChannelState, grid: ResourceGrid, slot_duration: float
) -> float:
    """Large enough that QoS violations dominate any rate gain. A scale, not
    a rate: it keeps numpy's log2, not the ``rate_matrix`` kernel."""
    rates = grid.rb_bandwidth * slot_duration * np.log2(1.0 + ch.snr)
    return PENALTY_SCALE * float(rates.max()) if rates.size else PENALTY_SCALE


def allocation_objective(
    m: AllocationMatrix,
    snapshot: TwinSnapshot,
    grid: ResourceGrid,
    users: Iterable[UserTerminal],
    qos: QoSRequirement,
    slot_duration: float,
    penalty_weight: Optional[float] = None,
) -> float:
    """Sum rate minus penalised URLLC and eMBB QoS deficits.

    Each user's rate accumulates in block order (``rate_sums``) and the
    totals in user order, so independent re-derivations agree exactly.
    """
    ordered = canonical_users(users)
    ch = snapshot.channel
    if penalty_weight is None:
        penalty_weight = default_penalty_weight(ch, grid, slot_duration)
    load = qos.urllc_packet_bits * snapshot.traffic.urllc_rate
    min_rate_bits = qos.embb_min_rate * slot_duration

    rates = rate_sums(m, ch, grid, slot_duration)
    total = 0.0
    embb_deficit = 0.0
    for u in ordered:
        r = rates[u.id]
        total += r
        if u.service is ServiceClass.EMBB:
            embb_deficit += max(0.0, min_rate_bits - r)
    urllc_deficit = max(0.0, load - class_rate(rates, ordered, ServiceClass.URLLC))
    return total - penalty_weight * urllc_deficit - penalty_weight * embb_deficit


def orthogonal_allocate(
    snapshot: TwinSnapshot,
    cfg: OrthogonalConfig,
    grid: ResourceGrid,
    users: Iterable[UserTerminal],
    slot_duration: float,
) -> PolicyDecision:
    """Static orthogonal slicing baseline.

    The first floor(urllc_fraction * num_rbs) blocks belong to the URLLC
    partition in every slot; each partition is shared round-robin, feeding
    the next block to whichever least-loaded user has the best SNR on it.
    """
    ordered = canonical_users(users)
    by_class = {
        ServiceClass.URLLC: [u for u in ordered if u.service is ServiceClass.URLLC],
        ServiceClass.EMBB: [u for u in ordered if u.service is ServiceClass.EMBB],
    }
    split = cfg.split(
        grid.num_rbs, len(by_class[ServiceClass.URLLC]), len(by_class[ServiceClass.EMBB])
    )

    ch = snapshot.channel
    row = dict(zip(ch.user_ids, range(len(ch.user_ids))))
    assignment = [UNASSIGNED] * grid.num_rbs
    for service, blocks in (
        (ServiceClass.URLLC, range(split)),
        (ServiceClass.EMBB, range(split, grid.num_rbs)),
    ):
        ids = [u.id for u in by_class[service]]
        # columns[b][i]: SNR of the i-th member (ascending id) on block b.
        columns = ch.snr[[row[uid] for uid in ids]].T.tolist()
        waiting: list[int] = []
        for b in blocks:
            # Every member gets one block per round, so the least-loaded
            # members are exactly those still waiting in this round.
            if not waiting:
                waiting = list(range(len(ids)))
            # max keeps the first of equal SNRs: the lowest id wins ties.
            best = max(waiting, key=columns[b].__getitem__)
            waiting.remove(best)
            assignment[b] = ids[best]

    m = AllocationMatrix(assignment=tuple(assignment))
    objective = partial(
        allocation_objective, m, snapshot, grid, ordered, snapshot.qos, slot_duration
    )
    return PolicyDecision(m, objective, "orthogonal")


def _exhaustive_oracle(
    rates: np.ndarray,
    snapshot: TwinSnapshot,
    ordered: tuple[UserTerminal, ...],
    qos: QoSRequirement,
    slot_duration: float,
    penalty_weight: float,
) -> tuple[AllocationMatrix, float]:
    n_users, n_rbs = rates.shape
    # holders[b][n]: user index holding block b in the n-th assignment. C
    # order is itertools.product's order: the last block varies fastest.
    # Each user's sum adds its entries in block order, as rate_sums does.
    every = np.arange(n_users**n_rbs)
    holders = np.unravel_index(every, (n_users,) * n_rbs)
    sums = np.zeros((every.size, n_users))
    for b, holder in enumerate(holders):
        sums[every, holder] += rates[holder, b]

    # allocation_objective's terms, accumulated in user order.
    load = qos.urllc_packet_bits * snapshot.traffic.urllc_rate
    min_rate_bits = qos.embb_min_rate * slot_duration
    total = urllc_rate = embb_deficit = 0.0
    for i, u in enumerate(ordered):
        r = sums[:, i]
        total = total + r
        if u.service is ServiceClass.URLLC:
            urllc_rate = urllc_rate + r
        else:
            embb_deficit = embb_deficit + np.maximum(0.0, min_rate_bits - r)
    urllc_deficit = np.maximum(0.0, load - urllc_rate)
    obj = total - penalty_weight * urllc_deficit - penalty_weight * embb_deficit
    # The first maximum is the lexicographically first optimal assignment:
    # lowest block index, then lowest user id.
    best = int(np.argmax(obj))
    assignment = tuple(ordered[h[best]].id for h in holders)
    return AllocationMatrix(assignment=assignment), float(obj[best])


def _greedy_oracle(
    rates: np.ndarray,
    snapshot: TwinSnapshot,
    ordered: tuple[UserTerminal, ...],
    qos: QoSRequirement,
    slot_duration: float,
    penalty_weight: float,
) -> AllocationMatrix:
    n_users, n_rbs = rates.shape
    is_urllc = np.array([u.service is ServiceClass.URLLC for u in ordered])
    urllc_rows = np.flatnonzero(is_urllc)
    load = qos.urllc_packet_bits * snapshot.traffic.urllc_rate
    min_rate_bits = qos.embb_min_rate * slot_duration
    peak = rates.max(axis=1)
    urllc_peak = peak[urllc_rows].max() if urllc_rows.size else 0.0

    # Each row's deficit: the URLLC rows share the class deficit, each eMBB
    # row has its own. Deficits never grow.
    user_rates = np.zeros(n_users)
    deficit = np.where(is_urllc, load, min_rate_bits)
    # gain[b, u]: the rate of block b for user u plus the penalty relief it
    # buys on u's deficit, -inf once b is taken. Block-major, so the first
    # flat argmax is the lowest block, then the lowest user id.
    rates_t = np.ascontiguousarray(rates.T)
    gain = rates_t + penalty_weight * np.minimum(rates_t, deficit)
    assignment = [UNASSIGNED] * n_rbs
    for _ in range(n_rbs if deficit.any() else 0):
        b, u = divmod(int(gain.argmax()), n_users)
        assignment[b] = ordered[u].id
        gain[b] = -np.inf
        user_rates[u] += rates[u, b]
        if is_urllc[u]:
            d = max(0.0, load - user_rates[is_urllc].sum())
            rows, top = urllc_rows, urllc_peak
        else:
            d = max(0.0, min_rate_bits - user_rates[u])
            rows, top = [u], peak[u]
        if d != deficit[u]:
            deficit[rows] = d
            # While d is still >= every rate in the rows, minimum(rates, d)
            # is the rates themselves, as for the earlier, larger deficit,
            # so the rows stand.
            if d < top:
                cols = rates_t[:, rows]
                fresh = cols + penalty_weight * np.minimum(cols, d)
                fresh[np.not_equal(assignment, UNASSIGNED)] = -np.inf
                gain[:, rows] = fresh
            if d == 0 and not deficit.any():
                break

    # Every deficit is 0, so the gains no longer change: each open block
    # goes to its column's first maximum, as the one-by-one picks would.
    open_blocks = [b for b, uid in enumerate(assignment) if uid == UNASSIGNED]
    for b, u in zip(open_blocks, gain[open_blocks].argmax(axis=1).tolist()):
        assignment[b] = ordered[u].id
    return AllocationMatrix(assignment=tuple(assignment))


def oracle_allocate(
    snapshot: TwinSnapshot,
    grid: ResourceGrid,
    users: Iterable[UserTerminal],
    qos: QoSRequirement,
    slot_duration: float,
    mode: str = "auto",
    cap: int = EXHAUSTIVE_CAP,
    penalty_weight: Optional[float] = None,
) -> PolicyDecision:
    """QoS-penalised sum-rate optimiser; training target and test oracle.

    Exhaustive mode (only when num_users ** num_rbs <= cap) scores every
    assignment at once, in ``itertools.product`` order, with the floats of
    ``allocation_objective``, and keeps the first best one.

    Greedy mode, which exhaustive search dominates, assigns blocks one at a
    time to the best (block, user) marginal gain: the rate plus the penalty
    relief it buys on that user's deficit (the URLLC class deficit or the
    user's eMBB one). The gain matrix is built once; after each pick only
    the picked block and the rows whose deficit changed are updated. Once
    every deficit is 0 the gains stop changing, and each open block goes
    to its best user in one step. The result is the same as rebuilding the
    matrix for every block.
    """
    ordered = canonical_users(users)
    if not ordered:
        raise ValueError("need at least one user")
    size = len(ordered) ** grid.num_rbs
    if mode == "auto":
        mode = "exhaustive" if size <= cap else "greedy"
    if mode not in ("exhaustive", "greedy"):
        raise ValueError(f"unknown oracle mode {mode!r}")
    if mode == "exhaustive" and size > cap:
        raise ValueError(f"exhaustive search of {size} assignments exceeds cap {cap}")
    rates = rate_matrix(snapshot.channel, grid, slot_duration)
    if penalty_weight is None:
        penalty_weight = default_penalty_weight(snapshot.channel, grid, slot_duration)
    if mode == "exhaustive":
        m, obj = _exhaustive_oracle(
            rates, snapshot, ordered, qos, slot_duration, penalty_weight
        )
    else:
        m = _greedy_oracle(rates, snapshot, ordered, qos, slot_duration, penalty_weight)
        obj = partial(
            allocation_objective, m, snapshot, grid, ordered, qos, slot_duration,
            penalty_weight,
        )
    return PolicyDecision(m, obj, "oracle")


def dynamic_allocate(
    snapshot: TwinSnapshot,
    net: MLP,
    grid: ResourceGrid,
    users: Iterable[UserTerminal],
    qos: QoSRequirement,
    scaling: FeatureScaling,
    slot_duration: float,
) -> PolicyDecision:
    """Neural allocator: encode the snapshot, run the net, decode per-block
    argmax. The decode step guarantees a valid matrix for any finite net."""
    ordered = canonical_users(users)
    x = encode_features(snapshot, grid, ordered, qos, scaling)
    y = forward(net, x)
    if y.probs.shape != (grid.num_rbs, len(ordered)):
        raise ValueError(
            f"net output shape {y.probs.shape} does not match "
            f"({grid.num_rbs}, {len(ordered)})"
        )
    m = decode_output(y, ordered)
    objective = partial(
        allocation_objective, m, snapshot, grid, ordered, qos, slot_duration
    )
    return PolicyDecision(m, objective, "dnn")


def predicted_urllc_rate(
    m: AllocationMatrix,
    snapshot: TwinSnapshot,
    grid: ResourceGrid,
    users: Iterable[UserTerminal],
    slot_duration: float,
) -> float:
    """Sum URLLC capacity that a (possibly stale) snapshot predicts for ``m``.
    It is summed as ``advance`` sums the realised rate, so at zero twin delay
    the two are equal bit for bit."""
    rates = rate_sums(m, snapshot.channel, grid, slot_duration)
    return class_rate(rates, canonical_users(users), ServiceClass.URLLC)


def priority_repair(
    decision: PolicyDecision,
    snapshot: TwinSnapshot,
    qos: QoSRequirement,
    grid: ResourceGrid,
    users: Iterable[UserTerminal],
    slot_duration: float,
) -> PolicyDecision:
    """Reassign eMBB blocks to URLLC until the predicted load constraint holds.

    Each move takes the eMBB-held block with the highest URLLC marginal rate
    to the URLLC user gaining most from it, and the repair stops at the
    first move after which ``predicted_urllc_rate`` exceeds the load.
    URLLC-held blocks are never touched. Runs on the snapshot's channel
    deliberately, so twin staleness degrades the repair exactly as it would
    in operation.
    """
    ordered = canonical_users(users)
    target = qos.urllc_packet_bits * snapshot.traffic.urllc_rate
    urllc = [i for i, u in enumerate(ordered) if u.service is ServiceClass.URLLC]
    moves: list[tuple[int, int]] = []  # (block, new holder) in the order made
    if urllc:
        gain = rate_matrix(snapshot.channel, grid, slot_duration)[urllc]
        top, best = gain.max(axis=0).tolist(), gain.argmax(axis=0).tolist()
        service = {u.id: u.service for u in ordered}
        embb_blocks = [
            b
            for b, uid in enumerate(decision.allocation.assignment)
            if uid != UNASSIGNED and service[uid] is ServiceClass.EMBB
        ]
        # A move leaves the other blocks' rates as they are, so the order is
        # fixed: highest rate first, then the lowest block, then the lowest id.
        order = sorted(embb_blocks, key=lambda b: -top[b])
        moves = [(b, ordered[urllc[best[b]]].id) for b in order]

    def after(k: int) -> AllocationMatrix:
        assignment = list(decision.allocation.assignment)
        for b, uid in moves[:k]:
            assignment[b] = uid
        return AllocationMatrix(assignment=tuple(assignment))

    def covered(k: int) -> bool:
        m = after(k)
        return predicted_urllc_rate(m, snapshot, grid, ordered, slot_duration) > target

    # R <= load is an outage (metrics.outage_event), so an exact hit is
    # repaired too: at zero load, URLLC still gets a block. A move adds a
    # rate >= 0 to one user's sum, which never lowers the prediction, so
    # bisection finds the first move count that clears the load.
    k = bisect_left(range(len(moves) + 1), True, key=covered)
    m = after(k)
    objective = partial(
        allocation_objective, m, snapshot, grid, ordered, qos, slot_duration
    )
    return PolicyDecision(
        m, objective, decision.policy_id + "+repair", constraint_unmet=k > len(moves)
    )
