"""Allocation strategies.

Four entry points share one contract: take a twin snapshot, return a
``PolicyDecision`` whose allocation always validates. Each is one call of a
per-run policy (``orthogonal_policy``, ``oracle_policy``, ``dynamic_policy``,
``repair_policy``), which derives a run's constants once (the user layout,
the orthogonal split, the oracle's search space, the encoder's positions)
and then decides slot after slot; ``users`` may be a ``UserLayout``.
Tie-breaking is lowest block index then lowest user id everywhere, so
decisions are reproducible bit for bit.
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
    UserLayout,
    UserTerminal,
)
from .envsim import _user_rates, class_sum, user_rates
from .nn import MLP, FeatureScaling, decode_output, feature_encoder, forward
from .twin import TwinSnapshot

#: Penalty multiplier applied to the largest per-block rate in the snapshot.
PENALTY_SCALE = 10.0
#: Exhaustive search cap: enumerate only when num_users ** num_rbs fits.
EXHAUSTIVE_CAP = 4 ** 6

Policy = Callable[[TwinSnapshot], "PolicyDecision"]


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
    callable that computes it from the snapshot on the first read of
    ``objective_estimate``, which raises LookupError once that slot is reused."""

    allocation: AllocationMatrix
    objective: Union[float, Callable[[], float]]
    policy_id: str
    constraint_unmet: bool = False

    @cached_property
    def objective_estimate(self) -> float:
        return self.objective() if callable(self.objective) else self.objective


def default_penalty_weight(
    ch: Union[ChannelState, TwinSnapshot], grid: ResourceGrid, slot_duration: float
) -> float:
    """Large enough that QoS violations dominate any rate gain, from the SNRs
    of a channel state or a snapshot. A scale, not a rate: it keeps numpy's
    log2, not the ``block_rates`` kernel."""
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

    Each user's rate accumulates in block order (``user_rates``) and the
    totals in user order, so independent re-derivations agree exactly.
    """
    layout = UserLayout.of(users)
    if penalty_weight is None:
        penalty_weight = default_penalty_weight(snapshot, grid, slot_duration)
    load = qos.urllc_packet_bits * snapshot.lam
    min_rate_bits = qos.embb_min_rate * slot_duration

    rates = snapshot.rates(grid.rb_bandwidth, slot_duration)
    rates = user_rates(m, layout.ids, rates).tolist()
    total, embb_deficit = class_sum(rates, range(len(rates))), 0.0
    for i in layout.embb:
        embb_deficit += max(0.0, min_rate_bits - rates[i])
    urllc_deficit = max(0.0, load - class_sum(rates, layout.urllc))
    return total - penalty_weight * urllc_deficit - penalty_weight * embb_deficit


def orthogonal_policy(
    cfg: OrthogonalConfig,
    grid: ResourceGrid,
    users: Iterable[UserTerminal],
    slot_duration: float,
) -> Policy:
    """Static orthogonal slicing baseline.

    The first floor(urllc_fraction * num_rbs) blocks belong to the URLLC
    partition in every slot; each partition is shared round-robin, feeding
    the next block to whichever least-loaded user has the best SNR on it.
    """
    layout = UserLayout.of(users)
    split = cfg.split(grid.num_rbs, len(layout.urllc), len(layout.embb))
    partitions = ((layout.urllc, range(split)), (layout.embb, range(split, grid.num_rbs)))

    def decide(snapshot: TwinSnapshot) -> PolicyDecision:
        # columns[b][r]: SNR of the user in row r on block b.
        columns = snapshot.snr.T.tolist()
        rows = [UNASSIGNED] * grid.num_rbs
        for members, blocks in partitions:
            waiting: list[int] = []
            for b in blocks:
                # Every member gets one block per round, so the least-loaded
                # members are exactly those still waiting in this round.
                if not waiting:
                    waiting = list(members)
                # max keeps the first of equal SNRs: the lowest id wins ties.
                best = max(waiting, key=columns[b].__getitem__)
                waiting.remove(best)
                rows[b] = best
        m = AllocationMatrix.of_rows(rows, layout)
        objective = partial(
            allocation_objective, m, snapshot, grid, layout, snapshot.qos, slot_duration
        )
        return PolicyDecision(m, objective, "orthogonal")

    return decide


def orthogonal_allocate(
    snapshot: TwinSnapshot,
    cfg: OrthogonalConfig,
    grid: ResourceGrid,
    users: Iterable[UserTerminal],
    slot_duration: float,
) -> PolicyDecision:
    return orthogonal_policy(cfg, grid, users, slot_duration)(snapshot)


def _exhaustive_oracle(
    rates: np.ndarray,
    load: float,
    min_rate_bits: float,
    is_urllc: np.ndarray,
    every: np.ndarray,
    holders: tuple[np.ndarray, ...],
    penalty_weight: float,
) -> tuple[list[int], float]:
    n_users = rates.shape[0]
    # holders[b][n]: user row holding block b in the n-th assignment. C order
    # is itertools.product's order: the last block varies fastest. Each
    # user's sum adds its entries in block order, as user_rates does.
    sums = np.zeros((every.size, n_users))
    for b, holder in enumerate(holders):
        sums[every, holder] += rates[holder, b]

    # allocation_objective's terms, accumulated in user order.
    total = urllc_rate = embb_deficit = 0.0
    for i in range(n_users):
        r = sums[:, i]
        total = total + r
        if is_urllc[i]:
            urllc_rate = urllc_rate + r
        else:
            embb_deficit = embb_deficit + np.maximum(0.0, min_rate_bits - r)
    urllc_deficit = np.maximum(0.0, load - urllc_rate)
    obj = total - penalty_weight * urllc_deficit - penalty_weight * embb_deficit
    # The first maximum is the lexicographically first optimal assignment:
    # lowest block index, then lowest user id.
    best = int(np.argmax(obj))
    return [h[best] for h in holders], float(obj[best])


def _greedy_oracle(
    rates: np.ndarray,
    load: float,
    min_rate_bits: float,
    is_urllc: np.ndarray,
    urllc_rows: np.ndarray,
    penalty_weight: float,
) -> list[int]:
    n_users, n_rbs = rates.shape
    peak = rates.max(axis=1)
    urllc_peak = peak[urllc_rows].max() if urllc_rows.size else 0.0

    # Each row's deficit: the URLLC rows share the class deficit, each eMBB
    # row has its own. Deficits never grow.
    got = np.zeros(n_users)
    deficit = np.where(is_urllc, load, min_rate_bits)
    # gain[b, u]: the rate of block b for user u plus the penalty relief it
    # buys on u's deficit, -inf once b is taken. Block-major, so the first
    # flat argmax is the lowest block, then the lowest user id.
    rates_t = np.ascontiguousarray(rates.T)
    gain = rates_t + penalty_weight * np.minimum(rates_t, deficit)
    rows = [UNASSIGNED] * n_rbs
    for _ in range(n_rbs if deficit.any() else 0):
        b, u = divmod(int(gain.argmax()), n_users)
        rows[b] = u
        gain[b] = -np.inf
        got[u] += rates[u, b]
        if is_urllc[u]:
            d = max(0.0, load - got[is_urllc].sum())
            held, top = urllc_rows, urllc_peak
        else:
            d = max(0.0, min_rate_bits - got[u])
            held, top = [u], peak[u]
        if d != deficit[u]:
            deficit[held] = d
            # While d is still >= every rate in the rows, minimum(rates, d)
            # is the rates themselves, as for the earlier, larger deficit,
            # so the rows stand.
            if d < top:
                cols = rates_t[:, held]
                fresh = cols + penalty_weight * np.minimum(cols, d)
                fresh[np.not_equal(rows, UNASSIGNED)] = -np.inf
                gain[:, held] = fresh
            if d == 0 and not deficit.any():
                break

    # Every deficit is 0, so the gains no longer change: each open block
    # goes to its column's first maximum, as the one-by-one picks would.
    open_blocks = [b for b, r in enumerate(rows) if r == UNASSIGNED]
    for b, u in zip(open_blocks, gain[open_blocks].argmax(axis=1).tolist()):
        rows[b] = u
    return rows


def oracle_policy(
    grid: ResourceGrid,
    users: Iterable[UserTerminal],
    qos: QoSRequirement,
    slot_duration: float,
    mode: str = "auto",
    penalty_weight: Optional[float] = None,
) -> Policy:
    """QoS-penalised sum-rate optimiser; training target and test oracle.

    Exhaustive mode (only when num_users ** num_rbs <= EXHAUSTIVE_CAP)
    scores every assignment at once, in ``itertools.product`` order, with
    the floats of ``allocation_objective``, and keeps the first best one.

    Greedy mode, which exhaustive search dominates, assigns blocks one at a
    time to the best (block, user) marginal gain: the rate plus the penalty
    relief it buys on that user's deficit (the URLLC class deficit or the
    user's eMBB one). The gain matrix is built once; after each pick only
    the picked block and the rows whose deficit changed are updated. Once
    every deficit is 0 the gains stop changing, and each open block goes
    to its best user in one step. The result is the same as rebuilding the
    matrix for every block.
    """
    layout = UserLayout.of(users)
    n_users = len(layout.ids)
    if not n_users:
        raise ValueError("need at least one user")
    size = n_users**grid.num_rbs
    if mode == "auto":
        mode = "exhaustive" if size <= EXHAUSTIVE_CAP else "greedy"
    if mode not in ("exhaustive", "greedy"):
        raise ValueError(f"unknown oracle mode {mode!r}")
    if mode == "exhaustive" and size > EXHAUSTIVE_CAP:
        raise ValueError(
            f"exhaustive search of {size} assignments exceeds cap {EXHAUSTIVE_CAP}"
        )
    if mode == "exhaustive":
        every = np.arange(size)
        holders = np.unravel_index(every, (n_users,) * grid.num_rbs)
    bw = grid.rb_bandwidth
    min_rate_bits = qos.embb_min_rate * slot_duration

    def decide(snapshot: TwinSnapshot) -> PolicyDecision:
        rates = snapshot.rates(bw, slot_duration)
        pw = penalty_weight
        if pw is None:
            pw = default_penalty_weight(snapshot, grid, slot_duration)
        load = qos.urllc_packet_bits * snapshot.lam
        if mode == "exhaustive":
            rows, obj = _exhaustive_oracle(
                rates, load, min_rate_bits, layout.is_urllc, every, holders, pw
            )
            return PolicyDecision(AllocationMatrix.of_rows(rows, layout), obj, "oracle")
        rows = _greedy_oracle(
            rates, load, min_rate_bits, layout.is_urllc, layout.urllc_rows, pw
        )
        m = AllocationMatrix.of_rows(rows, layout)
        objective = partial(
            allocation_objective, m, snapshot, grid, layout, qos, slot_duration, pw
        )
        return PolicyDecision(m, objective, "oracle")

    return decide


def oracle_allocate(
    snapshot: TwinSnapshot,
    grid: ResourceGrid,
    users: Iterable[UserTerminal],
    qos: QoSRequirement,
    slot_duration: float,
    mode: str = "auto",
    penalty_weight: Optional[float] = None,
) -> PolicyDecision:
    return oracle_policy(grid, users, qos, slot_duration, mode, penalty_weight)(snapshot)


def dynamic_policy(
    net: MLP,
    grid: ResourceGrid,
    users: Iterable[UserTerminal],
    qos: QoSRequirement,
    scaling: FeatureScaling,
    slot_duration: float,
) -> Policy:
    """Neural allocator: encode the snapshot, run the net, decode per-block
    argmax. The decode step guarantees a valid matrix for any finite net."""
    layout = UserLayout.of(users)
    if net.output_shape != (grid.num_rbs, len(layout.ids)):
        raise ValueError(
            f"net output shape {net.output_shape} does not match "
            f"({grid.num_rbs}, {len(layout.ids)})"
        )
    encode = feature_encoder(grid, layout, qos, scaling)

    def decide(snapshot: TwinSnapshot) -> PolicyDecision:
        m = decode_output(forward(net, encode(snapshot)), layout)
        objective = partial(
            allocation_objective, m, snapshot, grid, layout, qos, slot_duration
        )
        return PolicyDecision(m, objective, "dnn")

    return decide


def dynamic_allocate(
    snapshot: TwinSnapshot,
    net: MLP,
    grid: ResourceGrid,
    users: Iterable[UserTerminal],
    qos: QoSRequirement,
    scaling: FeatureScaling,
    slot_duration: float,
) -> PolicyDecision:
    return dynamic_policy(net, grid, users, qos, scaling, slot_duration)(snapshot)


def _urllc_sum(rows: np.ndarray, idle: bool, rates: np.ndarray, urllc: list) -> float:
    """Sum URLLC rate of user rows ``rows``, added as the slot kernel adds it."""
    return class_sum(_user_rates([rows], rates[None], idle)[0].tolist(), urllc)


def predicted_urllc_rate(
    m: AllocationMatrix,
    snapshot: TwinSnapshot,
    grid: ResourceGrid,
    users: Iterable[UserTerminal],
    slot_duration: float,
) -> float:
    """Sum URLLC capacity that a (possibly stale) snapshot predicts for ``m``;
    at zero twin delay it equals the realised rate bit for bit."""
    layout = UserLayout.of(users)
    rates = snapshot.rates(grid.rb_bandwidth, slot_duration)
    return _urllc_sum(m.rows_in(layout.ids), m.idle, rates, layout.urllc)


def repair_policy(
    qos: QoSRequirement,
    grid: ResourceGrid,
    users: Iterable[UserTerminal],
    slot_duration: float,
) -> Callable[[PolicyDecision, TwinSnapshot], PolicyDecision]:
    """Reassign eMBB blocks to URLLC until the predicted load constraint holds.

    Each move takes the eMBB-held block with the highest URLLC marginal rate
    to the URLLC user gaining most from it, and the repair stops at the
    first move after which ``predicted_urllc_rate`` exceeds the load.
    URLLC-held blocks are never touched. Runs on the snapshot's channel
    deliberately, so twin staleness degrades the repair exactly as it would
    in operation.
    """
    layout = UserLayout.of(users)
    urllc, is_urllc = layout.urllc, layout.is_urllc.tolist()

    def repair(decision: PolicyDecision, snapshot: TwinSnapshot) -> PolicyDecision:
        rows = decision.allocation.rows_in(layout.ids).tolist()
        idle = decision.allocation.idle  # a move never frees or fills a block
        rates = snapshot.rates(grid.rb_bandwidth, slot_duration)
        target = qos.urllc_packet_bits * snapshot.lam
        moves: list[tuple[int, int]] = []  # (block, new holder) in the order made
        if urllc:
            gain = rates[urllc]
            top, best = gain.max(axis=0).tolist(), gain.argmax(axis=0).tolist()
            embb = [b for b, r in enumerate(rows) if r != UNASSIGNED and not is_urllc[r]]
            # A move leaves the other blocks' rates as they are, so the order is
            # fixed: highest rate first, then the lowest block, then the lowest id.
            moves = [(b, urllc[best[b]]) for b in sorted(embb, key=lambda b: -top[b])]

        def after(k: int) -> list[int]:
            moved = rows.copy()
            for b, r in moves[:k]:
                moved[b] = r
            return moved

        # R <= load is an outage (metrics.outage_event), so an exact hit is
        # repaired too: at zero load, URLLC still gets a block. A move adds a
        # rate >= 0 to one user's sum, which never lowers the prediction, so
        # bisection finds the first move count that clears the load.
        k = bisect_left(
            range(len(moves) + 1), True,
            key=lambda k: _urllc_sum(np.array(after(k)), idle, rates, urllc) > target,
        )
        m = AllocationMatrix.of_rows(after(k), layout)
        objective = partial(
            allocation_objective, m, snapshot, grid, layout, qos, slot_duration
        )
        policy_id = decision.policy_id + "+repair"
        return PolicyDecision(m, objective, policy_id, constraint_unmet=k > len(moves))

    return repair


def priority_repair(
    decision: PolicyDecision,
    snapshot: TwinSnapshot,
    qos: QoSRequirement,
    grid: ResourceGrid,
    users: Iterable[UserTerminal],
    slot_duration: float,
) -> PolicyDecision:
    return repair_policy(qos, grid, users, slot_duration)(decision, snapshot)
