"""Allocation strategies.

Four entry points share one contract: take a twin snapshot, return a
``PolicyDecision`` whose allocation always validates. Tie-breaking is
lowest block index then lowest user id everywhere, so decisions are
reproducible bit for bit.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .domain import (
    UNASSIGNED,
    AllocationMatrix,
    ChannelState,
    QoSRequirement,
    ResourceGrid,
    ServiceClass,
    UserTerminal,
    canonical_users,
)
from .envsim import rate_matrix, rate_sums
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


@dataclass(frozen=True)
class PolicyDecision:
    allocation: AllocationMatrix
    objective_estimate: float
    policy_id: str
    constraint_unmet: bool = False


def default_penalty_weight(
    ch: ChannelState, grid: ResourceGrid, slot_duration: float
) -> float:
    """Large enough that QoS violations dominate any rate gain."""
    rates = rate_matrix(ch, grid, slot_duration)
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
    lam = snapshot.traffic.urllc_rate
    load = qos.urllc_packet_bits * lam
    min_rate_bits = qos.embb_min_rate * slot_duration

    rates = rate_sums(m, ch, grid, slot_duration)
    total = 0.0
    urllc_rate = 0.0
    embb_deficit = 0.0
    for u in ordered:
        r = rates[u.id]
        total += r
        if u.service is ServiceClass.URLLC:
            urllc_rate += r
        else:
            embb_deficit += max(0.0, min_rate_bits - r)
    urllc_deficit = max(0.0, load - urllc_rate)
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
    split = int(cfg.urllc_fraction * grid.num_rbs)
    by_class = {
        ServiceClass.URLLC: [u for u in ordered if u.service is ServiceClass.URLLC],
        ServiceClass.EMBB: [u for u in ordered if u.service is ServiceClass.EMBB],
    }
    if split > 0 and not by_class[ServiceClass.URLLC]:
        raise ValueError("URLLC partition is nonempty but there are no URLLC users")
    if split < grid.num_rbs and not by_class[ServiceClass.EMBB]:
        raise ValueError("eMBB partition is nonempty but there are no eMBB users")

    rows = snapshot.channel.rows
    assignment = [UNASSIGNED] * grid.num_rbs
    for service, blocks in (
        (ServiceClass.URLLC, range(split)),
        (ServiceClass.EMBB, range(split, grid.num_rbs)),
    ):
        ids = [u.id for u in by_class[service]]
        # columns[b][i]: SNR of the i-th member (ascending id) on block b.
        columns = list(zip(*(rows[uid] for uid in ids)))
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
    objective = allocation_objective(
        m, snapshot, grid, ordered, snapshot.qos, slot_duration
    )
    return PolicyDecision(m, objective, "orthogonal")


def _exhaustive_oracle(
    snapshot: TwinSnapshot,
    grid: ResourceGrid,
    ordered: tuple[UserTerminal, ...],
    qos: QoSRequirement,
    slot_duration: float,
    penalty_weight: Optional[float],
) -> tuple[AllocationMatrix, float]:
    if penalty_weight is None:
        penalty_weight = default_penalty_weight(snapshot.channel, grid, slot_duration)
    best_m: Optional[AllocationMatrix] = None
    best_obj = -math.inf
    ids = [u.id for u in ordered]
    for combo in itertools.product(ids, repeat=grid.num_rbs):
        m = AllocationMatrix(assignment=combo)
        obj = allocation_objective(
            m, snapshot, grid, ordered, qos, slot_duration, penalty_weight
        )
        # Strict improvement keeps the lexicographically first argmax, which
        # is exactly "lowest block index, then lowest user id".
        if obj > best_obj:
            best_obj = obj
            best_m = m
    assert best_m is not None
    return best_m, best_obj


def _greedy_oracle(
    snapshot: TwinSnapshot,
    grid: ResourceGrid,
    ordered: tuple[UserTerminal, ...],
    qos: QoSRequirement,
    slot_duration: float,
    penalty_weight: Optional[float],
) -> tuple[AllocationMatrix, float]:
    ch = snapshot.channel
    rates = rate_matrix(ch, grid, slot_duration)  # [users, rbs]
    if penalty_weight is None:
        penalty_weight = default_penalty_weight(ch, grid, slot_duration)
    n_users, n_rbs = rates.shape
    is_urllc = np.array([u.service is ServiceClass.URLLC for u in ordered])
    lam = snapshot.traffic.urllc_rate
    load = qos.urllc_packet_bits * lam
    min_rate_bits = qos.embb_min_rate * slot_duration

    assignment = np.full(n_rbs, UNASSIGNED, dtype=int)
    user_rates = np.zeros(n_users)
    open_blocks = np.ones(n_rbs, dtype=bool)

    for _ in range(n_rbs):
        urllc_deficit = max(0.0, load - user_rates[is_urllc].sum())
        embb_deficit = np.maximum(0.0, min_rate_bits - user_rates)
        # Marginal gain of giving block b to user u: the rate itself plus
        # the penalty relief it buys on whichever deficit applies to u.
        relief = np.where(
            is_urllc[:, None],
            np.minimum(rates, urllc_deficit),
            np.minimum(rates, embb_deficit[:, None]),
        )
        marginal = rates + penalty_weight * relief
        marginal = np.where(open_blocks[None, :], marginal, -np.inf)
        # argmax over flattened (block, user) order = lowest block index
        # first, then lowest user id.
        flat = np.argmax(marginal.T)
        b, u = divmod(flat, n_users)
        assignment[b] = ordered[u].id
        user_rates[u] += rates[u, b]
        open_blocks[b] = False

    m = AllocationMatrix(assignment=tuple(int(a) for a in assignment))
    obj = allocation_objective(
        m, snapshot, grid, ordered, qos, slot_duration, penalty_weight
    )
    return m, obj


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

    Exhaustive mode enumerates every assignment (only viable when
    num_users ** num_rbs <= cap); greedy mode assigns blocks one at a time
    by best marginal objective, which exhaustive search dominates.
    """
    ordered = canonical_users(users)
    if not ordered:
        raise ValueError("need at least one user")
    size = len(ordered) ** grid.num_rbs
    if mode == "auto":
        mode = "exhaustive" if size <= cap else "greedy"
    if mode == "exhaustive":
        if size > cap:
            raise ValueError(
                f"exhaustive search of {size} assignments exceeds cap {cap}"
            )
        m, obj = _exhaustive_oracle(
            snapshot, grid, ordered, qos, slot_duration, penalty_weight
        )
    elif mode == "greedy":
        m, obj = _greedy_oracle(
            snapshot, grid, ordered, qos, slot_duration, penalty_weight
        )
    else:
        raise ValueError(f"unknown oracle mode {mode!r}")
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
    objective = allocation_objective(m, snapshot, grid, ordered, qos, slot_duration)
    return PolicyDecision(m, objective, "dnn")


def predicted_urllc_rate(
    m: AllocationMatrix,
    snapshot: TwinSnapshot,
    grid: ResourceGrid,
    users: Iterable[UserTerminal],
    slot_duration: float,
) -> float:
    """Sum URLLC capacity the (possibly stale) snapshot predicts for ``m``."""
    ordered = canonical_users(users)
    rates = rate_matrix(snapshot.channel, grid, slot_duration)
    total = 0.0
    for i, u in enumerate(ordered):
        if u.service is ServiceClass.URLLC:
            for b, uid in enumerate(m.assignment):
                if uid == u.id:
                    total += rates[i, b]
    return total


def priority_repair(
    decision: PolicyDecision,
    snapshot: TwinSnapshot,
    qos: QoSRequirement,
    grid: ResourceGrid,
    users: Iterable[UserTerminal],
    slot_duration: float,
) -> PolicyDecision:
    """Reassign eMBB blocks to URLLC until the predicted load constraint holds.

    Each step moves the eMBB-held block with the highest URLLC marginal rate
    to the URLLC user gaining most from it. URLLC-held blocks are never
    touched. Runs on the snapshot's channel deliberately, so twin staleness
    degrades the repair exactly as it would in operation.
    """
    ordered = canonical_users(users)
    service = {u.id: u.service for u in ordered}
    lam = snapshot.traffic.urllc_rate
    target = qos.urllc_packet_bits * lam
    policy_id = decision.policy_id + "+repair"

    rates = rate_matrix(snapshot.channel, grid, slot_duration)
    urllc_rows = [i for i, u in enumerate(ordered) if u.service is ServiceClass.URLLC]
    assignment = list(decision.allocation.assignment)
    predicted = predicted_urllc_rate(
        decision.allocation, snapshot, grid, ordered, slot_duration
    )

    # R <= load is an outage (metrics.outage_event), so an exact hit is
    # repaired too: at zero load, URLLC still gets a block.
    unmet = False
    if predicted <= target:
        if not urllc_rows:
            unmet = True
        else:
            urllc_gain = rates[urllc_rows, :]  # [n_urllc, num_rbs]
            while predicted <= target:
                embb_blocks = [
                    b
                    for b, uid in enumerate(assignment)
                    if uid != UNASSIGNED and service[uid] is ServiceClass.EMBB
                ]
                if not embb_blocks:
                    unmet = True
                    break
                sub = urllc_gain[:, embb_blocks]  # [n_urllc, candidates]
                flat = int(np.argmax(sub.T))  # lowest block first, then user
                j, k = divmod(flat, len(urllc_rows))
                block = embb_blocks[j]
                user = ordered[urllc_rows[k]]
                assignment[block] = user.id
                predicted += float(urllc_gain[k, block])

    m = AllocationMatrix(assignment=tuple(assignment))
    objective = allocation_objective(m, snapshot, grid, ordered, qos, slot_duration)
    return PolicyDecision(m, objective, policy_id, constraint_unmet=unmet)
