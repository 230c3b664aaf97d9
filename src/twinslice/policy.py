"""Allocation strategies.

A ``Policy`` derives a user set's constants once (the user layout, the
orthogonal split, the oracle's search space, the encoder's positions); each
call ``(ring, i, runs)`` reads entry ``i`` of the twin's ``StateRing`` for
the ``slice`` of runs ``runs`` in place and returns their user rows as an
``[R, B]`` array: run r's row per block, UNASSIGNED for an idle block, bit
for bit the rows of that run alone. The dnn policy serves the runs in one
forward call, one gemv per row. ``repair_policy`` takes a slot's rows too,
probes in Python floats and returns one ``constraint_unmet`` flag per run.
``*_allocate`` and ``priority_repair`` are one call on one snapshot's run
(``PhysicalState.as_slot``): they return a ``PolicyDecision`` scored by
``allocation_objective``, whose terms the exhaustive oracle shares
(``_objective``). ``users`` may be a ``UserLayout``.
Tie-breaking is lowest block index then lowest user id everywhere.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, Optional, Union

import numpy as np

from .domain import (
    UNASSIGNED,
    AllocationMatrix,
    ConfigError,
    QoSRequirement,
    ResourceGrid,
    UserLayout,
    UserTerminal,
)
from .envsim import StateRing, class_sum, memo_rates, user_rates
from .nn import MLP, FeatureScaling, _forward_batch, feature_encoder, served
from .twin import TwinSnapshot

#: Penalty multiplier applied to the largest per-block rate in the snapshot.
PENALTY_SCALE = 10.0
#: Exhaustive search cap: enumerate only when num_users ** num_rbs fits.
EXHAUSTIVE_CAP = 4 ** 6

Policy = Callable[[StateRing, int, slice], np.ndarray]


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
    """An allocation and its objective value on the snapshot it was decided on."""

    allocation: AllocationMatrix
    objective_estimate: float
    policy_id: str
    constraint_unmet: bool = False


def default_penalty_weight(
    snr: np.ndarray, grid: ResourceGrid, slot_duration: float
) -> Union[float, np.ndarray]:
    """Large enough that QoS violations dominate any rate gain, from one run's
    SNRs (or, over a leading run axis, each run's). A scale, not a rate, so it
    keeps numpy's ``log2``: ``perfbench/checks.py`` (``SlotModel.penalty_weight``)
    pins this formula and its oracle check compares objectives bit for bit,
    while ``block_rates`` gives a maximum one ulp off on about a quarter of
    random default-shape SNR matrices."""
    rates = grid.rb_bandwidth * slot_duration * np.log2(1.0 + snr)
    peak = rates.max(axis=(-2, -1)) if rates.size else np.ones(snr.shape[:-2])
    return PENALTY_SCALE * (peak if peak.ndim else float(peak))


def _objective(sums, is_urllc, load, min_rate_bits, penalty_weight):
    """The objective of per-user rate sums ``sums[u]`` (users in ascending id
    order, each entry a float or an array of candidates): total rate minus
    penalty x URLLC deficit minus penalty x the eMBB deficits, each term
    added in user order, so every caller gets the same floats."""
    total = urllc_rate = embb_deficit = 0.0
    for r, urllc in zip(sums, is_urllc):
        total = total + r
        if urllc:
            urllc_rate = urllc_rate + r
        else:
            embb_deficit = embb_deficit + np.maximum(0.0, min_rate_bits - r)
    urllc_deficit = np.maximum(0.0, load - urllc_rate)
    return total - penalty_weight * urllc_deficit - penalty_weight * embb_deficit


def allocation_objective(
    m: AllocationMatrix,
    snapshot: TwinSnapshot,
    grid: ResourceGrid,
    users: Iterable[UserTerminal],
    qos: QoSRequirement,
    slot_duration: float,
    penalty_weight: Optional[float] = None,
) -> float:
    """Sum rate minus penalised URLLC and eMBB QoS deficits: ``_objective`` of
    each user's rate, accumulated in block order (``user_rates``)."""
    layout = UserLayout.of(users)
    if penalty_weight is None:
        penalty_weight = default_penalty_weight(snapshot.snr, grid, slot_duration)
    rates = user_rates(m, layout, snapshot.rates(grid.rb_bandwidth, slot_duration))
    return float(_objective(
        rates.tolist(), layout.is_urllc, qos.urllc_packet_bits * snapshot.lam,
        qos.embb_min_rate * slot_duration, penalty_weight,
    ))


def _decision(
    rows: np.ndarray, snapshot: TwinSnapshot, grid: ResourceGrid, layout: UserLayout,
    qos: QoSRequirement, slot_duration: float, policy_id: str,
    penalty_weight: Optional[float] = None, constraint_unmet: bool = False,
) -> PolicyDecision:
    """A per-call form's result: one run's ``rows`` as an ``AllocationMatrix``,
    scored by ``allocation_objective`` on ``snapshot`` before it returns."""
    m = AllocationMatrix.of_rows(rows.tolist(), layout)
    objective = allocation_objective(m, snapshot, grid, layout, qos, slot_duration, penalty_weight)
    return PolicyDecision(m, objective, policy_id, constraint_unmet)


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
    partitions = [  # (member rows, blocks, the first block of each round)
        (np.array(rows, dtype=np.intp), range(lo, hi), set(range(lo, hi, len(rows) or 1)))
        for rows, lo, hi in ((layout.urllc, 0, split), (layout.embb, split, grid.num_rbs))
    ]

    def decide(ring: StateRing, i: int, runs: slice) -> np.ndarray:
        neg = -ring.snr[i, runs]
        rows = [[UNASSIGNED] * grid.num_rbs for _ in neg]
        for members, blocks, rounds in partitions:
            # prefs[r][k]: run r's members on the partition's k-th block, best
            # SNR first. The stable sort keeps the lower row first among
            # equal SNRs, as max keeps the first: the lowest id wins ties.
            order = neg[:, members, blocks.start : blocks.stop].argsort(1, kind="stable")
            for own, prefs in zip(rows, members[order].transpose(0, 2, 1).tolist()):
                for b, pref in zip(blocks, prefs):
                    # Every member gets one block per round, so the least-
                    # loaded members are exactly those not yet served in it.
                    if b in rounds:
                        served = set()
                    for best in pref:
                        if best not in served:
                            break
                    served.add(best)
                    own[b] = best
        return np.array(rows, dtype=np.intp)

    return decide


def orthogonal_allocate(
    snapshot: TwinSnapshot, cfg: OrthogonalConfig, grid: ResourceGrid,
    users: Iterable[UserTerminal], slot_duration: float,
) -> PolicyDecision:
    layout = UserLayout.of(users)
    (rows,) = orthogonal_policy(cfg, grid, layout, slot_duration)(*snapshot.as_slot())
    return _decision(rows, snapshot, grid, layout, snapshot.qos, slot_duration, "orthogonal")


def _exhaustive_oracle(
    rates: np.ndarray,
    load: np.ndarray,
    min_rate_bits: float,
    is_urllc: np.ndarray,
    holders: np.ndarray,
    holds: np.ndarray,
    penalty_weight: np.ndarray,
) -> np.ndarray:
    """Each run's best rows; load and penalty_weight are (runs, 1)."""
    # holders[b][n]: user row holding block b in the n-th assignment, in
    # itertools.product's order; holds[b, u, n]: whether it is u. A user's sum
    # adds its entries in block order, as user_rates does: + 0.0 is exact.
    sums = 0.0
    for b, held in enumerate(holds):
        sums = sums + np.where(held, rates[:, :, b, None], 0.0)
    obj = _objective(sums.swapaxes(0, 1), is_urllc, load, min_rate_bits, penalty_weight)
    # The first maximum is the lexicographically first optimal assignment:
    # lowest block index, then lowest user id.
    return holders[:, obj.argmax(axis=1)].T


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
    ``allocation_objective``'s scorer, and keeps the first best one.

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
        raise ValueError(f"exhaustive search of {size} assignments exceeds cap {EXHAUSTIVE_CAP}")
    if mode == "exhaustive":
        holders = np.array(np.unravel_index(np.arange(size), (n_users,) * grid.num_rbs))
        holds = holders[:, None, :] == np.arange(n_users)[:, None]
    bw = grid.rb_bandwidth
    min_rate_bits = qos.embb_min_rate * slot_duration

    def decide(ring: StateRing, i: int, runs: slice) -> np.ndarray:
        rates = memo_rates(ring.memo[i], ring.snr[i], bw, slot_duration)[runs]
        loads = [qos.urllc_packet_bits * lam for lam in ring.lam[i][runs]]
        pws = (default_penalty_weight(ring.snr[i, runs], grid, slot_duration)
               if penalty_weight is None else np.full(len(loads), penalty_weight))
        if mode == "exhaustive":
            return _exhaustive_oracle(
                rates, np.array(loads)[:, None], min_rate_bits, layout.is_urllc, holders,
                holds, pws[:, None],
            )
        return np.array([
            _greedy_oracle(r, load, min_rate_bits, layout.is_urllc, layout.urllc_rows, pw)
            for r, load, pw in zip(rates, loads, pws.tolist())
        ], dtype=np.intp)

    return decide


def oracle_allocate(
    snapshot: TwinSnapshot, grid: ResourceGrid, users: Iterable[UserTerminal],
    qos: QoSRequirement, slot_duration: float, mode: str = "auto",
    penalty_weight: Optional[float] = None,
) -> PolicyDecision:
    layout = UserLayout.of(users)
    decide = oracle_policy(grid, layout, qos, slot_duration, mode, penalty_weight)
    (rows,) = decide(*snapshot.as_slot())
    return _decision(rows, snapshot, grid, layout, qos, slot_duration, "oracle", penalty_weight)


def dynamic_policy(
    net: MLP, grid: ResourceGrid, users: Iterable[UserTerminal], qos: QoSRequirement,
    scaling: FeatureScaling, slot_duration: float,
) -> Policy:
    """Neural allocator: encode the runs' entry as one ``[R, d]`` array, run
    it through the net in one call, decode per-block argmax. The decode step
    gives valid rows for any finite net."""
    layout = UserLayout.of(users)
    if net.output_shape != (grid.num_rbs, len(layout.ids)):
        raise ValueError(
            f"net output shape {net.output_shape} does not match "
            f"({grid.num_rbs}, {len(layout.ids)})"
        )
    encode, net = feature_encoder(grid, layout, qos, scaling), served(net)

    def decide(ring: StateRing, i: int, runs: slice) -> np.ndarray:
        # An [R, 1, d] stack on output-major weights: each (1, d) row gets forward's
        # gemv_t and bits, which an (R, d) gemm would not. Argmax: lowest id wins ties.
        return _forward_batch(net, encode(ring, i, runs)[:, None])[0].argmax(axis=2)

    return decide


def dynamic_allocate(
    snapshot: TwinSnapshot, net: MLP, grid: ResourceGrid, users: Iterable[UserTerminal],
    qos: QoSRequirement, scaling: FeatureScaling, slot_duration: float,
) -> PolicyDecision:
    layout = UserLayout.of(users)
    decide = dynamic_policy(net, grid, layout, qos, scaling, slot_duration)
    (rows,) = decide(*snapshot.as_slot())
    return _decision(rows, snapshot, grid, layout, qos, slot_duration, "dnn")


def _urllc_sum(blocks: list[int], rows: list[int], rates: list[float], urllc: list) -> float:
    """Sum rate of the URLLC-held ``blocks`` (block order), held by ``rows[b]``
    at ``rates[b]``, added as the slot kernel adds it: each user's blocks in
    block order (``_user_rates``), then the users in id order (``class_sum``)."""
    sums = dict.fromkeys(urllc, 0.0)
    for b in blocks:
        sums[rows[b]] += rates[b]
    return class_sum(sums, urllc)


def predicted_urllc_rate(
    m: AllocationMatrix, snapshot: TwinSnapshot, grid: ResourceGrid,
    users: Iterable[UserTerminal], slot_duration: float,
) -> float:
    """Sum URLLC capacity that a (possibly stale) snapshot predicts for ``m``;
    at zero twin delay it equals the realised rate bit for bit."""
    layout = UserLayout.of(users)
    rows = m.rows_in(layout)
    rates = snapshot.rates(grid.rb_bandwidth, slot_duration)[rows, range(len(rows))]
    blocks = [b for b, r in enumerate(rows) if r in layout.urllc]
    return _urllc_sum(blocks, rows.tolist(), rates.tolist(), layout.urllc)


def repair_policy(
    qos: QoSRequirement, grid: ResourceGrid, users: Iterable[UserTerminal], slot_duration: float,
) -> Callable[[np.ndarray, StateRing, int, slice], tuple[np.ndarray, list[bool]]]:
    """Reassign eMBB blocks to URLLC until the predicted load constraint holds.

    Each move takes the eMBB-held block with the highest URLLC marginal rate
    to the URLLC user gaining most from it, and the repair stops at the
    first move after which ``predicted_urllc_rate`` exceeds the load.
    URLLC-held blocks are never touched. Runs on the twin's delivered channel
    deliberately, so twin staleness degrades the repair exactly as it would
    in operation. A call ``(rows, ring, i, runs)`` takes a slot's rows and
    returns the repaired rows and, per run, whether the moves ran out first
    (``constraint_unmet``).
    """
    layout = UserLayout.of(users)
    urllc, is_urllc = layout.urllc, layout.is_urllc.tolist()
    blocks = np.arange(grid.num_rbs)

    def repair(own: list, held: list, top: list, best: list, lam: float) -> tuple[list, bool]:
        kept = [b for b, r in enumerate(own) if r != UNASSIGNED and is_urllc[r]]
        embb = [b for b, r in enumerate(own) if r != UNASSIGNED and not is_urllc[r]]
        # A move leaves the other blocks' rates as they are, so the order is
        # fixed: highest rate first, then the lowest block, then the lowest id.
        moves = sorted(embb, key=top.__getitem__, reverse=True) if urllc else []
        rows, rates = own.copy(), held.copy()  # as held once every move is made
        for b in moves:
            rows[b], rates[b] = urllc[best[b]], top[b]
        # R <= load is an outage (metrics.outage_event), so an exact hit is
        # repaired too: at zero load, URLLC still gets a block. A move adds a
        # rate >= 0 to one user's sum, so the prediction never falls as k
        # grows. The running sum in move order estimates the first k that
        # clears the load; exact probes at k - 1 and k confirm it, and
        # bisection runs only if they do not. k > len(moves): none clears.
        target = qos.urllc_packet_bits * lam
        clears = lambda k: _urllc_sum(sorted(kept + moves[:k]), rows, rates, urllc) > target
        sums = accumulate((top[b] for b in moves), initial=_urllc_sum(kept, rows, rates, urllc))
        k = next((k for k, s in enumerate(sums) if s > target), len(moves) + 1)
        if k and clears(k - 1) or 0 < k <= len(moves) and not clears(k):
            k = bisect_left(range(len(moves) + 1), True, key=clears)
        for b in moves[k:]:
            rows[b] = own[b]
        return rows, k > len(moves)

    def slot(rows: np.ndarray, ring: StateRing, i: int, runs: slice):
        rates = memo_rates(ring.memo[i], ring.snr[i], grid.rb_bandwidth, slot_duration)[runs]
        # All runs at once: each block's rate for its holder, its top URLLC rate and user.
        held = rates[np.arange(len(rows))[:, None], rows, blocks].tolist()
        top = best = [None] * len(rows)  # an [R, 0, B] gain has no max, and no move
        if urllc:
            gain = rates[:, layout.urllc_rows]
            top, best = gain.max(axis=1).tolist(), gain.argmax(axis=1).tolist()
        repaired, unmet = zip(*map(repair, rows.tolist(), held, top, best, ring.lam[i][runs]))
        return np.array(repaired, dtype=np.intp), list(unmet)

    return slot


def priority_repair(
    decision: PolicyDecision, snapshot: TwinSnapshot, qos: QoSRequirement,
    grid: ResourceGrid, users: Iterable[UserTerminal], slot_duration: float,
) -> PolicyDecision:
    layout = UserLayout.of(users)
    rows = decision.allocation.rows_in(layout)[None]
    repair = repair_policy(qos, grid, layout, slot_duration)
    (own,), (unmet,) = repair(rows, *snapshot.as_slot())
    policy_id = decision.policy_id + "+repair"
    return _decision(own, snapshot, grid, layout, qos, slot_duration, policy_id, None, unmet)
