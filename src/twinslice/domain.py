"""Core vocabulary types shared by the environment, twin, policies and metrics.

The value objects here are immutable and validated when built: they are
what a caller hands in (scenario pieces) and what a state is read as. A run
keeps its slot state in arrays (``envsim.StateRing``); physical states and
twin snapshots are views of them, never built from these values, and build
a ``ChannelState`` or ``TrafficState`` on each read of their ``channel`` or
``traffic``, which copies the ring's arrays and marks them read-only.
``UserLayout`` holds a user set's per-run constants. A slot
policy decides user rows in an array (``policy``); ``AllocationMatrix``
holds one allocation's user ids, for the calls that take or return a
single allocation.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .envsim import LinkBudget

#: Sentinel user id for an idle resource block.
UNASSIGNED = -1


class ConfigError(ValueError):
    """A fault in what a run is given to work from: a scenario file, a flag,
    a weights file. Raised where the fault is found, before any simulation."""


class ServiceClass(enum.Enum):
    EMBB = "embb"
    URLLC = "urllc"


@dataclass(frozen=True)
class UserTerminal:
    id: int
    service: ServiceClass
    link: "LinkBudget"

    def __post_init__(self):
        if self.id < 0:
            raise ValueError(f"user id must be nonnegative, got {self.id}")


def canonical_users(users: Iterable[UserTerminal]) -> tuple[UserTerminal, ...]:
    """Sort users by ascending id and reject duplicate ids.

    This ordering is the contract for every user-indexed array in the
    package: channel rows, feature slices and softmax columns all follow it.
    """
    ordered = tuple(sorted(users, key=lambda u: u.id))
    ids = [u.id for u in ordered]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate user ids in {ids}")
    return ordered


@dataclass(frozen=True)
class QoSRequirement:
    """Per-run service contracts.

    eMBB demands a minimum sustained rate (bits/second). URLLC carries
    fixed-size packets of ``urllc_packet_bits`` bits and tolerates an outage
    probability of at most ``urllc_outage_threshold``.
    """

    embb_min_rate: float = 0.0
    urllc_packet_bits: int = 256  # 32-byte packets
    urllc_outage_threshold: float = 0.07

    def __post_init__(self):
        if not self.urllc_packet_bits > 0:
            raise ValueError("urllc_packet_bits must be > 0")
        if not 0.0 < self.urllc_outage_threshold < 1.0:
            raise ValueError("urllc_outage_threshold out of range (0, 1)")
        if self.embb_min_rate < 0:
            raise ValueError("embb_min_rate (embb_min_rate_bps) must be >= 0")


@dataclass(frozen=True)
class ResourceGrid:
    """One slot's worth of assignable spectrum, split into resource blocks."""

    num_rbs: int
    rb_bandwidth: float  # Hz per block

    def __post_init__(self):
        if self.num_rbs < 1:
            raise ValueError(f"num_rbs must be >= 1, got {self.num_rbs}")
        if not 0 < self.rb_bandwidth < math.inf:
            raise ValueError(
                f"rb_bandwidth (rb_bandwidth_hz) must be finite and > 0, got {self.rb_bandwidth}"
            )

    @property
    def system_bandwidth(self) -> float:
        return self.num_rbs * self.rb_bandwidth


class UserLayout:
    """A user set's per-run constants, derived once: the users in ascending id
    order (a user's row), their ids, and the rows of each service class.
    Functions that take users also take a layout (``UserLayout.of``)."""

    @classmethod
    def of(cls, users: Iterable[UserTerminal]) -> "UserLayout":
        """``users`` if it is a layout, else a layout built from them."""
        return users if isinstance(users, UserLayout) else cls(users)

    def __init__(self, users: Iterable[UserTerminal]):
        self.users = canonical_users(users)
        self.ids = tuple(u.id for u in self.users)
        self.row = {uid: i for i, uid in enumerate(self.ids)}  # id -> row
        urllc = ServiceClass.URLLC
        flags = [u.service is urllc for u in self.users]
        self.urllc = [i for i, f in enumerate(flags) if f]
        self.embb = [i for i, f in enumerate(flags) if not f]
        self.is_urllc = np.array(flags, dtype=bool)
        self.urllc_rows = np.array(self.urllc, dtype=np.intp)
        self.urllc_ids = tuple(self.ids[i] for i in self.urllc)


class AllocationMatrix:
    """Per-slot map of each resource block to one user id or UNASSIGNED."""

    def __init__(self, assignment: Iterable[int]):
        self.assignment = tuple(map(int, assignment))
        self.idle = UNASSIGNED in self.assignment  # some block left unassigned

    @classmethod
    def of_rows(cls, rows: Sequence[int], layout: UserLayout) -> "AllocationMatrix":
        """The matrix of one user row of ``layout`` per block, UNASSIGNED for
        an idle block, as a policy decides it; a ValueError names bad rows."""
        n = len(layout.ids)
        bad = [int(r) for r in rows if not UNASSIGNED <= r < n]
        if bad:
            raise ValueError(f"invalid allocation: rows {bad} are not in [-1, {n})")
        return cls(UNASSIGNED if r == UNASSIGNED else layout.ids[r] for r in rows)

    def rows_in(self, layout: UserLayout) -> np.ndarray:
        """The row of each block's user in ``layout``; a ValueError names an
        id that is not one of its users'."""
        try:
            return np.array(
                [uid if uid == UNASSIGNED else layout.row[uid] for uid in self.assignment],
                dtype=np.intp,
            )
        except KeyError as exc:
            raise ValueError(
                f"invalid allocation: user {exc.args[0]} is not among {layout.ids}"
            ) from None

    def __len__(self) -> int:
        return len(self.assignment)


def _readonly(a: np.ndarray, ndmin: int) -> np.ndarray:
    out = np.array(a, dtype=float, ndmin=ndmin)  # always a fresh copy
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ChannelState:
    """Linear-scale SNR per user per resource block for one slot.

    Rows follow ascending user id order; ``user_ids`` records that order
    explicitly so callers never guess the mapping.
    """

    snr: np.ndarray  # [num_users, num_rbs]
    user_ids: tuple[int, ...]

    def __post_init__(self):
        snr = _readonly(self.snr, ndmin=2)
        ids = tuple(map(int, self.user_ids))
        object.__setattr__(self, "snr", snr)
        object.__setattr__(self, "user_ids", ids)
        if snr.shape[0] != len(ids):
            raise ValueError(f"snr has {snr.shape[0]} rows for {len(ids)} user ids")
        if ids != tuple(sorted(set(ids))):
            raise ValueError("user_ids must be strictly increasing")
        if not np.isfinite(snr).all() or (snr < 0).any():
            raise ValueError("snr entries must be finite and >= 0")

    def row(self, user_id: int) -> np.ndarray:
        return self.snr[self.user_ids.index(user_id)]


@dataclass(frozen=True)
class TrafficState:
    """Offered URLLC load and backlog; eMBB is modelled as fully buffered."""

    urllc_rate: float  # mean packet arrivals per slot (lambda), may vary per slot
    urllc_queue: np.ndarray  # bits backlogged, aligned with urllc_user_ids
    urllc_user_ids: tuple[int, ...]

    def __post_init__(self):
        q = _readonly(self.urllc_queue, ndmin=1)
        object.__setattr__(self, "urllc_queue", q)
        object.__setattr__(self, "urllc_user_ids", tuple(map(int, self.urllc_user_ids)))
        if self.urllc_rate < 0:
            raise ValueError("urllc_rate must be >= 0")
        if q.shape != (len(self.urllc_user_ids),):
            raise ValueError("urllc_queue length must match urllc_user_ids")
        if (q < 0).any():
            raise ValueError("queues must be >= 0")


@dataclass(frozen=True)
class AllocationCheck:
    """Outcome of validate_allocation; falsy when the matrix is malformed."""

    ok: bool
    reason: str = ""
    index: Optional[int] = None
    user_id: Optional[int] = None

    def __bool__(self) -> bool:
        return self.ok


def validate_allocation(
    m: AllocationMatrix, grid: ResourceGrid, users: Iterable[UserTerminal]
) -> AllocationCheck:
    """Check shape and id membership; report the first violation found."""
    known = {u.id for u in users}
    if len(m) != grid.num_rbs:
        return AllocationCheck(
            False, f"length {len(m)} != num_rbs {grid.num_rbs}"
        )
    for b, uid in enumerate(m.assignment):
        if uid != UNASSIGNED and uid not in known:
            return AllocationCheck(
                False, f"block {b} assigned to unknown user {uid}", index=b, user_id=uid
            )
    return AllocationCheck(True)
