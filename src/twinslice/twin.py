"""Digital twin of the physical network state.

The twin copies the physical states of the runs it follows into a
``StateRing`` of arrays of its own, keeping the last ``history_depth``
slots, delivers possibly stale snapshots according to a configured delay
class, and scores its own fidelity against the live physical state. A
snapshot is one run in a slot of that ring, read in place.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domain import (
    ChannelState,
    QoSRequirement,
    ServiceClass,
    TrafficState,
    UserLayout,
    UserTerminal,
)
from .envsim import PhysicalState, StateRing


class DelayClass(enum.Enum):
    """Data-freshness regimes, from near-real-time to minutes-scale lag."""

    MINIMAL = "minimal"
    MODERATE = "moderate"
    SIGNIFICANT = "significant"


def delay_to_slots(
    delay: DelayClass, moderate_slots: int = 2, significant_slots: int = 20
) -> int:
    """Map a delay class onto whole slots. MINIMAL is always zero."""
    if moderate_slots < 0 or significant_slots < moderate_slots:
        raise ValueError("need 0 <= moderate_slots <= significant_slots")
    if delay is DelayClass.MINIMAL:
        return 0
    if delay is DelayClass.MODERATE:
        return moderate_slots
    return significant_slots


class TwinSnapshot(PhysicalState):
    """One run's (channel, traffic, QoS) as of ``captured_at``, delivered at
    ``delivered_at``: a view of the run in the captured slot of a
    ``StateRing``, read in place, with ``channel`` and ``traffic`` built on
    their first read."""

    __slots__ = ("delivered_at", "stale_underflow")

    def __init__(
        self,
        captured_at: int,
        delivered_at: int,
        channel: ChannelState,
        traffic: TrafficState,
        qos: QoSRequirement,
        stale_underflow: bool = False,
    ):
        """A hand-built snapshot: a one-slot, one-run ring holding these
        values, which are also what ``channel`` and ``traffic`` read. Its
        users are the channel's ids; the traffic's ids must be its URLLC
        users, in ascending order. A snapshot knows no link budgets."""
        if delivered_at < captured_at:
            raise ValueError("delivered_at must be >= captured_at")
        urllc = set(traffic.urllc_user_ids)
        layout = UserLayout(
            UserTerminal(i, ServiceClass.URLLC if i in urllc else ServiceClass.EMBB, None)
            for i in channel.user_ids
        )
        if traffic.urllc_user_ids != layout.urllc_ids:
            raise ValueError(
                f"traffic ids {traffic.urllc_user_ids} are not the channel's "
                f"URLLC users {layout.urllc_ids} in ascending order"
            )
        ring = StateRing(1, qos, layout)
        snr, queue = channel.snr[None], traffic.urllc_queue[None]
        ring.put(captured_at, snr, queue, [traffic.urllc_rate])
        self.ring, self.t, self.index, self.run = ring, captured_at, 0, 0
        self._channel, self._traffic = channel, traffic
        self.delivered_at, self.stale_underflow = delivered_at, stale_underflow

    @property
    def captured_at(self) -> int:
        return self.t


def _capture(first: int, last: int, delay_slots: int, now: int) -> tuple[int, bool]:
    """The slot a snapshot delivered at ``now`` captures from the consecutive
    slots ``first..last``, and whether ``now - delay_slots`` predates them."""
    target = now - delay_slots
    if target < first:
        return first, True
    return min(target, last), False


@dataclass(frozen=True)
class CalibrationTolerances:
    mean_abs_snr_error: float = 1e-9
    mean_abs_queue_error: float = 1e-9


@dataclass(frozen=True)
class CalibrationReport:
    mean_abs_snr_error: float
    mean_abs_queue_error: float
    passed: bool

    def __post_init__(self):
        if self.mean_abs_snr_error < 0 or self.mean_abs_queue_error < 0:
            raise ValueError("divergence scores must be >= 0")


def calibrate(
    twin: TwinSnapshot,
    physical: PhysicalState,
    tolerances: CalibrationTolerances = CalibrationTolerances(),
) -> CalibrationReport:
    """Score twin-vs-physical divergence field by field, on the arrays."""
    snr_t, snr_p = twin.snr, physical.snr
    if snr_t.shape != snr_p.shape:
        raise ValueError(
            f"channel dims differ: twin {snr_t.shape} vs physical {snr_p.shape}"
        )
    if twin.ring.layout.urllc_ids != physical.ring.layout.urllc_ids:
        raise ValueError("URLLC user sets differ between twin and physical")
    snr_err = float(np.mean(np.abs(snr_t - snr_p)))
    queues_t, queues_p = twin.queue, physical.queue
    queue_err = float(np.mean(np.abs(queues_t - queues_p))) if queues_t.size else 0.0
    passed = (
        snr_err <= tolerances.mean_abs_snr_error
        and queue_err <= tolerances.mean_abs_queue_error
    )
    return CalibrationReport(snr_err, queue_err, passed)


class DigitalTwin:
    """Single-writer twin: the simulation loop records every slot, in order,
    and anyone may read.

    ``cadence`` throttles deliveries: between due slots the previously
    delivered snapshot is returned unchanged, so its staleness grows. The
    twin keeps the last ``history_depth`` slots (0 means delay + 1). A
    snapshot is served for up to ``cadence`` slots, so ``record`` copies
    each state into the twin's own ring of ``ring_depth = history_depth +
    cadence`` slots, sharing the state's rate memo. A state's ring entry
    holds every run that steps in lockstep with it; ``record`` copies all
    of them at once, and the runs share their delay and cadence, so one
    capture slot serves them all: ``snapshots`` gives one view of it per
    run, ``snapshot`` the view of the run recorded.
    """

    def __init__(
        self,
        delay: DelayClass = DelayClass.MINIMAL,
        moderate_slots: int = 2,
        significant_slots: int = 20,
        cadence: int = 1,
        history_depth: int = 0,
    ):
        if cadence < 1:
            raise ValueError(f"twin cadence must be >= 1, got {cadence}")
        self.delay = delay
        self.delay_slots = delay_to_slots(delay, moderate_slots, significant_slots)
        self.cadence = cadence
        depth = history_depth or self.delay_slots + 1
        if depth < self.delay_slots + 1:
            raise ValueError(
                f"history_depth must be >= {self.delay_slots + 1} to cover "
                f"the twin delay of {self.delay_slots} slots, got {depth}"
            )
        self.ring_depth = depth + cadence
        self.ring: Optional[StateRing] = None
        self._first = self._last = 0
        self._run = 0
        self._last_snapshots: list[TwinSnapshot] = []
        self._last_sync_slot: Optional[int] = None

    def record(self, physical: PhysicalState) -> None:
        """Copy the state's slot, for every run of its ring entry."""
        t, i, src = physical.t, physical.held(), physical.ring
        if self.ring is None:
            self.ring, self._first = StateRing(self.ring_depth, src.qos, src.layout), t
        elif t != self._last + 1:
            raise ValueError(f"slot {t} recorded after slot {self._last}, not next")
        self.ring.put(t, src.snr[i], src.queue[i], src.lam[i], src.memo[i])
        self._last, self._run = t, physical.run

    def snapshots(self, now: int) -> list[TwinSnapshot]:
        """Deliver the snapshots the application layer sees at slot ``now``,
        one per run."""
        if self.ring is None:
            raise ValueError("no physical state recorded yet")
        if self._last_sync_slot is None or now - self._last_sync_slot >= self.cadence:
            # history_depth covers the delay, so now - delay never predates
            # the kept slots except before the first one.
            captured, underflow = _capture(self._first, self._last, self.delay_slots, now)
            ring = self.ring
            views = [TwinSnapshot.view(ring, captured, r) for r in range(ring.runs)]
            for snap in views:
                snap.delivered_at, snap.stale_underflow = now, underflow
            self._last_snapshots = views
            self._last_sync_slot = now
        return self._last_snapshots

    def snapshot(self, now: int) -> TwinSnapshot:
        """Deliver the snapshot the application layer sees at slot ``now``,
        of the run whose state was recorded."""
        return self.snapshots(now)[self._run]
