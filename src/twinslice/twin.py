"""Digital twin of the physical network state.

The twin copies its run's physical states into a ``StateRing`` of arrays
of its own, keeping the last ``history_depth`` slots, delivers possibly
stale snapshots according to a configured delay class, and scores its own
fidelity against the live physical state. A snapshot is a slot of that
ring, read in place.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

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
    """(channel, traffic, QoS) as of ``captured_at``, delivered at
    ``delivered_at``: a view of the captured slot in a ``StateRing``, read in
    place, with ``channel`` and ``traffic`` built on their first read."""

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
        """A hand-built snapshot: a one-slot ring holding these values. Its
        users are the channel's ids, the traffic's ids being the URLLC ones;
        a snapshot knows no link budgets."""
        if delivered_at < captured_at:
            raise ValueError("delivered_at must be >= captured_at")
        urllc = set(traffic.urllc_user_ids)
        layout = UserLayout(
            UserTerminal(i, ServiceClass.URLLC if i in urllc else ServiceClass.EMBB, None)
            for i in channel.user_ids
        )
        self._hold(captured_at, channel, traffic, StateRing(1, qos, layout))
        self.delivered_at, self.stale_underflow = delivered_at, stale_underflow

    @classmethod
    def of(
        cls, ring: StateRing, captured_at: int, delivered_at: int, stale_underflow: bool
    ) -> "TwinSnapshot":
        snap = cls.view(ring, captured_at)
        snap.delivered_at, snap.stale_underflow = delivered_at, stale_underflow
        return snap

    @property
    def captured_at(self) -> int:
        return self.t


def staleness(s: TwinSnapshot, now: int) -> int:
    """Age of the snapshot's content relative to the physical clock."""
    if now < s.captured_at:
        raise ValueError(f"now={now} precedes captured_at={s.captured_at}")
    return now - s.captured_at


def _capture(first: int, last: int, delay_slots: int, now: int) -> tuple[int, bool]:
    """The slot a snapshot delivered at ``now`` captures from the consecutive
    slots ``first..last``, and whether ``now - delay_slots`` predates them."""
    target = now - delay_slots
    if target < first:
        return first, True
    return min(target, last), False


def sync(
    history: Sequence[PhysicalState], delay_slots: int, now: int
) -> TwinSnapshot:
    """Deliver the physical state as of ``now - delay_slots``.

    ``history`` holds consecutive slots, oldest first. When the requested
    slot predates the oldest one, the oldest is delivered with
    ``stale_underflow`` set rather than failing the loop.
    """
    first = history[0].t
    captured, underflow = _capture(first, history[-1].t, delay_slots, now)
    return TwinSnapshot.of(history[captured - first].ring, captured, now, underflow)


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
    """Score twin-vs-physical divergence field by field."""
    if twin.channel.snr.shape != physical.channel.snr.shape:
        raise ValueError(
            f"channel dims differ: twin {twin.channel.snr.shape} vs "
            f"physical {physical.channel.snr.shape}"
        )
    if twin.traffic.urllc_user_ids != physical.traffic.urllc_user_ids:
        raise ValueError("URLLC user sets differ between twin and physical")
    snr_err = float(np.mean(np.abs(twin.channel.snr - physical.channel.snr)))
    queues_t = twin.traffic.urllc_queue
    queues_p = physical.traffic.urllc_queue
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
    twin keeps the last ``history_depth`` slots (delay + 1 by default). A
    snapshot is served for up to ``cadence`` slots, so ``record`` copies
    each state into the twin's own ring of ``ring_depth = history_depth +
    cadence`` slots, sharing the state's rate memo.
    """

    def __init__(
        self,
        delay: DelayClass = DelayClass.MINIMAL,
        moderate_slots: int = 2,
        significant_slots: int = 20,
        cadence: int = 1,
        history_depth: Optional[int] = None,
    ):
        if cadence < 1:
            raise ValueError("cadence must be >= 1")
        self.delay = delay
        self.delay_slots = delay_to_slots(delay, moderate_slots, significant_slots)
        self.cadence = cadence
        depth = history_depth if history_depth is not None else self.delay_slots + 1
        if depth < self.delay_slots + 1:
            raise ValueError("history_depth must cover the configured delay")
        self.ring_depth = depth + cadence
        self.ring: Optional[StateRing] = None
        self._first = self._last = 0
        self._last_snapshot: Optional[TwinSnapshot] = None
        self._last_sync_slot: Optional[int] = None

    def record(self, physical: PhysicalState) -> None:
        t, i, src = physical.t, physical.held(), physical.ring
        if self.ring is None:
            self.ring, self._first = src.like(self.ring_depth), t
        elif t != self._last + 1:
            raise ValueError(f"slot {t} recorded after slot {self._last}, not next")
        self.ring.put(t, src.snr[i], src.queue[i], src.lam[i], src.memo[i])
        self._last = t

    def snapshot(self, now: int) -> TwinSnapshot:
        """Deliver the snapshot the application layer sees at slot ``now``."""
        if self.ring is None:
            raise ValueError("no physical state recorded yet")
        if self._last_sync_slot is None or now - self._last_sync_slot >= self.cadence:
            # history_depth covers the delay, so now - delay never predates
            # the kept slots except before the first one.
            captured, underflow = _capture(self._first, self._last, self.delay_slots, now)
            self._last_snapshot = TwinSnapshot.of(self.ring, captured, now, underflow)
            self._last_sync_slot = now
        return self._last_snapshot
