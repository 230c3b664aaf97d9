"""Digital twin of the physical network state.

The twin keeps a bounded history of physical states, delivers possibly
stale snapshots according to a configured delay class, and scores its own
fidelity against the live physical state.
"""
from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .domain import ChannelState, QoSRequirement, TrafficState
from .envsim import PhysicalState


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


@dataclass(frozen=True)
class TwinSnapshot:
    """(channel, traffic, QoS) as of ``captured_at``: the recorded read-only
    states themselves, shared with the physical history, not copies."""

    captured_at: int
    delivered_at: int
    channel: ChannelState
    traffic: TrafficState
    qos: QoSRequirement
    stale_underflow: bool = False

    def __post_init__(self):
        if self.delivered_at < self.captured_at:
            raise ValueError("delivered_at must be >= captured_at")


def staleness(s: TwinSnapshot, now: int) -> int:
    """Age of the snapshot's content relative to the physical clock."""
    if now < s.captured_at:
        raise ValueError(f"now={now} precedes captured_at={s.captured_at}")
    return now - s.captured_at


def sync(
    history: Sequence[PhysicalState], delay_slots: int, now: int
) -> TwinSnapshot:
    """Deliver the physical state as of ``now - delay_slots``.

    ``history`` must be ordered by slot. When the requested slot predates
    the oldest recorded state, the oldest one is delivered with
    ``stale_underflow`` set rather than failing the loop.
    """
    if not history:
        raise ValueError("cannot sync from an empty history")
    if delay_slots < 0:
        raise ValueError("delay_slots must be >= 0")
    latest = history[-1]
    if now < latest.clock.t:
        raise ValueError(f"now={now} precedes latest recorded slot {latest.clock.t}")

    target = now - delay_slots
    underflow = False
    chosen = history[0]
    if target < chosen.clock.t:
        underflow = True
    else:
        for state in history:
            if state.clock.t <= target:
                chosen = state
            else:
                break
    return TwinSnapshot(
        captured_at=chosen.clock.t,
        delivered_at=now,
        channel=chosen.channel,
        traffic=chosen.traffic,
        qos=chosen.qos,
        stale_underflow=underflow,
    )


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
    """Single-writer twin: the simulation loop records, anyone may read.

    ``cadence`` throttles deliveries: between due slots the previously
    delivered snapshot is returned unchanged, so its staleness grows.
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
        self._history: deque[PhysicalState] = deque(maxlen=depth)
        self._last: Optional[TwinSnapshot] = None
        self._last_sync_slot: Optional[int] = None

    def record(self, physical: PhysicalState) -> None:
        self._history.append(physical)

    def snapshot(self, now: int) -> TwinSnapshot:
        """Deliver the snapshot the application layer sees at slot ``now``."""
        due = (
            self._last_sync_slot is None
            or now - self._last_sync_slot >= self.cadence
        )
        if due:
            self._last = sync(self._history, self.delay_slots, now)
            self._last_sync_slot = now
        assert self._last is not None
        return self._last
