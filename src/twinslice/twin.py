"""Digital twin of the physical network state.

The twin copies the physical states of the runs it follows into a
``StateRing`` of arrays of its own, keeping the last delay + 1 + cadence
slots, delivers a possibly stale slot of it according to a configured
delay class, and scores its own fidelity against the live physical state.
A delivery is the captured slot's ring entry, shared by every run; a
snapshot is one run in it, read in place.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .envsim import PhysicalState, StateRing


#: The largest mean absolute SNR or queue error at which ``calibrate`` passes.
CALIBRATION_TOLERANCE = 1e-9


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
    ``delivered_at``: a view of the run in the captured slot of the twin's
    ``StateRing``, read in place: every field, ``channel`` and ``traffic``
    included, raises LookupError once that slot has left the ring. Only
    ``DigitalTwin.snapshot`` makes one."""

    __slots__ = ("delivered_at", "stale_underflow")

    @property
    def captured_at(self) -> int:
        return self.t


@dataclass(frozen=True)
class CalibrationReport:
    mean_abs_snr_error: float
    mean_abs_queue_error: float
    passed: bool

    def __post_init__(self):
        if self.mean_abs_snr_error < 0 or self.mean_abs_queue_error < 0:
            raise ValueError("divergence scores must be >= 0")


def calibrate(twin: TwinSnapshot, physical: PhysicalState) -> CalibrationReport:
    """Score twin-vs-physical divergence field by field, on the arrays; the
    twin passes when both mean errors are at most ``CALIBRATION_TOLERANCE``."""
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
    passed = snr_err <= CALIBRATION_TOLERANCE and queue_err <= CALIBRATION_TOLERANCE
    return CalibrationReport(snr_err, queue_err, passed)


class DigitalTwin:
    """Single-writer twin: the simulation loop records every slot, in order,
    and anyone may read.

    ``cadence`` throttles deliveries: between due slots the previous
    delivery is returned unchanged, so its staleness grows. A delivery
    reaches back ``delay_slots`` slots and is served for up to ``cadence``
    slots, so ``record`` copies each state into the twin's own ring of
    ``ring_depth = delay_slots + 1 + cadence`` slots, sharing the state's
    rate memo. A state's ring entry holds every run that steps in lockstep
    with it; ``record`` copies all of them at once, and the runs share their
    delay and cadence, so one capture slot serves them all: ``deliver``
    names it, and policies read its entry of ``ring`` for all runs at once;
    ``snapshot`` is the view of the run recorded. Once slot t is recorded,
    the deliveries up to slot t + ``delay_slots`` are fixed.
    """

    def __init__(
        self,
        delay: DelayClass = DelayClass.MINIMAL,
        moderate_slots: int = 2,
        significant_slots: int = 20,
        cadence: int = 1,
    ):
        if cadence < 1:
            raise ValueError(f"twin cadence must be >= 1, got {cadence}")
        self.delay_slots = delay_to_slots(delay, moderate_slots, significant_slots)
        self.cadence = cadence
        self.ring_depth = self.delay_slots + 1 + cadence
        self.ring: Optional[StateRing] = None
        self._first = self._last = 0
        self._run = 0
        self._delivery: Optional[tuple[int, int, bool]] = None

    def record(self, physical: PhysicalState) -> None:
        """Copy the state's slot, for every run of its ring entry."""
        t, i, src = physical.t, physical.held(), physical.ring
        if self.ring is None:
            self.ring, self._first = StateRing(self.ring_depth, src.qos, src.layout), t
        elif t != self._last + 1:
            raise ValueError(f"slot {t} recorded after slot {self._last}, not next")
        self.ring.put(t, src.snr[i], src.queue[i], src.lam[i], src.memo[i])
        self._last, self._run = t, physical.run

    def deliver(self, now: int) -> tuple[int, int, bool]:
        """What the application layer sees at slot ``now``: (captured_at,
        delivered_at, stale_underflow), the slot of ``ring`` it reads; up to
        ``delay_slots`` past the last recorded slot, a ValueError beyond."""
        if self.ring is None:
            raise ValueError("no physical state recorded yet")
        if self._delivery is None or now - self._delivery[1] >= self.cadence:
            # now - delay, raised to the first recorded slot. The ring
            # covers the delay, so now - delay predates the kept slots only
            # while it predates the first recorded one: an underflow.
            target = now - self.delay_slots
            if target > self._last:
                raise ValueError(f"slot {now} delivers slot {target}, not recorded yet")
            self._delivery = max(self._first, target), now, target < self._first
        return self._delivery

    def snapshot(self, now: int) -> TwinSnapshot:
        """The delivery at slot ``now`` (``deliver``) as a view of the run
        whose state was recorded."""
        captured, delivered, underflow = self.deliver(now)
        snap = TwinSnapshot.view(self.ring, captured, self._run)
        snap.delivered_at, snap.stale_underflow = delivered, underflow
        return snap
