"""Allocation strategies side by side on a grid small enough to enumerate.

Three users share four blocks: the static orthogonal split, the exhaustive
oracle and its greedy approximation decide against the same twin snapshot,
and the URLLC-priority repair step fixes a deliberately starved decision.
"""
import numpy as np

from twinslice.domain import UNASSIGNED, ServiceClass
from twinslice.policy import (
    OrthogonalConfig,
    oracle_allocate,
    orthogonal_allocate,
    predicted_urllc_rate,
    priority_repair,
)
from twinslice.scenario import LambdaSchedule, Scenario
from twinslice.twin import DigitalTwin

scen = Scenario(
    n_embb=2,
    n_urllc=1,
    num_rbs=4,
    embb_mean_snr_db=(8.0,),
    urllc_mean_snr_db=(8.0,),
    lambda_schedule=LambdaSchedule.constant(3.0),
    seed=13,
)
users = scen.users()
env = scen.environment()
twin = DigitalTwin()
twin.record(env.state)
snap = twin.snapshot(now=0)

print("SNR snapshot (users x blocks):")
print(np.round(snap.channel.snr, 2))
print(f"offered URLLC load: {scen.qos.urllc_packet_bits * 3.0:.0f} bits/slot")
print()

orth = orthogonal_allocate(
    snap, OrthogonalConfig(0.5), scen.grid, users, scen.slot_duration
)
exhaustive = oracle_allocate(
    snap, scen.grid, users, scen.qos, scen.slot_duration, mode="exhaustive"
)
greedy = oracle_allocate(
    snap, scen.grid, users, scen.qos, scen.slot_duration, mode="greedy"
)

print(f"{'policy':<12} {'assignment':<16} {'slices e/u/idle':<16} {'objective':>12}")
for d in (orth, exhaustive, greedy):
    service = [
        None if uid == UNASSIGNED else users[uid].service
        for uid in d.allocation.assignment
    ]
    counts = [service.count(c) for c in (ServiceClass.EMBB, ServiceClass.URLLC, None)]
    print(
        f"{d.policy_id:<12} {str(d.allocation.assignment):<16} "
        f"{str(tuple(counts)):<16} {d.objective_estimate:>12.1f}"
    )

print()
print("Repairing a URLLC-starved decision (all blocks to eMBB):")
starved = orthogonal_allocate(
    snap, OrthogonalConfig(0.0), scen.grid, users, scen.slot_duration
)
before = predicted_urllc_rate(
    starved.allocation, snap, scen.grid, users, scen.slot_duration
)
repaired = priority_repair(
    starved, snap, scen.qos, scen.grid, users, scen.slot_duration
)
after = predicted_urllc_rate(
    repaired.allocation, snap, scen.grid, users, scen.slot_duration
)
print(f"  before: {starved.allocation.assignment}  predicted R_u = {before:8.1f} bits")
print(f"  after:  {repaired.allocation.assignment}  predicted R_u = {after:8.1f} bits")
print(f"  constraint unmet flag: {repaired.constraint_unmet}")
