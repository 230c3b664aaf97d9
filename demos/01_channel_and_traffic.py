"""Physical-layer building blocks: fading channels, Poisson traffic, rates.

Walks through the envsim primitives one at a time: draw per-slot SNR
matrices under Rayleigh and Rician fading, check that fading preserves the
configured link budget on average, sample URLLC packet arrivals, and turn
an allocation into realised bits.
"""
import math

import numpy as np

from twinslice.domain import AllocationMatrix, QoSRequirement, ResourceGrid
from twinslice.envsim import (
    Environment,
    FadingModel,
    FadingParams,
    db_to_linear,
    fading_gains,
    user_rates,
)
from twinslice.scenario import Scenario

rng = np.random.default_rng(42)

print("=" * 64)
print("1. Fading preserves the configured mean SNR")
print("=" * 64)
for params in (
    FadingParams(FadingModel.RAYLEIGH),
    FadingParams(FadingModel.RICIAN, k_factor=5.0),
    FadingParams(FadingModel.RICIAN, k_factor=math.inf),
):
    gains = fading_gains(rng, params, (200_000,))
    label = f"{params.model.value:<8} k={params.k_factor:g}"
    print(f"  {label:<20} mean power gain = {gains.mean():.4f} (target 1.0)")

print()
print("=" * 64)
print("2. One slot's SNR matrix for the default 20-user scenario")
print("=" * 64)
scen = Scenario()
users = scen.users()
snr = scen.environment().state.snr
print(f"  shape {snr.shape} (users x resource blocks)")
print(f"  eMBB user 0   mean snr: {snr[0].mean():8.2f} "
      f"(budget {db_to_linear(users[0].link.mean_snr_db):.2f} linear)")
print(f"  URLLC user 10 mean snr: {snr[10].mean():8.2f} "
      f"(budget {db_to_linear(users[10].link.mean_snr_db):.2f} linear)")

print()
print("=" * 64)
print("3. Poisson arrivals at lambda = 100 packets/slot")
print("=" * 64)
draws = [int(rng.poisson(100.0)) for _ in range(5000)]
print(f"  sample mean {np.mean(draws):.2f}, variance/mean {np.var(draws)/np.mean(draws):.3f}")

print()
print("=" * 64)
print("4. Shannon rates for a hand-written allocation")
print("=" * 64)
grid = ResourceGrid(num_rbs=4, rb_bandwidth=1e6)
two = (
    users[0],
    users[10],
)
env = Environment(
    users=two,
    grid=grid,
    qos=QoSRequirement(),
    slot_duration=scen.slot_duration,
    lambda_schedules=[lambda t: 3.0],
    seeds=[7],
)
m = AllocationMatrix((0, 0, 10, 10))
rates = env.state.rates(grid.rb_bandwidth, scen.slot_duration)
for uid, bits in zip((0, 10), user_rates(m, two, rates).tolist()):
    blocks = tuple(b for b, holder in enumerate(m.assignment) if holder == uid)
    print(f"  user {uid:>2} holds blocks {blocks} -> {bits:8.1f} bits/slot")

print()
print("=" * 64)
print("5. Stepping the environment drains and refills URLLC queues")
print("=" * 64)
for _ in range(5):
    out = env.step(m)
    queue = env.state.traffic.urllc_queue[0]
    print(
        f"  t={out.t}: R_u={out.urllc_sum_rate:8.1f} bits, "
        f"served={out.urllc_served_total:8.1f}, arrivals={out.urllc_arrival_packets}, "
        f"queue now {queue:8.1f} bits"
    )
