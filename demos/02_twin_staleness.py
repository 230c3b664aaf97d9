"""Digital twin lifecycle: record, delayed snapshots, staleness and calibration.

Runs the same physical trajectory against twins configured with the three
delay classes and shows how data freshness degrades twin fidelity.
"""
import numpy as np

from twinslice.domain import AllocationMatrix
from twinslice.scenario import Scenario
from twinslice.twin import (
    CalibrationTolerances,
    DelayClass,
    DigitalTwin,
    calibrate,
)

scen = Scenario(n_embb=2, n_urllc=1, num_rbs=4, horizon_slots=40)
decision = AllocationMatrix((0, 1, 2, 2))

print("=" * 64)
print("Twin fidelity by delay class (mean abs SNR error per slot)")
print("=" * 64)
for delay, slots in (
    (DelayClass.MINIMAL, 0),
    (DelayClass.MODERATE, 2),
    (DelayClass.SIGNIFICANT, 10),
):
    env = scen.environment(seed=5)
    twin = DigitalTwin(delay=delay, moderate_slots=2, significant_slots=10)
    errors, ages = [], []
    for t in range(scen.horizon_slots):
        twin.record(env.state)
        snap = twin.snapshot(now=t)
        ages.append(t - snap.captured_at)  # the snapshot's staleness
        report = calibrate(snap, env.state, CalibrationTolerances())
        errors.append(report.mean_abs_snr_error)
        env.step(decision)
    print(
        f"  {delay.value:<12} staleness(steady)={ages[-1]:>2} slots, "
        f"mean err={np.mean(errors):8.4f}, max err={np.max(errors):8.4f}"
    )
print("  (MINIMAL delay is exact by construction: every error is 0)")
