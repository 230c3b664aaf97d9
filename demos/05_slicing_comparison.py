"""Dynamic slicing vs the static orthogonal split, end to end.

Demo-scale version of the headline experiment: train the allocator
against the twin, then sweep the URLLC arrival rate and compare mean
spectral efficiency, and finally run the varying-load scenario to show the
outage CDF of the repaired neural policy. Expect a few minutes of runtime;
the full-size recipe is `twinslice train` + `twinslice sweep` on
scenarios/default.cfg (and is what tests/test_acceptance.py runs).
"""
import time
from dataclasses import replace
from pathlib import Path

from twinslice import nn, runner
from twinslice.scenario import load_scenario

root = Path(__file__).resolve().parent.parent
scen = replace(load_scenario(root / "scenarios" / "default.cfg"), horizon_slots=1500)
cfg = replace(scen.train, epochs=30)

print("training the allocator against the twin (demo scale)...")
t0 = time.time()
artifacts = runner.train_command(scen, cfg, out_dir="/tmp/twinslice_demo")
print(f"  {artifacts.dataset_size} snapshots, "
      f"loss {artifacts.result.loss_curve[0][2]:.1f} -> "
      f"{artifacts.result.loss_curve[-1][2]:.1f} in {time.time()-t0:.0f}s")

net, _ = nn.load_weights(artifacts.weights_path)

print()
print(f"{'lambda':>7} {'orthogonal SE':>14} {'dnn+repair SE':>14} {'gap':>8}")
for lam in (100.0, 125.0, 150.0, 175.0, 200.0):
    orth = runner.simulate(scen, "orthogonal", lam=lam, seed=1)
    dyn = runner.simulate(scen, "dnn+repair", lam=lam, seed=1, net=net)
    so = orth.summary.mean_spectral_efficiency
    sd = dyn.summary.mean_spectral_efficiency
    print(f"{lam:>7.0f} {so:>14.3f} {sd:>14.3f} {sd - so:>8.3f}")
print("(the dynamic advantage shrinks as URLLC load rises, and may go negative)")

print()
print("outage behaviour under the varying-load schedule:")
run = runner.simulate(scen, "dnn+repair", net=net)
cdf = run.summary.cdf
print(f"  per-slot outage probability: {run.summary.outage_probability:.4f}")
print(f"  windows with outage rate > eps_max: {cdf.exceedance_mass:.4f}")
print("  CDF of per-window outage rates:")
for v, c in zip(cdf.values[:8], cdf.cumulative[:8]):
    print(f"    rate <= {v:.3f}: {c:.3f}")
