"""Imitation training of the neural allocator on the tiny scenario.

Collects oracle-labelled twin snapshots, fits the MLP with mini-batch
gradient descent, and reports the loss trajectory plus held-out per-block
agreement with the oracle. Finishes in well under a minute.
"""
import math
import time

from twinslice import nn, runner
from twinslice.scenario import load_scenario

scen = load_scenario(__file__.rsplit("/", 2)[0] + "/scenarios/tiny.cfg")
print(f"scenario: {scen.n_embb} eMBB + {scen.n_urllc} URLLC on {scen.num_rbs} RBs")

t0 = time.time()
X, labels = runner.collect_training_data(scen)
print(f"collected {X.shape[0]} snapshots ({X.shape[1]} features each) "
      f"in {time.time()-t0:.1f}s")

split = 2000
cfg = scen.train
net = runner.build_net(scen, cfg)
uniform = scen.num_rbs * math.log(scen.n_embb + scen.n_urllc)
print(f"uniform-softmax loss would be {uniform:.3f}")

t0 = time.time()
result = nn.train(net, X[:split], labels[:split], cfg)
print(f"trained {cfg.epochs} epochs in {time.time()-t0:.1f}s")

losses = [l for _, _, l in result.loss_curve]
for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
    i = min(len(losses) - 1, int(frac * len(losses)))
    print(f"  step {result.loss_curve[i][0]:>5}: loss {losses[i]:7.3f}")

train_acc = nn.accuracy(result.net, X[:split], labels[:split])
test_acc = nn.accuracy(result.net, X[split:], labels[split:])
print(f"per-block agreement with the oracle: train {train_acc:.1%}, "
      f"held-out {test_acc:.1%}")
