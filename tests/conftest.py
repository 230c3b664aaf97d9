import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from twinslice.domain import QoSRequirement, ServiceClass, UserLayout, UserTerminal
from twinslice.envsim import Environment, FadingModel, FadingParams, LinkBudget, StateRing
from twinslice.scenario import LambdaSchedule, Scenario
from twinslice.twin import TwinSnapshot

RAYLEIGH = FadingParams(FadingModel.RAYLEIGH)

# Property tests draw a fixed set of examples and save none, so every run of
# the suite sees the same ones.
settings.register_profile(
    "twinslice", derandomize=True, max_examples=100, deadline=None, database=None
)
settings.load_profile("twinslice")


@pytest.fixture(scope="session")
def repo_root_scenarios():
    return Path(__file__).resolve().parent.parent / "scenarios"


def make_users(n_embb, n_urllc, embb_snr=10.0, urllc_snr=2.0, fading=RAYLEIGH):
    """eMBB users get ids 0..n_embb-1, URLLC users follow, like Scenario."""
    users = [
        UserTerminal(i, ServiceClass.EMBB, LinkBudget(embb_snr, fading))
        for i in range(n_embb)
    ]
    users += [
        UserTerminal(n_embb + i, ServiceClass.URLLC, LinkBudget(urllc_snr, fading))
        for i in range(n_urllc)
    ]
    return tuple(users)


def make_snapshot(snr, users, lam=0.0, queue=None, qos=None, captured_at=0):
    """A twin snapshot of these values, made as the twin makes one: they go
    into slot ``captured_at`` of a one-run ``StateRing`` on the users'
    layout, as ``put_state`` writes a physical state, and the snapshot is
    the ring's view (``DigitalTwin.snapshot``), delivered when captured."""
    layout = UserLayout(users)
    snr = np.asarray(snr, dtype=float)
    queue = np.zeros(len(layout.urllc)) if queue is None else np.asarray(queue, dtype=float)
    ring = StateRing(1, qos or QoSRequirement(), layout)
    ring.put(captured_at, snr[None], queue[None], [lam])
    snap = TwinSnapshot.view(ring, captured_at)
    snap.delivered_at, snap.stale_underflow = captured_at, False
    return snap


def make_env(users, grid, lam=0.0, seed=0, qos=None, slot_duration=1e-3):
    """A one-run environment whose arrival rate is ``lam`` in every slot."""
    qos = qos or QoSRequirement()
    return Environment(users, grid, qos, slot_duration, [lambda t: lam], [seed])


def put_state(env, snr, queue, lam):
    """Write a hand-built state into slot 0 of a fresh one-run environment,
    in place of its first draw: the next ``env.step`` starts from it."""
    assert env.now == 0
    snr, queue = np.asarray(snr, dtype=float), np.asarray(queue, dtype=float)
    env.ring.put(0, snr[None], queue[None], [lam])


def tiny_scenario(horizon=2500, seed=3):
    """3 users x 4 RBs: exhaustive-oracle territory, trains in seconds."""
    return Scenario(
        n_embb=2,
        n_urllc=1,
        embb_mean_snr_db=(8.0,),
        urllc_mean_snr_db=(8.0,),
        fading=RAYLEIGH,
        num_rbs=4,
        rb_bandwidth=1e6,
        slot_duration=1e-3,
        lambda_schedule=LambdaSchedule.constant(2.0),
        reference_snr_db=8.0,
        reference_lambda=2.0,
        horizon_slots=horizon,
        outage_window=50,
        seed=seed,
    )


@pytest.fixture(scope="session")
def tiny_trained():
    """One tiny-scenario imitation run shared by the nn and policy tests."""
    from twinslice import nn, runner

    scen = tiny_scenario()
    X, labels = runner.collect_training_data(scen)
    cfg = nn.TrainConfig(learning_rate=0.2, epochs=120, batch_size=32, seed=0)
    net = nn.MLP.glorot([X.shape[1], 128, 64, 12], (4, 3), seed=0)
    result = nn.train(net, X[:2000], labels[:2000], cfg)
    return {
        "scenario": scen,
        "net": result.net,
        "result": result,
        "X_train": X[:2000],
        "labels_train": labels[:2000],
        "X_test": X[2000:],
        "labels_test": labels[2000:],
    }


def write_v1_weights(path, net, seed):
    """A weights file of format version 1: no dtype key, float64 blocks."""
    header = {
        "format_version": 1,
        "layer_sizes": net.layer_sizes,
        "output_shape": list(net.output_shape),
        "seed": seed,
    }
    with open(path, "wb") as f:
        f.write((json.dumps(header, sort_keys=True) + "\n").encode("ascii"))
        for w, b in zip(net.weights, net.biases):
            f.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(b, dtype="<f8").tobytes())
