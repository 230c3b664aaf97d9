"""Trainable feedforward allocator.

A plain numpy MLP with ReLU hidden layers and a per-resource-block softmax
head: the output layer is reshaped to [num_rbs, num_users] and each row is
a categorical distribution over users for that block. Training imitates an
allocation oracle via per-block cross-entropy and mini-batch gradient
descent. No autodiff framework: gradients are hand-derived and guarded by
a finite-difference check.

The parameter dtype is a property of the net, read from its arrays: float32
or float64. Inputs are cast to it, so a net trains and serves in one
precision. ``MLP.glorot``/``MLP.zeros`` build float64 nets, which the
finite-difference check needs; ``MLP.astype`` converts.
The encoder reads a slot's runs from the twin's ring entry as one ``[R, d]``
array; the forward pass serves it as an ``[R, 1, d]`` stack, one gemv per row.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .domain import (
    AllocationMatrix,
    ConfigError,
    QoSRequirement,
    ResourceGrid,
    UserLayout,
    UserTerminal,
)
from .envsim import StateRing, db_to_linear
from .twin import TwinSnapshot

WEIGHTS_FORMAT_VERSION = 2
# Header ``dtype`` -> parameter dtype; blocks are stored little-endian.
WEIGHTS_DTYPES = {"<f4": np.dtype(np.float32), "<f8": np.dtype(np.float64)}


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, z)


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift for numerical stability."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class OutputTensor:
    """Per-block categorical user distributions; rows sum to one."""

    probs: np.ndarray  # [num_rbs, num_users]

    def __post_init__(self):
        p = np.asarray(self.probs).view()  # read-only view, no copy
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        if p.ndim != 2:
            raise ValueError("probs must be a [num_rbs, num_users] matrix")


class MLP:
    """Feedforward net; parameters live in ``weights``/``biases`` lists.

    ``output_shape`` records how the flat output layer splits into
    (num_rbs, num_users) softmax rows. Every parameter array has the net's
    ``dtype``, float32 or float64.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        output_shape: tuple[int, int],
        weights: list[np.ndarray],
        biases: list[np.ndarray],
    ):
        rbs, users = output_shape
        if rbs * users != layer_sizes[-1]:
            raise ValueError(
                f"output_shape {output_shape} does not tile output layer "
                f"of size {layer_sizes[-1]}"
            )
        if len(weights) != len(layer_sizes) - 1 or len(biases) != len(weights):
            raise ValueError("parameter count does not match layer_sizes")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.shape != (layer_sizes[i], layer_sizes[i + 1]):
                raise ValueError(f"weight {i} has shape {w.shape}")
            if b.shape != (layer_sizes[i + 1],):
                raise ValueError(f"bias {i} has shape {b.shape}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i} parameters are not finite")
        dtypes = {a.dtype for a in (*weights, *biases)}
        if len(dtypes) != 1 or not dtypes <= set(WEIGHTS_DTYPES.values()):
            raise ValueError(
                f"parameters must all be float32 or all float64, got "
                f"{sorted(map(str, dtypes))}"
            )
        self.dtype = dtypes.pop()
        self.layer_sizes = list(layer_sizes)
        self.output_shape = (int(rbs), int(users))
        self.weights = weights
        self.biases = biases

    @classmethod
    def glorot(
        cls, layer_sizes: Sequence[int], output_shape: tuple[int, int], seed: int
    ) -> "MLP":
        """Seeded uniform init in [-s, s], s = sqrt(6/(fan_in+fan_out))."""
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
            s = math.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-s, s, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(layer_sizes, output_shape, weights, biases)

    @classmethod
    def zeros(
        cls, layer_sizes: Sequence[int], output_shape: tuple[int, int]
    ) -> "MLP":
        weights = [
            np.zeros((i, o)) for i, o in zip(layer_sizes, layer_sizes[1:])
        ]
        biases = [np.zeros(o) for o in layer_sizes[1:]]
        return cls(layer_sizes, output_shape, weights, biases)

    def astype(self, dtype) -> "MLP":
        """A copy of the net with its parameters cast to ``dtype``."""
        return MLP(
            list(self.layer_sizes),
            self.output_shape,
            [w.astype(dtype) for w in self.weights],
            [b.astype(dtype) for b in self.biases],
        )

    def copy(self) -> "MLP":
        return self.astype(self.dtype)

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]


def _forward_batch(net: MLP, X: np.ndarray) -> tuple[np.ndarray, list, list]:
    """Return (probs [n, rbs, users], pre-activations, activations), all in
    the net's dtype: the input is cast to it here, for every caller."""
    a = np.asarray(X, dtype=net.dtype)
    zs, acts = [], [a]
    n_layers = len(net.weights)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            z = a @ w
            z += b  # in place: the same rounding as ``a @ w + b``
            if not np.isfinite(z).all():
                raise FloatingPointError(
                    f"non-finite values in layer {i} pre-activation"
                )
            zs.append(z)
            a = z if i == n_layers - 1 else relu(z)
            acts.append(a)
    rbs, users = net.output_shape
    logits = a.reshape(a.shape[0], rbs, users)
    return softmax_rows(logits), zs, acts


def forward(net: MLP, x: np.ndarray) -> OutputTensor:
    """Single-sample inference; deterministic for a fixed (net, x)."""
    x = np.asarray(x)
    if x.shape != (net.input_dim,):
        raise ValueError(f"expected input of shape ({net.input_dim},), got {x.shape}")
    probs, _, _ = _forward_batch(net, x[None, :])
    return OutputTensor(probs=probs[0])


def decode_output(y: OutputTensor, users: Iterable[UserTerminal]) -> AllocationMatrix:
    """Per block, pick the argmax user; ties resolve to the lowest id."""
    layout = UserLayout.of(users)
    if y.probs.shape[1] != len(layout.ids):
        raise ValueError(
            f"output has {y.probs.shape[1]} user columns for {len(layout.ids)} users"
        )
    return AllocationMatrix.of_rows(np.argmax(y.probs, axis=1).tolist(), layout)


@dataclass(frozen=True)
class FeatureScaling:
    """Normalisation references used by the feature encoder."""

    reference_snr_db: float = 10.0
    reference_lambda: float = 100.0
    slot_duration: float = 1e-3

    @property
    def reference_snr(self) -> float:
        return db_to_linear(self.reference_snr_db)


def feature_dim(num_users: int, num_rbs: int) -> int:
    # SNR block + per-user (rate, queue) pairs + 3 QoS entries.
    return num_users * num_rbs + 2 * num_users + 3


def encode_features(
    snapshot: TwinSnapshot,
    grid: ResourceGrid,
    users: Iterable[UserTerminal],
    qos: QoSRequirement,
    scaling: FeatureScaling,
) -> np.ndarray:
    """Flatten a twin snapshot into the net's input vector.

    Layout: normalised SNRs (user-major), then per user an arrival-rate
    share and a queue level, then the three QoS entries. All slices are
    linear in their sources, so doubling every SNR doubles the SNR slice.
    """
    layout = UserLayout.of(users)
    held = snapshot.ring.layout
    if (held.ids, held.urllc_ids) != (layout.ids, layout.urllc_ids):
        raise ValueError("snapshot channel users do not match the user set")
    if snapshot.snr.shape[1] != grid.num_rbs:
        raise ValueError("snapshot channel grid does not match the resource grid")
    return feature_encoder(grid, layout, qos, scaling)(*snapshot.as_slot())[0]


def feature_encoder(
    grid: ResourceGrid,
    users: Iterable[UserTerminal],
    qos: QoSRequirement,
    scaling: FeatureScaling,
) -> Callable[[StateRing, int, slice], np.ndarray]:
    """``encode_features`` of a slot's runs as one ``[R, d]`` array, row r bit
    for bit run r's: the positions of the URLLC users' traffic entries and
    the constant entries are placed once."""
    layout = UserLayout.of(users)
    n_snr = len(layout.ids) * grid.num_rbs
    zeta = qos.urllc_packet_bits
    ref_bits = zeta * scaling.reference_lambda  # bits/slot reference load
    n_urllc = max(1, len(layout.urllc))
    rate_at = n_snr + 2 * layout.urllc_rows
    queue_at = rate_at + 1
    embb_entry = qos.embb_min_rate * scaling.slot_duration / ref_bits
    dim, ref_snr = feature_dim(len(layout.ids), grid.num_rbs), scaling.reference_snr

    def encode(ring: StateRing, i: int, runs: slice) -> np.ndarray:
        snr, lam = ring.snr[i, runs], np.array(ring.lam[i][runs])
        x = np.zeros((len(lam), dim))
        x[:, :n_snr] = (snr / ref_snr).reshape(len(lam), n_snr)
        x[:, rate_at] = ((lam / n_urllc) / scaling.reference_lambda)[:, None]
        x[:, queue_at] = ring.queue[i, runs] / ref_bits
        x[:, -3], x[:, -1] = embb_entry, qos.urllc_outage_threshold
        x[:, -2] = (zeta * lam) / ref_bits
        if not np.isfinite(x).all():
            raise ValueError("encoded features contain non-finite entries")
        return x

    return encode


def _labelled(probs: np.ndarray, labels: np.ndarray) -> tuple:
    """Index of the labelled entry of every (sample, block) row of ``probs``."""
    n, rbs, _ = probs.shape
    return np.arange(n)[:, None], np.arange(rbs)[None, :], labels


def _loss(probs: np.ndarray, labels: np.ndarray) -> float:
    """Summed-over-blocks cross-entropy of ``probs``, averaged over samples.

    A labelled probability that underflows is clamped to a positive floor in
    the probabilities' dtype: 1e-300 in float64, and in float32, where
    1e-300 rounds to 0, the smallest normal float32.
    """
    picked = probs[_labelled(probs, labels)]
    floor = max(1e-300, float(np.finfo(probs.dtype).tiny))
    loss = float(-np.log(np.maximum(picked, floor)).sum() / probs.shape[0])
    if not math.isfinite(loss):
        raise FloatingPointError("non-finite training loss")
    return loss


def loss_and_grads(
    net: MLP, X: np.ndarray, labels: np.ndarray
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Summed-over-blocks cross-entropy, averaged over the batch.

    ``labels`` holds the target user column per (sample, block). For a
    zero-initialised net the loss is exactly num_rbs * ln(num_users).
    Gradients are in the net's dtype.
    """
    n = X.shape[0]
    rbs, users = net.output_shape
    probs, zs, acts = _forward_batch(net, X)
    loss = _loss(probs, labels)

    dlogits = probs  # not read again: the gradient overwrites it in place
    dlogits[_labelled(probs, labels)] -= 1.0  # indices are unique per (n, rb)
    dlogits /= n
    grad = dlogits.reshape(n, rbs * users)

    grads_w: list[np.ndarray] = [None] * len(net.weights)  # type: ignore
    grads_b: list[np.ndarray] = [None] * len(net.biases)  # type: ignore
    for i in reversed(range(len(net.weights))):
        grads_w[i] = acts[i].T @ grad
        grads_b[i] = grad.sum(axis=0)
        if i > 0:
            grad = (grad @ net.weights[i].T) * (zs[i - 1] > 0)
    return loss, grads_w, grads_b


@dataclass(frozen=True)
class TrainConfig:
    """The training run: the scenario's ``[train]`` keys, net shape aside."""

    epochs: int = 30
    learning_rate: float = 0.05
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError(f"[train] seed must be >= 0, got {self.seed}")


@dataclass
class TrainResult:
    net: MLP
    # (step, epoch, loss) per optimisation step; step 0 is the pre-update loss.
    loss_curve: list[tuple[int, int, float]] = field(default_factory=list)


def train(
    net: MLP, X: np.ndarray, labels: np.ndarray, cfg: TrainConfig
) -> TrainResult:
    """Mini-batch gradient descent on per-block cross-entropy.

    Deterministic for a fixed config: shuffling comes from a generator
    seeded with ``cfg.seed``. Raises on non-finite loss instead of
    continuing with poisoned parameters. Trains in the net's dtype; ``X``
    is cast to it once. The update ``g *= lr; w -= g`` rounds exactly as
    ``w -= lr * g`` does, without a parameter-sized temporary.
    """
    if X.ndim != 2 or labels.ndim != 2 or X.shape[0] != labels.shape[0]:
        raise ValueError("X and labels must be aligned 2-D arrays")
    net = net.copy()
    X = np.asarray(X, dtype=net.dtype)
    rng = np.random.default_rng(cfg.seed)
    n = X.shape[0]
    lr = cfg.learning_rate
    curve: list[tuple[int, int, float]] = []

    curve.append((0, 0, _loss(_forward_batch(net, X)[0], labels)))

    step = 0
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            loss, grads_w, grads_b = loss_and_grads(net, X[batch], labels[batch])
            for p, g in zip(net.weights + net.biases, grads_w + grads_b):
                g *= lr
                p -= g
            step += 1
            curve.append((step, epoch, loss))
    return TrainResult(net=net, loss_curve=curve)


def accuracy(net: MLP, X: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of (sample, block) pairs whose argmax matches the label."""
    probs, _, _ = _forward_batch(net, X)
    return float(np.mean(np.argmax(probs, axis=2) == labels))


def grad_check(
    net: MLP, x: np.ndarray, labels: np.ndarray, h: float = 1e-5
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Needs a float64 net: central differences at h = 1e-5 cancel to noise in
    float32."""
    if net.dtype != np.float64:
        raise ValueError(f"grad_check needs a float64 net, got {net.dtype}")
    x2 = np.atleast_2d(np.asarray(x, dtype=float))
    labels2 = np.atleast_2d(np.asarray(labels, dtype=int))
    _, grads_w, grads_b = loss_and_grads(net, x2, labels2)

    worst = 0.0
    params = [(net.weights, grads_w), (net.biases, grads_b)]
    for arrays, grads in params:
        for arr, g in zip(arrays, grads):
            flat = arr.ravel()
            gflat = g.ravel()
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                lp, _, _ = loss_and_grads(net, x2, labels2)
                flat[k] = orig - h
                lm, _, _ = loss_and_grads(net, x2, labels2)
                flat[k] = orig
                numeric = (lp - lm) / (2.0 * h)
                denom = max(abs(gflat[k]) + abs(numeric), 1e-8)
                worst = max(worst, abs(gflat[k] - numeric) / denom)
    return worst


def save_weights(net: MLP, path, seed: int) -> None:
    """Versioned flat binary: one JSON header line, then the raw
    little-endian parameter blocks in layer order (W then b per layer), in
    the dtype the header's ``dtype`` names (``"<f4"`` or ``"<f8"``)."""
    stored = net.dtype.newbyteorder("<")
    header = {
        "dtype": stored.str,
        "format_version": WEIGHTS_FORMAT_VERSION,
        "layer_sizes": net.layer_sizes,
        "output_shape": list(net.output_shape),
        "seed": int(seed),
    }
    with open(path, "wb") as f:
        f.write((json.dumps(header, sort_keys=True) + "\n").encode("ascii"))
        for w, b in zip(net.weights, net.biases):
            f.write(np.ascontiguousarray(w, dtype=stored).tobytes())
            f.write(np.ascontiguousarray(b, dtype=stored).tobytes())


def load_weights(path) -> tuple[MLP, int]:
    """Inverse of save_weights; the net comes back in the stored dtype. A
    file that cannot be read, that is not a whole weights file of this
    format version, or that names another dtype, raises ConfigError naming
    the file and the key; its layer sizes must declare exactly the bytes
    after the header, checked before any block is read."""
    try:
        with open(path, "rb") as f:
            header = json.loads(f.readline().decode("ascii"))
            version = header.get("format_version") if isinstance(header, dict) else None
            if version != WEIGHTS_FORMAT_VERSION:
                raise ValueError(f"unsupported weights format_version {version!r}")
            stored = header["dtype"]
            if stored not in WEIGHTS_DTYPES:
                raise ValueError(f"unsupported weights dtype {stored!r}")
            dtype = WEIGHTS_DTYPES[stored]
            layer_sizes = [int(s) for s in header["layer_sizes"]]
            output_shape = tuple(int(s) for s in header["output_shape"])
            if len(layer_sizes) < 2 or min(layer_sizes) < 1:
                raise ValueError(f"layer_sizes {layer_sizes} needs >= 2 sizes, each >= 1")
            declared = dtype.itemsize * sum(i * o + o for i, o in zip(layer_sizes, layer_sizes[1:]))
            held = os.fstat(f.fileno()).st_size - f.tell()
            if declared != held:
                raise ValueError(f"layer_sizes declare {declared} parameter bytes, {held} follow")
            weights, biases = [], []
            for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
                w = np.frombuffer(f.read(dtype.itemsize * fan_in * fan_out), stored)
                weights.append(w.reshape(fan_in, fan_out).astype(dtype))
                b = np.frombuffer(f.read(dtype.itemsize * fan_out), stored)
                biases.append(b.astype(dtype))
        net = MLP(layer_sizes, output_shape, weights, biases)  # type: ignore[arg-type]
        return net, int(header["seed"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"weights file {path}: {exc}") from exc
