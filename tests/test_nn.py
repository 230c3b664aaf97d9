import functools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from twinslice.domain import ConfigError, QoSRequirement, ResourceGrid
from twinslice.nn import (
    MLP,
    FeatureScaling,
    OutputTensor,
    TrainConfig,
    _forward_batch,
    accuracy,
    decode_output,
    encode_features,
    feature_dim,
    forward,
    grad_check,
    load_weights,
    loss_and_grads,
    save_weights,
    softmax_rows,
    train,
)

from conftest import make_snapshot, make_users, write_v1_weights


def test_zero_net_outputs_uniform_rows():
    net = MLP.zeros([6, 5, 8], (2, 4))
    y = forward(net, np.zeros(6))
    assert np.allclose(y.probs, 0.25)


def test_row_sums_are_one_for_random_nets():
    rng = np.random.default_rng(0)
    for i in range(50):
        net = MLP.glorot([7, 9, 12], (3, 4), seed=i)
        y = forward(net, rng.standard_normal(7))
        assert np.all(np.abs(y.probs.sum(axis=1) - 1.0) <= 1e-6)
        assert np.all(y.probs >= 0.0)


@functools.cache
def _stack_net(shape: str) -> MLP:
    """The default scenario's float32 1043 -> 1024 -> 1000 net, or a small
    float64 one."""
    if shape == "default":
        return MLP.glorot([1043, 1024, 1000], (50, 20), seed=4).astype(np.float32)
    return MLP.glorot([7, 9, 12], (3, 4), seed=4)


@given(
    shape=st.sampled_from(["default", "small"]),
    runs=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-3, 1.0, 30.0]),
)
def test_a_stacked_forward_row_is_that_row_alone(shape, runs, seed, scale):
    """The dnn policy serves a slot's runs as one [R, 1, d] stack; row r is
    ``forward`` of run r's features alone, byte for byte."""
    net = _stack_net(shape)
    X = np.random.default_rng(seed).standard_normal((runs, net.input_dim)) * scale
    probs = _forward_batch(net, X[:, None, :])[0]
    for r, x in enumerate(X):
        assert probs[r].tobytes() == forward(net, x).probs.tobytes(), (
            f"row {r} of a stack of {runs} differs from its own forward pass "
            f"({shape} net) under numpy {np.__version__}; a numpy whose matmul "
            "gives stacked rows another BLAS call breaks the dnn policy's exactness"
        )


def test_product_rows_do_not_depend_on_how_many_rows_share_it():
    """One forward product per slot for all runs is exact only if row r of
    ``X[:M] @ W`` is the same bits for every M >= 2. A property of the BLAS
    build, not of numpy's contract, pinned here on the default.cfg first
    layer's shape (1043 features, 1024 hidden, float32). One row (M = 1) is
    a gemv, whose bits differ, and is not pinned."""
    rng = np.random.default_rng(11)
    W = rng.standard_normal((1043, 1024)).astype(np.float32)
    X = rng.standard_normal((64, 1043)).astype(np.float32)
    full = X @ W
    for m in (2, 5):
        assert (X[:m] @ W).tobytes() == full[:m].tobytes(), (
            f"the first {m} rows of a product differ from those rows in a product "
            f"of 64 under numpy {np.__version__}; with this BLAS a batched forward "
            "would depend on how many runs share a slot"
        )


def test_softmax_shift_invariance_per_row():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((4, 5))
    shifted = logits + rng.standard_normal((4, 1))  # per-row constant
    assert np.allclose(softmax_rows(logits), softmax_rows(shifted))


def test_forward_rejects_wrong_input_dim():
    net = MLP.zeros([6, 5, 8], (2, 4))
    with pytest.raises(ValueError):
        forward(net, np.zeros(7))


def test_forward_reports_non_finite():
    net = MLP.zeros([3, 4, 6], (2, 3))
    net.weights[0][0, 0] = 1e308
    net.weights[1][0, 0] = 1e308
    with pytest.raises(FloatingPointError):
        forward(net, np.full(3, 1e10))


def test_decode_uniform_rows_pick_lowest_id():
    users = make_users(2, 1)
    y = OutputTensor(np.full((3, 3), 1.0 / 3.0))
    m = decode_output(y, users)
    assert m.assignment == (0, 0, 0)


def test_decode_argmax():
    users = make_users(2, 0)
    y = OutputTensor([[0.1, 0.9], [0.6, 0.4]])
    assert decode_output(y, users).assignment == (1, 0)


def test_decode_column_permutation_equivariance():
    users = make_users(3, 0)
    rng = np.random.default_rng(2)
    probs = softmax_rows(rng.standard_normal((5, 3)))
    base = decode_output(OutputTensor(probs), users)
    perm = [2, 0, 1]  # column j of the new tensor is old column perm[j]
    permuted = decode_output(OutputTensor(probs[:, perm]), users)
    # assignment through the permuted tensor maps back to the same users
    assert [perm[c] for c in permuted.assignment] == list(base.assignment)


def test_decode_fuzz_always_valid():
    from twinslice.domain import validate_allocation

    users = make_users(3, 2)
    grid = ResourceGrid(6, 1e5)
    rng = np.random.default_rng(3)
    for _ in range(10_000):
        probs = softmax_rows(rng.standard_normal((6, 5)))
        m = decode_output(OutputTensor(probs), users)
        assert validate_allocation(m, grid, users)


def _enc_args():
    users = make_users(2, 1)
    return users, ResourceGrid(4, 1e5), QoSRequirement(), FeatureScaling(
        reference_snr_db=10.0, reference_lambda=100.0, slot_duration=1e-3
    )


def test_encode_zero_snapshot_is_zero_outside_qos_block():
    users, grid, qos, scaling = _enc_args()
    snap = make_snapshot(np.zeros((3, 4)), users, lam=0.0)
    x = encode_features(snap, grid, users, qos, scaling)
    assert x.shape == (feature_dim(3, 4),)
    assert np.all(x[:-3] == 0.0)
    assert x[-1] == qos.urllc_outage_threshold


def test_encode_deterministic():
    users, grid, qos, scaling = _enc_args()
    rng = np.random.default_rng(4)
    snr = rng.exponential(1.0, (3, 4))
    a = encode_features(make_snapshot(snr, users, lam=3.0), grid, users, qos, scaling)
    b = encode_features(make_snapshot(snr, users, lam=3.0), grid, users, qos, scaling)
    assert np.array_equal(a, b)


def test_encode_snr_slice_is_linear():
    users, grid, qos, scaling = _enc_args()
    rng = np.random.default_rng(5)
    snr = rng.exponential(1.0, (3, 4))
    x1 = encode_features(make_snapshot(snr, users), grid, users, qos, scaling)
    x2 = encode_features(make_snapshot(2 * snr, users), grid, users, qos, scaling)
    n_snr = 3 * 4
    assert np.allclose(x2[:n_snr], 2 * x1[:n_snr])
    assert np.allclose(x2[n_snr:], x1[n_snr:])


def test_encode_rejects_a_snapshot_of_another_user_set():
    users, grid, qos, scaling = _enc_args()  # ids 0, 1 eMBB and 2 URLLC
    shifted = tuple(replace(u, id=u.id + 1) for u in users)
    for other in (shifted, make_users(1, 2)):  # the same size, other ids or classes
        snap = make_snapshot(np.ones((3, 4)), other)
        with pytest.raises(ValueError, match="do not match the user set"):
            encode_features(snap, grid, users, qos, scaling)
    snap = make_snapshot(np.ones((3, 5)), users)
    with pytest.raises(ValueError, match="resource grid"):
        encode_features(snap, grid, users, qos, scaling)


def test_initial_loss_of_zero_net_is_rbs_log_users():
    rng = np.random.default_rng(6)
    rbs, n_users = 5, 7
    net = MLP.zeros([11, 9, rbs * n_users], (rbs, n_users))
    X = rng.standard_normal((4, 11))
    labels = rng.integers(0, n_users, size=(4, rbs))
    loss, _, _ = loss_and_grads(net, X, labels)
    assert abs(loss - rbs * math.log(n_users)) < 1e-9


def test_training_memorizes_a_single_sample():
    rng = np.random.default_rng(7)
    net = MLP.glorot([6, 16, 8], (2, 4), seed=0)
    X = rng.standard_normal((1, 6))
    labels = np.array([[3, 1]])
    res = train(net, X, labels, TrainConfig(learning_rate=0.5, epochs=300, batch_size=1))
    assert accuracy(res.net, X, labels) == 1.0


def test_training_loss_nonincreasing_when_smoothed():
    rng = np.random.default_rng(8)
    net = MLP.glorot([10, 24, 12], (3, 4), seed=1)
    X = rng.standard_normal((64, 10))
    labels = rng.integers(0, 4, size=(64, 3))
    res = train(net, X, labels, TrainConfig(learning_rate=0.1, epochs=60, batch_size=16))
    losses = [loss for _, _, loss in res.loss_curve]
    # trailing moving average over 40 steps
    smoothed = [np.mean(losses[max(0, i - 39) : i + 1]) for i in range(len(losses))]
    # quarter-to-quarter trend must fall monotonically
    q = len(smoothed) // 4
    quarters = [np.mean(smoothed[i * q : (i + 1) * q]) for i in range(4)]
    assert all(b <= a + 1e-9 for a, b in zip(quarters, quarters[1:]))


def test_training_is_deterministic_per_seed():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((32, 6))
    labels = rng.integers(0, 4, size=(32, 2))
    cfg = TrainConfig(learning_rate=0.2, epochs=5, batch_size=8, seed=11)
    r1 = train(MLP.glorot([6, 12, 8], (2, 4), seed=2), X, labels, cfg)
    r2 = train(MLP.glorot([6, 12, 8], (2, 4), seed=2), X, labels, cfg)
    for w1, w2 in zip(r1.net.weights, r2.net.weights):
        assert np.array_equal(w1, w2)
    assert r1.loss_curve == r2.loss_curve


def test_training_aborts_on_divergence():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((16, 6)) * 1e3
    labels = rng.integers(0, 4, size=(16, 2))
    net = MLP.glorot([6, 12, 8], (2, 4), seed=3)
    with pytest.raises(FloatingPointError):
        train(net, X, labels, TrainConfig(learning_rate=1e9, epochs=50, batch_size=4))


@pytest.mark.parametrize("field,value", [("learning_rate", math.inf), ("seed", -1)])
def test_train_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


def test_tiny_scenario_heldout_accuracy(tiny_trained):
    acc = accuracy(
        tiny_trained["net"], tiny_trained["X_test"], tiny_trained["labels_test"]
    )
    assert acc >= 0.85


def test_grad_check_on_random_small_nets():
    rng = np.random.default_rng(12)
    worst = 0.0
    for i in range(20):
        rbs = int(rng.integers(1, 4))
        n_users = int(rng.integers(2, 5))
        hidden = int(rng.integers(3, 7))
        net = MLP.glorot([4, hidden, rbs * n_users], (rbs, n_users), seed=100 + i)
        x = rng.standard_normal(4)
        labels = rng.integers(0, n_users, size=rbs)
        worst = max(worst, grad_check(net, x, labels))
    assert worst < 1e-4


def test_grad_check_detects_a_corrupted_gradient():
    rng = np.random.default_rng(13)
    net = MLP.glorot([4, 5, 6], (2, 3), seed=0)
    x = rng.standard_normal(4)
    labels = np.array([1, 2])
    x2 = np.atleast_2d(x)
    l2 = np.atleast_2d(labels)
    _, grads_w, _ = loss_and_grads(net, x2, l2)

    # recompute numerically against a deliberately corrupted analytic grad
    h = 1e-5
    w = net.weights[0]
    orig = w[0, 0]
    w[0, 0] = orig + h
    lp, _, _ = loss_and_grads(net, x2, l2)
    w[0, 0] = orig - h
    lm, _, _ = loss_and_grads(net, x2, l2)
    w[0, 0] = orig
    numeric = (lp - lm) / (2 * h)
    corrupted = grads_w[0][0, 0] + 1.0
    rel = abs(corrupted - numeric) / max(abs(corrupted) + abs(numeric), 1e-8)
    assert rel > 1e-2


def test_grad_check_degenerate_zero_case_is_finite():
    net = MLP.zeros([4, 5, 6], (2, 3))
    err = grad_check(net, np.zeros(4), np.zeros(2, dtype=int))
    assert math.isfinite(err)


def test_weights_roundtrip_and_version_guard(tmp_path):
    net = MLP.glorot([5, 7, 6], (3, 2), seed=4)
    path = tmp_path / "w.bin"
    save_weights(net, path, seed=4)
    loaded, seed = load_weights(path)
    assert seed == 4
    assert loaded.layer_sizes == net.layer_sizes
    assert loaded.output_shape == net.output_shape
    for a, b in zip(net.weights + net.biases, loaded.weights + loaded.biases):
        assert np.array_equal(a, b)

    raw = path.read_bytes()
    corrupted = raw.replace(b'"format_version": 2', b'"format_version": 9', 1)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(corrupted)
    with pytest.raises(ValueError, match="format_version"):
        load_weights(bad)


def test_weights_file_is_byte_stable(tmp_path):
    net = MLP.glorot([5, 7, 6], (3, 2), seed=4)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_weights(net, p1, seed=4)
    save_weights(net, p2, seed=4)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_weights_round_trip_exactly_in_both_dtypes(tmp_path, dtype):
    net = MLP.glorot([5, 7, 6], (3, 2), seed=4).astype(dtype)
    net.weights[0][0, 0] = np.finfo(dtype).tiny  # the smallest normal survives too
    path, again = tmp_path / "w.bin", tmp_path / "again.bin"
    save_weights(net, path, seed=4)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert header["format_version"] == 2
    assert header["dtype"] == np.dtype(dtype).newbyteorder("<").str
    loaded, _ = load_weights(path)
    assert loaded.dtype == np.dtype(dtype)
    for a, b in zip(net.weights + net.biases, loaded.weights + loaded.biases):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    save_weights(loaded, again, seed=4)
    assert again.read_bytes() == path.read_bytes()


def test_weights_format_version_1_is_a_config_error(tmp_path):
    path = tmp_path / "v1.bin"
    write_v1_weights(path, MLP.glorot([5, 7, 6], (3, 2), seed=4), seed=4)
    with pytest.raises(ConfigError, match="format_version"):
        load_weights(path)


@pytest.mark.parametrize("stored", ["<f2", ">f4", "float32", None])
def test_weights_other_dtype_is_a_config_error(tmp_path, stored):
    path = tmp_path / "w.bin"
    save_weights(MLP.zeros([5, 7, 6], (3, 2)).astype(np.float32), path, seed=0)
    head, body = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header["dtype"] = stored
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)
    with pytest.raises(ConfigError, match="dtype"):
        load_weights(path)


@pytest.mark.parametrize(
    "dtypes",
    [
        (np.float32, np.float64),
        (np.float64, np.float32),
        (np.float16, np.float16),
        (np.int64, np.int64),
        (np.dtype(">f8"), np.dtype(">f8")),
    ],
    ids=["f32_then_f64", "f64_then_f32", "f16", "int64", "big_endian_f8"],
)
def test_mlp_rejects_mixed_or_unsupported_dtypes(dtypes):
    base = MLP.zeros([3, 4, 6], (2, 3))
    weights = [w.astype(d) for w, d in zip(base.weights, dtypes)]
    biases = [b.astype(d) for b, d in zip(base.biases, dtypes)]
    with pytest.raises(ValueError, match="float32 or all float64"):
        MLP(base.layer_sizes, base.output_shape, weights, biases)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_copy_and_astype_keep_the_dtype(dtype):
    net = MLP.glorot([4, 5, 6], (2, 3), seed=1).astype(dtype)
    assert net.dtype == np.dtype(dtype)
    twin = net.copy()
    assert twin.dtype == net.dtype
    assert all(a.dtype == net.dtype for a in twin.weights + twin.biases)
    assert all(a is not b for a, b in zip(twin.weights, net.weights))
    assert net.astype(np.float64).astype(dtype).weights[0].dtype == np.dtype(dtype)


def test_glorot_and_zeros_nets_are_float64():
    assert MLP.glorot([4, 5, 6], (2, 3), seed=1).dtype == np.float64
    assert MLP.zeros([4, 5, 6], (2, 3)).dtype == np.float64


def test_grad_check_rejects_a_float32_net():
    net = MLP.glorot([4, 5, 6], (2, 3), seed=0).astype(np.float32)
    with pytest.raises(ValueError, match="float32"):
        grad_check(net, np.zeros(4), np.zeros(2, dtype=int))


def test_float32_loss_is_finite_when_the_labelled_probability_underflows():
    # Logits (0, 200): exp(-200) is 0 in float32, so the labelled user-0
    # probability underflows; the loss is clamped at the float32 floor.
    w = np.array([[0.0, 200.0]], dtype=np.float32)
    net = MLP([1, 2], (1, 2), [w], [np.zeros(2, dtype=np.float32)])
    X = np.ones((1, 1), dtype=np.float32)
    labels = np.zeros((1, 1), dtype=int)
    loss, grads_w, grads_b = loss_and_grads(net, X, labels)
    assert loss == pytest.approx(-math.log(np.finfo(np.float32).tiny))
    assert all(np.all(np.isfinite(g)) for g in grads_w + grads_b)
    res = train(net, X, labels, TrainConfig(learning_rate=1e-3, epochs=2, batch_size=1))
    assert all(math.isfinite(loss) for _, _, loss in res.loss_curve)


def test_float32_net_computes_in_float32():
    rng = np.random.default_rng(14)
    net = MLP.glorot([6, 12, 8], (2, 4), seed=2).astype(np.float32)
    X = rng.standard_normal((16, 6))  # float64 input, cast by the net
    labels = rng.integers(0, 4, size=(16, 2))
    assert forward(net, X[0]).probs.dtype == np.float32
    _, grads_w, grads_b = loss_and_grads(net, X, labels)
    assert all(g.dtype == np.float32 for g in grads_w + grads_b)
    res = train(net, X, labels, TrainConfig(learning_rate=0.2, epochs=3, batch_size=4))
    assert res.net.dtype == np.float32
    assert np.array_equal(
        forward(res.net, X[0]).probs, forward(res.net, X[0].astype(np.float32)).probs
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_training_equals_the_out_of_place_reference_loop(dtype):
    """nn.train against the plain loop: step-0 loss from loss_and_grads on
    the whole float64 dataset, then ``w -= lr * g`` on float64 batches."""
    rng = np.random.default_rng(15)
    X = rng.standard_normal((37, 6))
    labels = rng.integers(0, 4, size=(37, 2))
    cfg = TrainConfig(learning_rate=0.3, epochs=3, batch_size=8, seed=5)
    net = MLP.glorot([6, 12, 8], (2, 4), seed=3).astype(dtype)
    res = train(net, X, labels, cfg)

    ref = net.copy()
    order_rng = np.random.default_rng(cfg.seed)
    curve = [(0, 0, loss_and_grads(ref, X, labels)[0])]
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        order = order_rng.permutation(X.shape[0])
        for start in range(0, X.shape[0], cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            loss, grads_w, grads_b = loss_and_grads(ref, X[batch], labels[batch])
            for i in range(len(ref.weights)):
                ref.weights[i] -= cfg.learning_rate * grads_w[i]
                ref.biases[i] -= cfg.learning_rate * grads_b[i]
            step += 1
            curve.append((step, epoch, loss))
    assert res.loss_curve == curve
    for a, b in zip(res.net.weights + res.net.biases, ref.weights + ref.biases):
        assert a.dtype == b.dtype == np.dtype(dtype) and np.array_equal(a, b)
