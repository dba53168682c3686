"""Attribute-predictor tests: joins, forward/backward, training, ensembles."""

import sys
import threading
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from attrcap import attrnet, nncore
from attrcap.attrnet import (
    AttrNet,
    AttrNetConfig,
    AttrTrainConfig,
    JoinError,
    join_on_image_id,
    load_attrnet_ensemble,
    mse_loss,
    predict_ensemble,
    save_attrnet_ensemble,
    train_attrnet,
)
from attrcap.nncore import (
    AdamState,
    DimensionError,
    ParameterError,
    Rng,
    adam_step,
    batch_slices,
    ensemble_mean,
    train_members,
    xavier_init,
)
from attrcap.storage import FormatError, save_checkpoint

from gradcheck import gradient_check

SMALL = AttrNetConfig(n_words=3, feature_dim=6, hidden_dim=8, dropout=0.3)


def small_dataset(n=8, seed=0):
    rng = Rng(seed)
    x = rng.normal((n, SMALL.feature_dim))
    y = np.abs(rng.normal((n, SMALL.n_words)))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    return x, y


# ---------------------------------------------------------------------------
# mse_loss
# ---------------------------------------------------------------------------


def test_mse_zero_when_equal():
    pred = Rng(1).normal((4, 3))
    loss, dpred = mse_loss(pred, pred.copy())
    assert loss == 0.0
    assert not dpred.any()


def test_mse_constant_offset():
    target = Rng(2).normal((5, 4))
    loss, _ = mse_loss(target + 0.1, target)
    assert loss == pytest.approx(0.01, abs=1e-12)


def test_mse_hand_case():
    pred = np.array([[0.0], [1.0]])
    target = np.array([[1.0], [1.0]])
    loss, dpred = mse_loss(pred, target)
    assert loss == pytest.approx(0.5, abs=1e-15)
    assert np.allclose(dpred, [[-1.0], [0.0]])


def test_mse_shape_mismatch():
    with pytest.raises(DimensionError):
        mse_loss(np.zeros((2, 3)), np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# join_on_image_id
# ---------------------------------------------------------------------------


def test_join_orders_rows_by_feature_ids():
    feature_ids = [30, 10, 20]
    features = np.arange(6, dtype=np.float64).reshape(3, 2)
    attr_ids = [10, 20, 30]
    attrs = np.array([[0.1], [0.2], [0.3]])
    ids, x, y = join_on_image_id(feature_ids, features, attr_ids, attrs)
    assert ids == [30, 10, 20]
    assert np.array_equal(x, features)
    assert np.array_equal(y, np.array([[0.3], [0.1], [0.2]]))


def test_join_of_empty_tables_keeps_the_attribute_width():
    # Once np.stack's "need at least one array to stack".
    ids, x, y = join_on_image_id([], np.zeros((0, 2), np.float32), [], np.zeros((0, 3)))
    assert ids == [] and x.shape == (0, 2) and y.shape == (0, 3) and y.dtype == np.float64


def test_join_lists_missing_ids_both_ways():
    with pytest.raises(JoinError, match=r"not in the attribute table: \[3\]"):
        join_on_image_id([1, 3], np.zeros((2, 2)), [1, 9], np.zeros((2, 1)))
    with pytest.raises(JoinError, match=r"not in the feature table: \[9\]"):
        join_on_image_id([1, 3], np.zeros((2, 2)), [1, 9], np.zeros((2, 1)))


def test_join_rejects_duplicates():
    with pytest.raises(JoinError, match="duplicate"):
        join_on_image_id([1, 1], np.zeros((2, 2)), [1, 2], np.zeros((2, 1)))
    with pytest.raises(JoinError, match="duplicate"):
        join_on_image_id([1, 2], np.zeros((2, 2)), [2, 2], np.zeros((2, 1)))


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_forward_zero_weights_zero_output():
    net = AttrNet(SMALL, seed=0)
    for name in net.params:
        net.params[name] = np.zeros_like(net.params[name])
    x = Rng(3).normal((4, SMALL.feature_dim))
    assert not net.predict(x).any()
    out_train, _ = net.forward(x, mode="train", rng=Rng(1))
    assert not out_train.any()


def test_forward_outputs_non_negative():
    net = AttrNet(SMALL, seed=1)
    x = Rng(4).normal((16, SMALL.feature_dim)) * 5.0
    assert (net.predict(x) >= 0.0).all()


def test_forward_inference_deterministic():
    net = AttrNet(SMALL, seed=2)
    x = Rng(5).normal((3, SMALL.feature_dim))
    assert np.array_equal(net.predict(x), net.predict(x))


def test_forward_rejects_wrong_width():
    net = AttrNet(SMALL, seed=0)
    with pytest.raises(DimensionError, match="features of shape"):
        net.predict(np.zeros((2, SMALL.feature_dim + 1)))


def test_bias_layout_depends_on_output_bn():
    with_bn = AttrNet(SMALL, seed=0)
    assert "fc4.b" not in with_bn.params          # BN absorbs the bias
    assert "bn4.gamma" in with_bn.params
    no_bn_config = AttrNetConfig(n_words=3, feature_dim=6, hidden_dim=8,
                                 bn_on_output=False)
    without = AttrNet(no_bn_config, seed=0)
    assert "fc4.b" in without.params
    assert "bn4.gamma" not in without.params
    assert (without.predict(Rng(1).normal((2, 6))) >= 0).all()


@pytest.mark.parametrize("bn_on_output", [True, False])
def test_init_tensors_are_the_per_layer_draws(bn_on_output):
    # fc{k}.w is drawn from stream k of the seed; scales and running
    # variances are ones; shifts, the bias and running means are zeros.
    net = AttrNet(replace(SMALL, bn_on_output=bn_on_output), seed=9)
    dims = [6, 8, 8, 8, 3]
    root = Rng(9)
    want = {f"fc{k}.w": xavier_init(dims[k - 1], dims[k], root.split(k))
            for k in range(1, 5)}
    if not bn_on_output:
        want["fc4.b"] = np.zeros(3)
    for k in [1, 2, 3, 4] if bn_on_output else [1, 2, 3]:
        want.update({f"bn{k}.gamma": np.ones(dims[k]), f"bn{k}.beta": np.zeros(dims[k]),
                     f"bn{k}.running_mean": np.zeros(dims[k]),
                     f"bn{k}.running_var": np.ones(dims[k])})
    assert sorted(net.params) == sorted(name for name in want if ".running_" not in name)
    assert list(net.stats) == [name for name in want if ".running_" in name]
    for name, value in net.tensors().items():
        assert value.dtype == np.float64 and np.array_equal(value, want[name]), name


@pytest.mark.parametrize("bn_on_output", [True, False])
def test_constructor_rejects_tensors_outside_the_layout(bn_on_output):
    config = replace(SMALL, bn_on_output=bn_on_output)
    net = AttrNet(config, seed=0)
    params, stats = net.params, net.stats
    other = AttrNet(replace(config, bn_on_output=not bn_on_output), seed=0)
    bad_params = [
        {k: v for k, v in params.items() if k != "bn1.beta"},        # missing
        {**params, "fc5.w": params["fc4.w"]},                         # unknown
        {**params, "fc2.w": params["fc2.w"][:, :-1]},                 # misshapen
        {**params, "bn1.running_mean": stats["bn1.running_mean"]},    # a statistic
        other.params,                                                 # other layout
    ]
    bad_stats = [
        {k: v for k, v in stats.items() if k != "bn3.running_var"},   # missing
        {**stats, "bn1.gamma": params["bn1.gamma"]},                  # a parameter
        {**stats, "bn2.running_mean": np.zeros(SMALL.hidden_dim + 1)},  # misshapen
        other.stats,                                                  # other layout
    ]
    for bad in bad_params:
        with pytest.raises(DimensionError, match="parameters"):
            AttrNet(config, params=bad, stats=stats)
    for bad in bad_stats:
        with pytest.raises(DimensionError, match="running statistics"):
            AttrNet(config, params=params, stats=bad)
    with pytest.raises(DimensionError, match="bn1.beta"):
        AttrNet(config, params=bad_params[0], stats=stats)
    rebuilt = AttrNet(config, params=params, stats=stats)
    assert rebuilt.params is params and rebuilt.stats is stats


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def test_gradients_with_frozen_bn():
    config = AttrNetConfig(n_words=4, feature_dim=5, hidden_dim=6, dropout=0.0)
    net = AttrNet(config, seed=3)
    x, y = Rng(6).normal((5, 5)), np.abs(Rng(7).normal((5, 4)))
    err = gradient_check(
        lambda p: AttrNet(config, params=p, stats=net.stats).loss(
            x, y, mode="inference"), net.params,
    )
    assert err < 1e-4


def test_gradients_with_train_mode_bn_fixed_batch():
    config = AttrNetConfig(n_words=4, feature_dim=5, hidden_dim=6, dropout=0.0)
    net = AttrNet(config, seed=5)
    x, y = Rng(8).normal((6, 5)), np.abs(Rng(9).normal((6, 4)))
    err = gradient_check(
        lambda p: AttrNet(config, params=p, stats=net.stats).loss(
            x, y, mode="train"), net.params,
    )
    assert err < 1e-4


def reference_loss(net, x, target, mode, rng):
    """Loss, gradients, output and running statistics by the layer-wrapper
    formulas: every layer adds a bias, all-zero in front of batch
    normalization, ReLU keeps its input as the backward mask, and batch
    normalization folds in statistics with momentum 0.9 and eps 1e-5."""
    p, rate = net.params, net.config.dropout
    stats = {k: (net.stats[f"bn{k}.running_mean"], net.stats[f"bn{k}.running_var"])
             for k in net._bn_layers}
    caches, out = [], x
    for k in range(1, 5):
        w = p[f"fc{k}.w"]
        layer_in, out = out, out @ w + p.get(f"fc{k}.b", np.zeros(w.shape[1]))
        bn = None
        if k in stats:
            mean, var = stats[k]
            if mode == "train":
                mean, var = out.mean(axis=0), out.var(axis=0)
                stats[k] = tuple(0.9 * old + (1.0 - 0.9) * new
                                 for old, new in zip(stats[k], (mean, var)))
            inv_std = 1.0 / np.sqrt(var + 1e-5)
            bn = ((out - mean) * inv_std, inv_std)
            out = p[f"bn{k}.gamma"] * bn[0] + p[f"bn{k}.beta"]
        pre, out = out, np.maximum(out, 0.0)
        mask = None
        if k < 4 and mode == "train":
            mask = (rng.uniform(out.shape) >= rate).astype(np.float64)
            out = out * mask * (1.0 / (1.0 - rate))
        caches.append((layer_in, w, bn, pre, mask))
    diff = out - target
    loss, dout = float(np.mean(diff * diff)), (2.0 / diff.size) * diff
    grads = {}
    for k in range(4, 0, -1):
        layer_in, w, bn, pre, mask = caches[k - 1]
        if mask is not None:
            dout = dout * mask * (1.0 / (1.0 - rate))
        dout = dout * (pre > 0.0)
        if bn is not None:
            x_hat, inv_std = bn
            grads[f"bn{k}.gamma"] = (dout * x_hat).sum(axis=0)
            grads[f"bn{k}.beta"] = dout.sum(axis=0)
            dx_hat, n = dout * p[f"bn{k}.gamma"], dout.shape[0]
            dout = dx_hat * inv_std if mode == "inference" else (inv_std / n) * (
                n * dx_hat - dx_hat.sum(axis=0) - x_hat * (dx_hat * x_hat).sum(axis=0))
        dx, grads[f"fc{k}.w"], db = dout @ w.T, layer_in.T @ dout, dout.sum(axis=0)
        if bn is None:
            grads[f"fc{k}.b"] = db
        dout = dx
    return loss, grads, out, stats


@pytest.mark.parametrize("mode", ["train", "inference"])
@pytest.mark.parametrize("bn_on_output", [True, False])
def test_forward_backward_are_bitwise_the_layer_wrapper_formulas(mode, bn_on_output):
    config = AttrNetConfig(n_words=7, feature_dim=9, hidden_dim=16, dropout=0.3,
                           bn_on_output=bn_on_output)
    net = AttrNet(config, seed=4)
    rng = Rng(40)
    # Away from the initial values, so no bias, shift or scale is trivial.
    net.params = {name: value + 0.1 * rng.split(len(name)).normal(value.shape)
                  for name, value in net.params.items()}
    for k in net._bn_layers:
        shape = net.stats[f"bn{k}.running_mean"].shape
        net.stats[f"bn{k}.running_mean"] = rng.split(100 + k).normal(shape)
        net.stats[f"bn{k}.running_var"] = 0.5 + rng.split(200 + k).uniform(shape)
    x, y = rng.split(1).normal((12, 9)), np.abs(rng.split(2).normal((12, 7)))

    ref_loss, ref_grads, ref_out, ref_stats = reference_loss(net, x, y, mode, Rng(41))
    out, caches = net.forward(x, mode=mode, rng=Rng(41))
    loss, dpred = mse_loss(out, y)
    grads = net.backward(dpred, caches)
    assert out.tobytes() == ref_out.tobytes()
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    assert sorted(grads) == sorted(ref_grads) == sorted(net.params)
    for name, grad in grads.items():
        assert grad.tobytes() == ref_grads[name].tobytes(), name
    for k in net._bn_layers:
        assert net.stats[f"bn{k}.running_mean"].tobytes() == ref_stats[k][0].tobytes()
        assert net.stats[f"bn{k}.running_var"].tobytes() == ref_stats[k][1].tobytes()
    _, _, ref_pred, _ = reference_loss(net, x, y, "inference", None)
    assert net.predict(x).tobytes() == ref_pred.tobytes()


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def test_batch_slices_cover_and_merge_singleton():
    def slices(n, batch_size):
        return batch_slices(n, batch_size, min_size=2)

    assert slices(8, 3) == [(0, 3), (3, 6), (6, 8)]
    assert slices(5, 2) == [(0, 2), (2, 5)]  # trailing 1 merged
    assert slices(4, 2) == [(0, 2), (2, 4)]
    assert slices(2, 128) == [(0, 2)]
    assert slices(1, 4) == [(0, 1)]
    assert batch_slices(5, 2) == [(0, 2), (2, 4), (4, 5)]  # min_size=1 keeps it
    assert batch_slices(0, 3) == []
    assert batch_slices(6, 3) == [(0, 3), (3, 6)]
    assert batch_slices(4, 9) == [(0, 4)]
    with pytest.raises(ParameterError):
        slices(4, 0)


def test_train_zero_epochs_returns_initialization():
    x, y = small_dataset()
    config = AttrTrainConfig(epochs=0, seed=11)
    net, losses = train_attrnet(x, y, SMALL, config)
    assert losses == []
    fresh = AttrNet(SMALL, seed=Rng(11).split(0).seed)
    for name in fresh.params:
        assert np.array_equal(net.params[name], fresh.params[name])


def test_train_same_seed_is_bitwise_reproducible():
    x, y = small_dataset()
    config = AttrTrainConfig(epochs=5, batch_size=4, seed=21)
    net1, losses1 = train_attrnet(x, y, SMALL, config)
    net2, losses2 = train_attrnet(x, y, SMALL, config)
    assert losses1 == losses2
    for name in net1.params:
        assert np.array_equal(net1.params[name], net2.params[name])
    for k in net1._bn_layers:
        assert np.array_equal(net1.stats[f"bn{k}.running_mean"],
                              net2.stats[f"bn{k}.running_mean"])


def test_train_different_seeds_differ():
    x, y = small_dataset()
    net1, _ = train_attrnet(x, y, SMALL, AttrTrainConfig(epochs=2, seed=1))
    net2, _ = train_attrnet(x, y, SMALL, AttrTrainConfig(epochs=2, seed=2))
    assert any(
        not np.array_equal(net1.params[name], net2.params[name])
        for name in net1.params
    )


def test_train_loss_decreases_on_small_set():
    # Minibatches (not the full set at once) matter here: the batch-stat
    # and dropout noise lets training leave the flat regions that an
    # entirely deterministic gradient descent can settle in.
    x, y = small_dataset()
    config = AttrTrainConfig(learning_rate=1e-2, batch_size=4, epochs=300,
                             seed=31)
    net, losses = train_attrnet(x, y, SMALL, config)
    assert losses[-1] < 0.3 * losses[0]
    pred_mse = float(np.mean((net.predict(x) - y) ** 2))
    assert pred_mse < 0.3 * losses[0]


def test_train_rejects_row_mismatch_and_tiny_sets():
    with pytest.raises(DimensionError):
        train_attrnet(np.zeros((3, 6)), np.zeros((2, 3)), SMALL,
                      AttrTrainConfig(epochs=1))
    with pytest.raises(ParameterError, match="at least 2"):
        train_attrnet(np.zeros((1, 6)), np.zeros((1, 3)), SMALL,
                      AttrTrainConfig(epochs=1))


def training_peak_in_parameter_sets():
    """Peak ``tracemalloc`` bytes of 3 training steps at width 512, in
    sets of the trained parameters."""
    config = AttrNetConfig(n_words=512, feature_dim=512, hidden_dim=512)
    rng = Rng(47)
    x = rng.normal((24, config.feature_dim))
    y = np.abs(rng.normal((24, config.n_words)))
    train_config = AttrTrainConfig(batch_size=8, epochs=1, seed=5)
    assert len(batch_slices(24, train_config.batch_size, min_size=2)) == 3
    tracemalloc.start()
    try:
        net, _ = train_attrnet(x, y, config, train_config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / sum(value.nbytes for value in net.params.values())


def test_training_holds_three_parameter_sets_and_one_layers_gradients():
    # The parameters, Adam's two moments and one layer's gradients: Adam
    # writes into the parameters as soon as the backward pass yields a
    # layer's gradients, which are dropped before the next layer's are
    # built. The four weight matrices are alike at these shapes, so one
    # layer's gradients are a quarter of a set; another quarter covers a
    # batch's activations and Adam's scratch. Three batches, so two
    # steps' gradients could overlap. One slab covers each weight here.
    assert 512 * 512 <= attrnet._GRAD_SLAB
    assert 3.25 <= training_peak_in_parameter_sets() < 3.5


def test_training_holds_three_parameter_sets_and_one_row_slab(monkeypatch):
    # With slabs of a quarter of a weight, a step's gradients are a
    # sixteenth of a set; so is Adam's scratch (2 * _CHUNK floats), and
    # a batch's activations are small beside them.
    monkeypatch.setattr(attrnet, "_GRAD_SLAB", 512 * 512 // 4)
    assert training_peak_in_parameter_sets() < 3.25


def reference_train(x, y, net_config, train_config):
    """The training loop that computes every gradient of a batch with
    :meth:`AttrNet.loss` before one whole-dict Adam step; returns the
    net, the epoch losses and the Adam state."""
    root = Rng(train_config.seed)
    net = AttrNet(net_config, seed=root.split(0).seed)
    adam = AdamState(learning_rate=train_config.learning_rate)
    losses = []
    for epoch in range(train_config.epochs):
        epoch_rng = root.split(epoch + 1)
        order = epoch_rng.permutation(len(x))
        total = 0.0
        for start, stop in batch_slices(len(x), train_config.batch_size, min_size=2):
            batch = order[start:stop]
            loss, grads = net.loss(x[batch], y[batch], mode="train", rng=epoch_rng)
            adam_step(net.params, grads, adam)
            total += loss * len(batch)
        losses.append(total / len(x))
    return net, losses, adam


@pytest.mark.parametrize("bn_on_output", [True, False])
def test_per_layer_training_is_bitwise_the_whole_step_loop(monkeypatch, bn_on_output):
    config = replace(SMALL, bn_on_output=bn_on_output)
    assert config.dropout > 0.0
    x, y = small_dataset(n=11)
    train_config = AttrTrainConfig(learning_rate=0.02, batch_size=4, epochs=6, seed=61)
    ref_net, ref_losses, ref_adam = reference_train(x, y, config, train_config)
    states = []
    monkeypatch.setattr(attrnet, "AdamState",
                        lambda **kwargs: states.append(AdamState(**kwargs)) or states[-1])
    net, losses = train_attrnet(x, y, config, train_config)
    (adam,) = states
    assert np.array(losses).tobytes() == np.array(ref_losses).tobytes()
    assert adam.step == ref_adam.step == 6 * 3
    assert sorted(net.params) == sorted(ref_net.params)
    for name in net.params:
        assert net.params[name].tobytes() == ref_net.params[name].tobytes(), name
        assert adam.moment1[name].tobytes() == ref_adam.moment1[name].tobytes(), name
        assert adam.moment2[name].tobytes() == ref_adam.moment2[name].tobytes(), name
    assert sorted(net.stats) == sorted(ref_net.stats)
    for k in net._bn_layers:
        for name in (f"bn{k}.running_mean", f"bn{k}.running_var"):
            assert net.stats[name].tobytes() == ref_net.stats[name].tobytes()


# Every weight of these shapes spans 3 or 4 row slabs of ``SLAB``
# elements, the last one short, and a slab spans more than one of Adam's
# blocks on two or three workers.
SLABBED = AttrNetConfig(n_words=420, feature_dim=310, hidden_dim=300, dropout=0.3)
SLAB = 40000


def slab_train(monkeypatch, config, seed=62, epochs=4):
    """``train_attrnet`` with weight gradients in row slabs of ``SLAB``
    elements, over ``epochs`` epochs of 3 batches; returns the net, the epoch
    losses, the Adam state, the arguments of the training call and the
    row ranges applied to each weight."""
    rng = Rng(seed)
    x = rng.normal((20, config.feature_dim))
    y = np.abs(rng.normal((20, config.n_words)))
    train_config = AttrTrainConfig(learning_rate=0.01, batch_size=8, epochs=epochs, seed=seed)
    monkeypatch.setattr(attrnet, "_GRAD_SLAB", SLAB)
    states, ranges = [], {}
    monkeypatch.setattr(attrnet, "AdamState",
                        lambda **kwargs: states.append(AdamState(**kwargs)) or states[-1])

    def recording_adam_step(params, groups, state):
        def recorded():
            for group in groups:
                for key in group:
                    if isinstance(key, tuple):
                        ranges.setdefault(key[0], set()).add(key[1:])
                yield group
        adam_step(params, recorded(), state)

    monkeypatch.setattr(attrnet, "adam_step", recording_adam_step)
    net, losses = train_attrnet(x, y, config, train_config)
    (adam,) = states
    return net, losses, adam, (x, y, config, train_config), ranges


def assert_within_1e_10_of_the_whole_step_loop(net, losses, adam, inputs):
    """The outcome of :func:`slab_train` against :func:`reference_train`
    of the same inputs."""
    ref_net, ref_losses, ref_adam = reference_train(*inputs)

    def close(got, want):
        return np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    assert close(np.array(losses), np.array(ref_losses))
    assert adam.step == ref_adam.step == 3 * len(losses)
    ref_tensors = ref_net.tensors()
    assert sorted(net.tensors()) == sorted(ref_tensors)
    for name, tensor in net.tensors().items():
        assert close(tensor, ref_tensors[name]), name
    for name in net.params:
        assert close(adam.moment1[name], ref_adam.moment1[name]), name
        assert close(adam.moment2[name], ref_adam.moment2[name]), name


@pytest.mark.parametrize("bn_on_output", [True, False])
def test_row_slab_training_is_within_1e_10_of_the_whole_step_loop(monkeypatch, bn_on_output):
    config = replace(SLABBED, bn_on_output=bn_on_output)
    net, losses, adam, inputs, ranges = slab_train(monkeypatch, config)
    for k in range(1, 5):
        rows = net.params[f"fc{k}.w"].shape[0]
        spans = sorted(ranges[f"fc{k}.w"])
        size = spans[0][1]
        assert spans == [(start, min(start + size, rows)) for start in range(0, rows, size)]
        assert len(spans) >= 3 and rows % size
    assert_within_1e_10_of_the_whole_step_loop(net, losses, adam, inputs)


# Cuts every product of SLABBED (300, 310 and 420 columns wide) into 3 or
# 4 panels, the last one short.
PANEL = 128


@pytest.mark.parametrize("bn_on_output", [True, False])
def test_panelled_training_is_within_1e_10_of_the_whole_product_loop(monkeypatch, bn_on_output):
    config = replace(SLABBED, bn_on_output=bn_on_output)
    net = AttrNet(config, seed=63)
    x, y = Rng(64).normal((8, config.feature_dim)), np.abs(Rng(65).normal((8, config.n_words)))

    def loss_and_grads():
        return net.loss(x, y, rng=Rng(66))

    with monkeypatch.context() as patch:
        patch.setattr(nncore, "_PANEL", PANEL)
        loss, grads = loss_and_grads()
        # Adam's steps, normalized per element, carry the products' last
        # digits into the parameters faster than a fixed step would: one
        # epoch of three steps stays within the bound.
        trained = slab_train(patch, config, epochs=1)
    # Every product of the references is whole.
    assert max(config.feature_dim, config.hidden_dim, config.n_words) <= nncore._PANEL
    ref_loss, ref_grads = loss_and_grads()
    assert abs(loss - ref_loss) <= 1e-10 * ref_loss
    for name, grad in grads.items():
        assert np.abs(grad - ref_grads[name]).max() <= 1e-10 * np.abs(ref_grads[name]).max()
    net, losses, adam, inputs, _ = trained
    assert_within_1e_10_of_the_whole_step_loop(net, losses, adam, inputs)


def slab_train_runs(monkeypatch, pool_of, config):
    """The outcome of :func:`slab_train` on pools of 1, 2 and 3 workers
    and a rerun on 2, as bytes, switching threads as often as possible."""
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3, 2):  # the last one a rerun
            pool_of(workers)
            net, losses, adam, _, _ = slab_train(monkeypatch, config)
            runs.append([np.array(losses).tobytes(), adam.step]
                        + [tensor.tobytes() for tensor in net.tensors().values()]
                        + [m.tobytes() for m in adam.moment1.values()]
                        + [v.tobytes() for v in adam.moment2.values()])
    finally:
        sys.setswitchinterval(interval)
    return runs


@pytest.mark.parametrize("bn_on_output", [True, False])
def test_row_slab_training_is_bitwise_the_same_for_any_worker_count(
        monkeypatch, pool_of, bn_on_output):
    runs = slab_train_runs(monkeypatch, pool_of, replace(SLABBED, bn_on_output=bn_on_output))
    assert all(run == runs[0] for run in runs[1:])


@pytest.mark.parametrize("bn_on_output", [True, False])
def test_panelled_training_is_bitwise_the_same_for_any_worker_count(
        monkeypatch, pool_of, bn_on_output):
    monkeypatch.setattr(nncore, "_PANEL", PANEL)
    runs = slab_train_runs(monkeypatch, pool_of, replace(SLABBED, bn_on_output=bn_on_output))
    assert all(run == runs[0] for run in runs[1:])


@pytest.mark.parametrize("bn_on_output", [True, False])
def test_backward_groups_write_weight_gradients_into_the_buffer(bn_on_output):
    config = AttrNetConfig(n_words=5, feature_dim=7, hidden_dim=9, dropout=0.3,
                           bn_on_output=bn_on_output)
    net = AttrNet(config, seed=8)
    x, y = Rng(9).normal((6, 7)), np.abs(Rng(10).normal((6, 5)))

    def backward_of(run):
        pred, caches = net.forward(x, mode="train", rng=Rng(11))
        return run(mse_loss(pred, y)[1], caches)

    fresh = backward_of(net.backward)
    # ``backward`` merges the groups, so its arrays are independent.
    weights = {name: grad for name, grad in fresh.items() if name.endswith(".w")}
    assert not any(np.shares_memory(a, b) for a in weights.values()
                   for b in weights.values() if a is not b)
    whole = max(w.size for w in weights.values())
    # One slab per weight, then slabs of 1 to 4 rows, the last ones short.
    for size in (whole, 20):
        buffer = np.full(size, np.nan)
        seen, covered, slabs = [], {}, 0
        for group in backward_of(lambda dout, caches: net.backward_groups(dout, caches, buffer)):
            ((name, start, stop),) = [key for key in group if isinstance(key, tuple)]
            slab, want = group[name, start, stop], weights[name][start:stop]
            # Valid until the next group is asked for, which overwrites it.
            assert np.shares_memory(slab, buffer)
            assert covered.get(name, 0) == start < stop
            covered[name] = stop
            if size == whole:
                assert slab.tobytes() == want.tobytes(), name
            else:
                assert np.abs(slab - want).max() <= 1e-10 * np.abs(weights[name]).max()
            for grad_name in set(group) - {(name, start, stop)}:
                assert group[grad_name].tobytes() == fresh[grad_name].tobytes(), grad_name
                seen.append(grad_name)
            slabs += 1
        assert covered == {name: len(w) for name, w in weights.items()}
        assert sorted(seen + list(covered)) == sorted(net.params)
        assert slabs == (4 if size == whole else 4 + 5 + 5 + 3)


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


class _StubNet:
    def __init__(self, value, n_words=2):
        self.value = value
        self.n_words = n_words

    def predict(self, x):
        return np.full((len(x), self.n_words), self.value)

    def forward(self, x, mode="inference"):
        return self.predict(x), []


def test_predict_ensemble_two_members_average():
    x = np.zeros((3, 4))
    out = predict_ensemble([_StubNet(0.2), _StubNet(0.4)], x)
    assert np.allclose(out, 0.3, atol=1e-15)


def test_predict_ensemble_of_one_is_bitwise_identical():
    x, _ = small_dataset()
    net, _ = train_attrnet(*small_dataset(), SMALL,
                           AttrTrainConfig(epochs=2, seed=41))
    assert np.array_equal(predict_ensemble([net], x), net.predict(x))


def test_predict_ensemble_identical_members_bitwise_identical():
    x, _ = small_dataset()
    net, _ = train_attrnet(*small_dataset(), SMALL,
                           AttrTrainConfig(epochs=2, seed=41))
    for k in [2, 5]:
        out = predict_ensemble([net] * k, x)
        assert np.array_equal(out, net.predict(x))


def test_predict_ensemble_fills_one_buffer_member_by_member():
    # The members' K predictions, which the mean reduces in place, and
    # its one scratch matrix: K + 1 prediction matrices, where stacking
    # them first holds 2K.
    x = np.zeros((500, 4))
    nets = [_StubNet(0.25 * (k + 1), n_words=400) for k in range(3)]
    want = ensemble_mean(np.stack([net.predict(x) for net in nets]))
    tracemalloc.start()
    try:
        got = predict_ensemble(nets, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert peak < 4.5 * want.nbytes


def test_predict_ensemble_is_bitwise_the_mean_of_the_stacked_predictions():
    x, _ = small_dataset()
    nets = [AttrNet(SMALL, seed=k) for k in range(3)]
    want = ensemble_mean(np.stack([net.predict(x) for net in nets]))
    assert predict_ensemble(nets, x).tobytes() == want.tobytes()


def test_predict_ensemble_needs_members():
    with pytest.raises(ParameterError):
        predict_ensemble([], np.zeros((1, 6)))


BLOCK = attrnet._PREDICT_BLOCK


def trained_like_nets(k_members, config=None):
    """Members with perturbed weights and batch-norm statistics, so no
    layer of an inference pass is trivial."""
    config = config or AttrNetConfig(n_words=40, feature_dim=48, hidden_dim=64)
    nets = []
    for k in range(k_members):
        net = AttrNet(config, seed=30 + k)
        rng = Rng(50 + k)
        net.params = {name: value + 0.1 * rng.split(len(name)).normal(value.shape)
                      for name, value in net.params.items()}
        for j in net._bn_layers:
            shape = net.stats[f"bn{j}.running_mean"].shape
            net.stats[f"bn{j}.running_mean"] = rng.split(100 + j).normal(shape)
            net.stats[f"bn{j}.running_var"] = 0.5 + rng.split(200 + j).uniform(shape)
        nets.append(net)
    return nets


def whole_matrix_ensemble(nets, x):
    """One inference pass per member over all rows, then the mean: what
    the block-wise prediction replaced."""
    return ensemble_mean(np.stack([net.forward(x, mode="inference")[0] for net in nets]))


def test_predict_ensemble_beyond_one_block_is_within_1e_10_of_whole_matrix_passes():
    nets = trained_like_nets(3)
    x = Rng(31).normal((2 * BLOCK + 77, 48)) * 3.0
    want = whole_matrix_ensemble(nets, x)
    got = predict_ensemble(nets, x)
    assert got.shape == want.shape == (2 * BLOCK + 77, 40)
    scale = np.abs(want).max(axis=1, keepdims=True)
    assert (np.abs(got - want) <= 1e-10 * scale).all()
    # Up to one block it is the whole-matrix result, bit for bit.
    for rows in (x[:BLOCK], x[:350], x[:1], x[:0]):
        assert predict_ensemble(nets, rows).tobytes() == (
            whole_matrix_ensemble(nets, rows).tobytes())


@pytest.mark.parametrize("workers", [2, 3])
def test_predict_ensemble_is_bitwise_the_same_for_any_worker_count(pool_of, workers):
    nets = trained_like_nets(3)
    x = Rng(32).normal((3 * BLOCK + 5, 48)) * 3.0
    predictions = []
    for n in (1, workers):
        pool_of(n)
        predictions.append(predict_ensemble(nets, x).tobytes())
        # The one-member identity holds block by block.
        for net in nets:
            assert predict_ensemble([net], x).tobytes() == net.predict(x).tobytes()
    assert predictions[0] == predictions[1]


def test_panelled_predict_ensemble_is_bitwise_the_same_for_any_worker_count(
        monkeypatch, pool_of):
    # Panels of 16 columns cut the members' 64- and 40-column products.
    monkeypatch.setattr(nncore, "_PANEL", 16)
    nets = trained_like_nets(3)
    x = Rng(33).normal((BLOCK + 5, 48)) * 3.0
    predictions = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3, 2):  # the last one a rerun
            pool_of(workers)
            predictions.append(predict_ensemble(nets, x).tobytes())
    finally:
        sys.setswitchinterval(interval)
    assert all(p == predictions[0] for p in predictions[1:])


def test_predict_ensemble_runs_each_members_forward_on_the_calling_thread(
        monkeypatch, pool_of):
    pool_of(2)
    threads = []
    forward = AttrNet.forward

    def recording_forward(self, x, mode="inference", rng=None):
        threads.append(threading.get_ident())
        return forward(self, x, mode, rng)

    monkeypatch.setattr(AttrNet, "forward", recording_forward)
    predict_ensemble(trained_like_nets(3), Rng(34).normal((BLOCK + 5, 48)))
    # Three members over two blocks.
    assert threads == [threading.get_ident()] * 6


def test_predict_ensemble_memory_beyond_the_output_does_not_grow_with_rows(pool_of):
    config = AttrNetConfig(n_words=64, feature_dim=32, hidden_dim=256)
    nets = trained_like_nets(2, config)

    def peak_and_beyond_output(n):
        x = Rng(n).normal((n, config.feature_dim))
        tracemalloc.start()
        try:
            out = predict_ensemble(nets, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, peak - out.nbytes

    small_objects = 2 ** 16
    pool_of(1)
    # A prediction of one block is member 0's own output; beyond one
    # block the output is an array of its own, and all else that is held
    # (each member's block output and activations) stays the same.
    one_block, _ = peak_and_beyond_output(BLOCK)
    _, two_blocks = peak_and_beyond_output(2 * BLOCK)
    _, eight_blocks = peak_and_beyond_output(8 * BLOCK)
    assert eight_blocks <= two_blocks + small_objects
    assert eight_blocks <= one_block + small_objects
    # Members at once hold at most each member's share together.
    pool_of(2)
    peak_and_beyond_output(2)  # starts the pool's threads
    _, at_once = peak_and_beyond_output(8 * BLOCK)
    assert at_once <= len(nets) * one_block + small_objects


def test_stored_float32_rows_train_and_predict_bitwise_as_their_widening(stored_rows):
    # Each model widens the rows it computes on, so the rows as stored
    # and their float64 widening are the same input, bit for bit.
    x, y = small_dataset(n=9)
    rows = stored_rows(x)
    config = AttrTrainConfig(epochs=3, batch_size=4, seed=21)
    runs = []
    for inputs in (rows, rows.astype(np.float64)):
        net, losses = train_attrnet(inputs, y, SMALL, config)
        runs.append((losses, {name: value.tobytes() for name, value in net.tensors().items()}))
    assert runs[1] == runs[0]
    # Beyond one block, each block is widened on its own.
    nets = trained_like_nets(3)
    rows = stored_rows(Rng(35).normal((2 * BLOCK + 77, 48)) * 3.0)
    assert predict_ensemble(nets, rows).tobytes() == (
        predict_ensemble(nets, rows.astype(np.float64)).tobytes())


def train_ensemble(x, y, config, n_members):
    """Members trained by the shared member loop, as the CLI trains them."""
    results = train_members(n_members, config.seed, lambda seed: (
        train_attrnet(x, y, SMALL, replace(config, seed=seed))))
    return [net for net, _ in results]


def test_train_ensemble_members_differ_and_reproduce():
    x, y = small_dataset()
    config = AttrTrainConfig(epochs=2, batch_size=4, seed=51)
    members = train_ensemble(x, y, config, 2)
    assert len(members) == 2
    assert any(
        not np.array_equal(members[0].params[n], members[1].params[n])
        for n in members[0].params
    )
    again = train_ensemble(x, y, config, 2)
    for a, b in zip(members, again):
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])
    # Member m trains with seed Rng(seed).split(m + 1).seed.
    second, _ = train_attrnet(x, y, SMALL,
                              replace(config, seed=Rng(51).split(2).seed))
    for name in second.params:
        assert np.array_equal(members[1].params[name], second.params[name])


def test_train_ensemble_rejects_zero_members():
    x, y = small_dataset()
    with pytest.raises(ParameterError):
        train_ensemble(x, y, AttrTrainConfig(epochs=1), 0)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_attrnet_checkpoint_round_trip(tmp_path):
    x, y = small_dataset()
    net, _ = train_attrnet(x, y, SMALL, AttrTrainConfig(epochs=3, seed=61))
    path = tmp_path / "attr.ckpt"
    save_attrnet_ensemble(path, [net], extra_meta={"seed": 61})
    [loaded] = load_attrnet_ensemble(path)
    assert loaded.config == net.config
    for name in net.params:
        assert np.array_equal(loaded.params[name], net.params[name])
    for k in net._bn_layers:
        assert np.array_equal(loaded.stats[f"bn{k}.running_mean"],
                              net.stats[f"bn{k}.running_mean"])
        assert np.array_equal(loaded.stats[f"bn{k}.running_var"],
                              net.stats[f"bn{k}.running_var"])
    assert np.array_equal(loaded.predict(x), net.predict(x))


@pytest.mark.parametrize("bn_on_output", [True, False])
def test_tensors_keep_the_checkpoint_order(tmp_path, bn_on_output):
    # The parameters as built, then each batch-normalized layer's running
    # mean and variance; a loaded member keeps the same order.
    net = AttrNet(replace(SMALL, bn_on_output=bn_on_output), seed=3)
    bn_layers = [1, 2, 3, 4] if bn_on_output else [1, 2, 3]
    want = [f"fc{k}.w" for k in range(1, 5)] + ([] if bn_on_output else ["fc4.b"])
    want += [f"bn{k}.{name}" for k in bn_layers for name in ("gamma", "beta")]
    want += [f"bn{k}.{name}" for k in bn_layers
             for name in ("running_mean", "running_var")]
    assert list(net.tensors()) == want
    save_attrnet_ensemble(tmp_path / "attr.ckpt", [net])
    [loaded] = load_attrnet_ensemble(tmp_path / "attr.ckpt")
    assert list(loaded.tensors()) == want


def test_attrnet_ensemble_checkpoint_round_trip(tmp_path):
    x, y = small_dataset()
    members = train_ensemble(x, y, AttrTrainConfig(epochs=2, seed=71), 3)
    path = tmp_path / "ens.ckpt"
    save_attrnet_ensemble(path, members)
    loaded = load_attrnet_ensemble(path)
    assert len(loaded) == 3
    assert np.array_equal(predict_ensemble(loaded, x),
                          predict_ensemble(members, x))


def test_load_attrnet_ensemble_accepts_single_checkpoint(tmp_path):
    x, y = small_dataset()
    net, _ = train_attrnet(x, y, SMALL, AttrTrainConfig(epochs=1, seed=81))
    path = tmp_path / "single.ckpt"
    # The legacy single-model layout: unprefixed tensors, kind "attrnet".
    save_checkpoint(path, net.tensors(),
                    {"kind": "attrnet", "net": asdict(net.config)})
    loaded = load_attrnet_ensemble(path)
    assert len(loaded) == 1
    assert np.array_equal(loaded[0].predict(x), net.predict(x))


def test_load_attrnet_rejects_foreign_checkpoint(tmp_path):
    path = tmp_path / "other.ckpt"
    save_checkpoint(path, {"w": np.zeros((2, 2))}, {"kind": "mystery"})
    with pytest.raises(FormatError, match="not an attrnet checkpoint"):
        load_attrnet_ensemble(path)
