"""Feed-forward attribute predictor.

The network maps a fixed-length image feature vector to the attribute
vector space: four fully connected layers, each followed by batch
normalization and ReLU, with dropout after the first three. The final
ReLU keeps predictions non-negative, matching the non-negative target
vectors. Batch normalization on the output layer can be disabled via
configuration; it is on by default.

Training minimizes mean squared error with Adam, which applies each
row slab of a layer's weight gradient as soon as the backward pass
computes it, so a step holds the parameters, the two moments and one
row slab of one weight gradient; its forward pass caches the ReLU and
dropout masks as boolean arrays. There is no gradient clipping, so no
step needs the gradients all at once. The dataset is the inner join of
a feature table and an attribute table on ``image_id``; any mismatch
between the two id sets is a hard error, because silent misalignment of
rows would corrupt training undetectably.

Every matrix product runs in fixed column panels on the worker pool
(:func:`attrcap.nncore.matmul`), in training and in prediction alike.
Prediction runs over fixed blocks of rows, an ensemble's members one
after another on the calling thread, so its memory beyond the output
does not grow with the number of images.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nncore
from .nncore import (
    AdamState,
    DimensionError,
    ParameterError,
    Rng,
    adam_step,
    batch_slices,
    batchnorm_backward,
    batchnorm_forward,
    check_settings,
    check_shapes,
    dropout_backward,
    dropout_forward,
    xavier_init,
)

__all__ = [
    "AttrNet",
    "AttrNetConfig",
    "AttrTrainConfig",
    "JoinError",
    "join_on_image_id",
    "mse_loss",
    "predict_ensemble",
    "train_attrnet",
]

_N_LAYERS = 4
# Rows per block of a prediction: bounds the activations that each
# member holds at once, and with them the memory of ``predict-attr``.
_PREDICT_BLOCK = 512
# Elements per row slab of a weight gradient in training (4 MiB of
# float64): bounds the gradient memory that a step holds at once.
_GRAD_SLAB = 16 * nncore._CHUNK
# Name endings of the batch-norm running statistics, kept in ``AttrNet.stats``.
_STATS = (".running_mean", ".running_var")


class JoinError(ValueError):
    """Raised when feature and attribute tables disagree on image ids."""


@dataclass
class AttrNetConfig:
    """Architecture of the attribute predictor."""

    n_words: int
    feature_dim: int = 2048
    hidden_dim: int = 2048
    dropout: float = 0.3
    bn_on_output: bool = True

    def __post_init__(self):
        check_settings(self, at_least_one=("n_words", "feature_dim", "hidden_dim"),
                       fractions=("dropout",))


@dataclass
class AttrTrainConfig:
    """Optimization settings for :func:`train_attrnet`."""

    learning_rate: float = 3e-3
    batch_size: int = 128
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        # Every training batch is batch-normalized, which needs two rows.
        check_settings(self, at_least_two=("batch_size",),
                       non_negative=("learning_rate", "epochs"))


def mse_loss(pred, target):
    """Mean squared error over all elements; returns ``(loss, dpred)``."""
    if pred.shape != target.shape:
        raise DimensionError(
            f"prediction shape {pred.shape} does not match target {target.shape}"
        )
    diff = pred - target
    loss = float(np.mean(diff * diff))
    dpred = (2.0 / diff.size) * diff
    return loss, dpred


def join_on_image_id(feature_ids, features, attr_ids, attrs,
                     names=("the feature table", "the attribute table")):
    """Align feature rows with attribute rows by image id.

    Returns ``(ids, x, y)`` ordered like ``feature_ids``. The two id
    sets must match exactly; the error message names the two tables by
    ``names`` and lists the ids that each of them lacks.
    """
    feature_name, attr_name = names
    feature_set = set(feature_ids)
    attr_set = set(attr_ids)
    if len(feature_ids) != len(feature_set):
        raise JoinError(f"{feature_name} holds duplicate image ids")
    if len(attr_ids) != len(attr_set):
        raise JoinError(f"{attr_name} holds duplicate image ids")
    missing_attrs = sorted(feature_set - attr_set)
    missing_feats = sorted(attr_set - feature_set)
    if missing_attrs or missing_feats:
        raise JoinError(
            f"{feature_name} and {attr_name} do not cover the same images; "
            f"ids not in {attr_name}: {missing_attrs}; "
            f"ids not in {feature_name}: {missing_feats}"
        )
    attr_row = {image_id: row for row, image_id in enumerate(attr_ids)}
    rows = np.fromiter((attr_row[image_id] for image_id in feature_ids), np.int64,
                       len(feature_ids))
    return list(feature_ids), features, attrs[rows]


def _tensor_shapes(config):
    """Name and shape of every tensor, in checkpoint order: each layer's
    weight, the output layer's bias when that layer has no batch
    normalization (which would cancel a bias), each normalized layer's
    scale and shift, then its running statistics."""
    dims = [config.feature_dim] + [config.hidden_dim] * (_N_LAYERS - 1) + [config.n_words]
    bn_layers = range(1, _N_LAYERS + 1 if config.bn_on_output else _N_LAYERS)
    shapes = {f"fc{k}.w": (dims[k - 1], dims[k]) for k in range(1, _N_LAYERS + 1)}
    if not config.bn_on_output:
        shapes[f"fc{_N_LAYERS}.b"] = (config.n_words,)
    for names in (("gamma", "beta"), ("running_mean", "running_var")):
        shapes.update({f"bn{k}.{name}": (dims[k],) for k in bn_layers for name in names})
    return shapes


class AttrNet:
    """Four-layer perceptron from image features to attribute vectors;
    ``params`` or ``stats`` left out is drawn from ``seed``. ``kind`` and
    ``config_type`` name its checkpoints (:func:`attrcap.storage.load_ensemble`)."""

    kind = "attrnet"
    config_type = AttrNetConfig

    def __init__(self, config, seed=0, params=None, stats=None):
        self.config = config
        shapes = _tensor_shapes(config)
        stat_shapes = {name: shapes.pop(name) for name in list(shapes)
                       if name.endswith(_STATS)}
        self._bn_layers = [k for k in range(1, _N_LAYERS + 1) if f"bn{k}.gamma" in shapes]

        def initial(table):
            tensors = {name: np.zeros(shape) for name, shape in table.items()}
            for name, tensor in tensors.items():
                if name.endswith(".w"):  # fc{k}.w, from stream k
                    xavier_init(*tensor.shape, Rng(seed).split(int(name[2:-2])), out=tensor)
                elif name.endswith((".gamma", ".running_var")):
                    tensor.fill(1.0)
            return tensors

        self.params = initial(shapes) if params is None else params
        self.stats = initial(stat_shapes) if stats is None else stats
        check_shapes(self.params, shapes, "the attribute predictor's parameters")
        check_shapes(self.stats, stat_shapes, "the attribute predictor's running statistics")

    def forward(self, x, mode="inference", rng=None):
        """Run the network; returns ``(predictions, caches)``.

        Train mode uses batch statistics (and updates running ones) and
        applies dropout masks drawn from ``rng``; inference mode uses
        running statistics and no dropout.
        """
        p = self.params
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.config.feature_dim:
            raise DimensionError(
                f"expected features of shape (N, {self.config.feature_dim}), "
                f"got {x.shape}"
            )
        caches = []
        out = x
        for k in range(1, _N_LAYERS + 1):
            layer_in, w = out, p[f"fc{k}.w"]
            out = nncore.matmul(layer_in, w)
            bn_cache = None
            if k in self._bn_layers:
                out, bn_cache = batchnorm_forward(
                    out, p[f"bn{k}.gamma"], p[f"bn{k}.beta"],
                    self.stats[f"bn{k}.running_mean"],
                    self.stats[f"bn{k}.running_var"], mode,
                )
            else:
                out += p[f"fc{k}.b"]
            # ReLU in place; backward reads only where it passed. Train
            # mode keeps that as a boolean mask; inference mode keeps the
            # activation, which is the next layer's input or the output.
            np.maximum(out, 0.0, out=out)
            active = out > 0.0 if mode == "train" else out
            drop_cache = None
            if k < _N_LAYERS:
                out, drop_cache = dropout_forward(
                    out, self.config.dropout, mode, rng
                )
            caches.append((layer_in, w, bn_cache, active, drop_cache))
        return out, caches

    def backward_groups(self, dout, caches, buffer=None):
        """Backpropagate through the cached forward pass, one layer at a
        time, the output layer first: yields each layer's parameter
        gradients as :func:`attrcap.nncore.adam_step` groups.

        Everything a layer's backward step reads of the parameters (its
        batch-normalization scale and the weights that carry ``dout`` to
        the layer below) is used before its first group is yielded, so
        the caller may update that layer's parameters in place before
        asking for the next group. ``caches`` is consumed: each layer's
        entry is released once its last group is out.

        With ``buffer``, a flat float64 array holding at least one row
        of every weight, the weight gradient comes in consecutive row
        slabs of as many rows as fit in ``buffer``, one group each, keyed
        ``(f"fc{k}.w", start, stop)``; the layer's other gradients ride
        in its first slab's group. Each slab is computed into ``buffer``,
        so it is valid only until the next group is asked for, and a step
        holds one slab of one weight gradient, not a whole layer's.
        Without ``buffer`` a layer is one group: its weight gradient is
        one slab of all the rows, in a fresh array keyed ``fc{k}.w``.
        """
        for k in range(_N_LAYERS, 0, -1):
            layer_in, w, bn_cache, active, drop_cache = caches.pop()
            if drop_cache is not None:
                dout = dropout_backward(dout, drop_cache)
            dout = dout * (active > 0.0)
            group = {}
            if bn_cache is None:
                group[f"fc{k}.b"] = dout.sum(axis=0)
            else:
                dout, group[f"bn{k}.gamma"], group[f"bn{k}.beta"] = (
                    batchnorm_backward(dout, bn_cache))
            del bn_cache, active, drop_cache
            # Nothing consumes the gradient of the network's input.
            below = nncore.matmul(dout, w.T) if k > 1 else None
            rows, cols = w.shape
            target, slab = ((np.empty(w.size), max(rows, 1)) if buffer is None
                            else (buffer, buffer.size // cols))
            # At least one group, so the layer's other gradients go out.
            for start, stop in batch_slices(rows, slab) or [(0, 0)]:
                key = f"fc{k}.w" if buffer is None else (f"fc{k}.w", start, stop)
                out = target[:(stop - start) * cols].reshape(stop - start, cols)
                group[key] = nncore.matmul(layer_in[:, start:stop].T, dout, out=out)
                yield group
                group = {}  # the last one is not alive while the next is built
            del group, layer_in, w
            dout = below

    def backward(self, dout, caches):
        """All parameter gradients of :meth:`backward_groups` in one dict."""
        grads = {}
        for group in self.backward_groups(dout, caches):
            grads.update(group)
        return grads

    def loss(self, x, target, mode="train", rng=None):
        """MSE loss and parameter gradients for one batch."""
        pred, caches = self.forward(x, mode=mode, rng=rng)
        value, dpred = mse_loss(pred, np.asarray(target, dtype=np.float64))
        grads = self.backward(dpred, caches)
        return value, grads

    def predict(self, x):
        """Inference-mode attribute predictions (non-negative): the
        one-member ensemble ``predict_ensemble([self], x)``."""
        return predict_ensemble([self], x)

    # -- checkpoint plumbing -------------------------------------------------

    def tensors(self):
        """All state as named tensors: the parameters, then the BN
        running statistics."""
        return {**self.params, **self.stats}

    @classmethod
    def from_tensors(cls, config, tensors):
        """Rebuild a network from :meth:`tensors`; the constructor checks
        every name and shape."""
        stats = {name: value for name, value in tensors.items() if name.endswith(_STATS)}
        params = {name: value for name, value in tensors.items() if name not in stats}
        return cls(config, params=params, stats=stats)


def train_attrnet(x, y, net_config, train_config):
    """Train an attribute predictor; returns ``(net, epoch_losses)``.

    ``x`` is (M, feature_dim), ``y`` is (M, n_words). Every epoch
    reshuffles the rows with a stream derived from the training seed;
    ``epoch_losses`` records the size-weighted mean batch MSE per epoch.
    Training runs for exactly ``train_config.epochs`` epochs; there is
    no early stopping here.
    """
    x = np.asarray(x)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[0] != y.shape[0]:
        raise DimensionError(
            f"feature rows {x.shape[0]} != attribute rows {y.shape[0]}"
        )
    if x.shape[0] < 2:
        raise ParameterError(
            "training needs at least 2 examples (batch normalization)"
        )
    root = Rng(train_config.seed)
    net = AttrNet(net_config, seed=root.split(0).seed)
    adam = AdamState(learning_rate=train_config.learning_rate)
    # Every weight gradient of every step, one row slab at a time: a slab
    # holds at least one row, and no more than its weight.
    weights = [net.params[f"fc{k}.w"] for k in range(1, _N_LAYERS + 1)]
    buffer = np.empty(max(min(w.size, max(_GRAD_SLAB, w.shape[1])) for w in weights))
    m = x.shape[0]
    epoch_losses = []
    for epoch in range(train_config.epochs):
        epoch_rng = root.split(epoch + 1)
        order = epoch_rng.permutation(m)
        total = 0.0
        for start, stop in batch_slices(m, train_config.batch_size, min_size=2):
            batch = order[start:stop]
            pred, caches = net.forward(x[batch], mode="train", rng=epoch_rng)
            loss, dpred = mse_loss(pred, y[batch])
            groups = net.backward_groups(dpred, caches, buffer)
            del pred, dpred  # so the backward pass frees dpred once it is used
            # Adam applies each row slab of a weight gradient as soon as
            # backward yields it, before the next slab overwrites it.
            adam_step(net.params, groups, adam)
            total += loss * len(batch)
        epoch_losses.append(total / m)
    return net, epoch_losses


def predict_ensemble(nets, x):
    """Elementwise ensemble mean of member predictions.

    Uses the order-invariant mean, so a one-member ensemble returns
    exactly that member's predictions and identical members yield
    predictions identical to any one of them.

    Rows go in fixed blocks of ``_PREDICT_BLOCK``. Within a block the
    members predict one after another on the calling thread, which
    allocates their activations, while each member's matrix products
    run on the :func:`attrcap.nncore.worker_pool`; then
    :func:`attrcap.nncore.ensemble_mean` reduces their predictions in
    place. So memory beyond the output is bounded by the block, not by
    the number of rows. Up to one block the result is that of one
    whole-matrix pass per member; beyond it, the matrix products round
    each row as its block does, a change in the last digits.
    """
    if not nets:
        raise ParameterError("ensemble prediction needs at least one member")

    def predict(rows):
        return nncore.ensemble_mean([net.forward(rows, mode="inference")[0]
                                     for net in nets])

    x = np.asarray(x)
    # One block goes whole, and so does a non-2-D input, for ``forward`` to reject.
    if x.ndim != 2 or len(x) <= _PREDICT_BLOCK:
        return predict(x)
    out = None
    for start, stop in batch_slices(len(x), _PREDICT_BLOCK):
        rows = predict(x[start:stop])
        if out is None:  # allocated once the width is known
            out = np.empty((len(x), *rows.shape[1:]))
        out[start:stop] = rows
        del rows  # not alive while the next block is predicted
    return out
