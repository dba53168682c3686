"""Neural-network primitives in pure NumPy, all float64.

Layers follow the functional forward/backward convention: each
``*_forward`` returns ``(out, cache)`` and the matching ``*_backward``
consumes ``(dout, cache)`` and returns input/parameter gradients. The
convention keeps every layer independently gradient-checkable.

Randomness comes from :class:`Rng`, a counter-based SplitMix64 stream:
every draw is a pure function of ``(seed, position)``, so results are
reproducible bit for bit regardless of platform or draw batching, and
``split`` derives statistically independent child streams for
per-layer, per-epoch, or per-member use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AdamState",
    "BatchNormState",
    "DimensionError",
    "NumericError",
    "ParameterError",
    "Rng",
    "adam_step",
    "affine_backward",
    "affine_forward",
    "batch_slices",
    "batchnorm_backward",
    "batchnorm_forward",
    "check_shapes",
    "clip_gradients",
    "dropout_backward",
    "dropout_forward",
    "ensemble_mean",
    "global_norm",
    "gradient_check",
    "relu_backward",
    "relu_forward",
    "sigmoid",
    "softmax",
    "train_members",
    "xavier_init",
]


class DimensionError(ValueError):
    """Raised when tensor shapes do not line up."""


class ParameterError(ValueError):
    """Raised when a hyperparameter or mode argument is out of range."""


class NumericError(ArithmeticError):
    """Raised when a computation produces or receives non-finite values."""


# --------------------------------------------------------------------------
# Deterministic random stream
# --------------------------------------------------------------------------

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = (1 << 64) - 1
_INV_2_53 = float(2.0 ** -53)


def _mix64(z):
    """SplitMix64 finalizer over a uint64 array (wrapping arithmetic)."""
    z = (z ^ (z >> np.uint64(30))) * _MIX_1
    z = (z ^ (z >> np.uint64(27))) * _MIX_2
    return z ^ (z >> np.uint64(31))


class Rng:
    """Counter-based SplitMix64 random stream.

    The ``i``-th raw draw is ``mix64(seed + (i + 1) * GAMMA)`` where
    ``GAMMA`` is the SplitMix64 increment, so a stream is a pure
    function of its seed and how many values were consumed before.
    """

    def __init__(self, seed):
        self._seed = np.uint64(int(seed) & _U64_MASK)
        self._position = 0

    @property
    def seed(self):
        return int(self._seed)

    def _raw(self, count):
        index = np.arange(
            self._position + 1, self._position + count + 1, dtype=np.uint64
        )
        self._position += count
        with np.errstate(over="ignore"):
            return _mix64(self._seed + index * _GAMMA)

    def split(self, tag):
        """Derive an independent child stream keyed by an integer tag.

        Splitting never consumes draws from the parent, so the order of
        splits and draws cannot interfere.
        """
        key = np.uint64((int(tag) & _U64_MASK) ^ 0x5851F42D4C957F2D)
        with np.errstate(over="ignore"):
            child = _mix64(np.array([self._seed ^ _mix64(np.array([key]))[0]],
                                    dtype=np.uint64))[0]
        return Rng(int(child))

    def uniform(self, shape=()):
        """Floats in [0, 1) with 53-bit resolution."""
        count = int(np.prod(shape, dtype=np.int64)) if shape != () else 1
        values = (self._raw(count) >> np.uint64(11)).astype(np.float64)
        values *= _INV_2_53
        return values.reshape(shape) if shape != () else float(values[0])

    def normal(self, shape=()):
        """Standard normal draws via the Box-Muller transform."""
        count = int(np.prod(shape, dtype=np.int64)) if shape != () else 1
        # u1 in (0, 1] so the log is finite; u2 in [0, 1).
        u1 = ((self._raw(count) >> np.uint64(11)).astype(np.float64) + 1.0)
        u1 *= _INV_2_53
        u2 = (self._raw(count) >> np.uint64(11)).astype(np.float64)
        u2 *= _INV_2_53
        values = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        return values.reshape(shape) if shape != () else float(values[0])

    def permutation(self, n):
        """Fisher-Yates shuffle of ``range(n)`` driven by this stream."""
        order = np.arange(n, dtype=np.int64)
        if n < 2:
            return order
        picks = self.uniform((n - 1,))
        for i in range(n - 1, 0, -1):
            j = int(picks[n - 1 - i] * (i + 1))
            order[i], order[j] = order[j], order[i]
        return order


# --------------------------------------------------------------------------
# Layers
# --------------------------------------------------------------------------


def affine_forward(x, w, b):
    """Fully connected layer: ``out = x @ w + b``.

    Shapes: x (N, D), w (D, M), b (M,).
    """
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise DimensionError(
            f"affine shapes incompatible: x {x.shape}, w {w.shape}"
        )
    if b.shape != (w.shape[1],):
        raise DimensionError(
            f"affine bias shape {b.shape} does not match weight {w.shape}"
        )
    out = x @ w + b
    return out, (x, w)


def affine_backward(dout, cache):
    x, w = cache
    dx = dout @ w.T
    dw = x.T @ dout
    db = dout.sum(axis=0)
    return dx, dw, db


def relu_forward(x):
    out = np.maximum(x, 0.0)
    return out, x


def relu_backward(dout, cache):
    return dout * (cache > 0.0)


def dropout_forward(x, rate, mode, rng=None):
    """Inverted dropout.

    In train mode each element is zeroed with probability ``rate`` and
    the survivors are scaled by ``1 / (1 - rate)``, so inference is the
    identity. ``rng`` is required in train mode when ``rate > 0``.
    """
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if mode == "inference" or rate == 0.0:
        return x, (None, 1.0)
    if mode != "train":
        raise ParameterError(f"unknown dropout mode {mode!r}")
    if rng is None:
        raise ParameterError("train-mode dropout needs an Rng for its mask")
    mask = (rng.uniform(x.shape) >= rate).astype(np.float64)
    scale = 1.0 / (1.0 - rate)
    return x * mask * scale, (mask, scale)


def dropout_backward(dout, cache):
    mask, scale = cache
    if mask is None:
        return dout
    return dout * mask * scale


@dataclass
class BatchNormState:
    """Running statistics of one batch-normalized layer.

    Statistics are folded in as
    ``running = momentum * running + (1 - momentum) * batch``; the
    learnable scale/shift live with the other trainable parameters.
    """

    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.9
    eps: float = 1e-5

    @classmethod
    def create(cls, dim, momentum=0.9, eps=1e-5):
        return cls(
            running_mean=np.zeros(dim, dtype=np.float64),
            running_var=np.ones(dim, dtype=np.float64),
            momentum=momentum,
            eps=eps,
        )


def batchnorm_forward(x, gamma, beta, state, mode):
    """Batch normalization over the batch axis of a (N, D) input.

    Train mode normalizes with biased batch statistics and updates the
    running statistics in ``state``; inference mode normalizes with the
    running statistics and touches nothing. A train-mode batch of one
    row has zero variance and is rejected.
    """
    if x.ndim != 2 or x.shape[1] != gamma.shape[0]:
        raise DimensionError(
            f"batchnorm input {x.shape} does not match gamma {gamma.shape}"
        )
    if mode == "train":
        if x.shape[0] < 2:
            raise ParameterError(
                "batchnorm train mode needs a batch of at least 2 rows; "
                "variance of a single row is undefined"
            )
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        inv_std = 1.0 / np.sqrt(var + state.eps)
        x_hat = (x - mean) * inv_std
        out = gamma * x_hat + beta
        state.running_mean = (
            state.momentum * state.running_mean + (1.0 - state.momentum) * mean
        )
        state.running_var = (
            state.momentum * state.running_var + (1.0 - state.momentum) * var
        )
        return out, ("train", x_hat, inv_std, gamma)
    if mode == "inference":
        inv_std = 1.0 / np.sqrt(state.running_var + state.eps)
        x_hat = (x - state.running_mean) * inv_std
        out = gamma * x_hat + beta
        return out, ("inference", x_hat, inv_std, gamma)
    raise ParameterError(f"unknown batchnorm mode {mode!r}")


def batchnorm_backward(dout, cache):
    mode, x_hat, inv_std, gamma = cache
    dgamma = (dout * x_hat).sum(axis=0)
    dbeta = dout.sum(axis=0)
    dx_hat = dout * gamma
    if mode == "inference":
        return dx_hat * inv_std, dgamma, dbeta
    n = dout.shape[0]
    dx = (inv_std / n) * (
        n * dx_hat - dx_hat.sum(axis=0) - x_hat * (dx_hat * x_hat).sum(axis=0)
    )
    return dx, dgamma, dbeta


def sigmoid(x):
    """Numerically stable logistic function."""
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def softmax(x):
    """Row-wise softmax of a (N, V) array; rows sum to one."""
    shifted = x - x.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


# --------------------------------------------------------------------------
# Initialization and optimization
# --------------------------------------------------------------------------


def xavier_init(rows, cols, rng):
    """Uniform Glorot initialization on ``+/- sqrt(6 / (rows + cols))``.

    ``rng`` may be an :class:`Rng` or an integer seed; the same seed
    always yields the same matrix.
    """
    if isinstance(rng, (int, np.integer)):
        rng = Rng(rng)
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform((rows, cols)) * (2.0 * bound) - bound


@dataclass
class AdamState:
    """Adam optimizer state: per-tensor first/second moments and step."""

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    moment1: dict = field(default_factory=dict)
    moment2: dict = field(default_factory=dict)


def adam_step(params, grads, state):
    """One Adam update; returns a new params dict, mutating ``state``.

    Moments are bias-corrected. Gradients must be finite and shaped
    like their parameters.
    """
    state.step += 1
    correction1 = 1.0 - state.beta1 ** state.step
    correction2 = 1.0 - state.beta2 ** state.step
    updated = {}
    for name, value in params.items():
        grad = grads[name]
        if grad.shape != value.shape:
            raise DimensionError(
                f"gradient for {name} has shape {grad.shape}, "
                f"parameter has {value.shape}"
            )
        if not np.all(np.isfinite(grad)):
            raise NumericError(f"non-finite gradient for {name}")
        m = state.moment1.get(name)
        v = state.moment2.get(name)
        if m is None:
            m = np.zeros_like(value)
            v = np.zeros_like(value)
        m = state.beta1 * m + (1.0 - state.beta1) * grad
        v = state.beta2 * v + (1.0 - state.beta2) * grad * grad
        state.moment1[name] = m
        state.moment2[name] = v
        m_hat = m / correction1
        v_hat = v / correction2
        updated[name] = value - state.learning_rate * m_hat / (
            np.sqrt(v_hat) + state.eps
        )
    return updated


def batch_slices(n, batch_size, min_size=1):
    """Contiguous ``(start, stop)`` ranges covering ``range(n)``.

    A trailing batch shorter than ``min_size`` is merged into the one
    before it (batch normalization, for one, needs two rows).
    """
    if batch_size < 1:
        raise ParameterError(f"batch size must be positive, got {batch_size}")
    bounds = list(range(0, n, batch_size)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] < min_size:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


def global_norm(grads):
    """L2 norm of all gradient tensors stacked into one vector."""
    total = 0.0
    for grad in grads.values():
        total += float(np.sum(grad * grad))
    return float(np.sqrt(total))


def clip_gradients(grads, max_norm):
    """Scale all gradients down so their global norm is at most ``max_norm``.

    Returns ``(clipped, norm)`` where ``norm`` is the pre-clip global
    norm. Gradients under the limit pass through unchanged.
    """
    if max_norm <= 0:
        raise ParameterError(f"clip norm must be positive, got {max_norm}")
    norm = global_norm(grads)
    if not np.isfinite(norm):
        raise NumericError("non-finite gradient norm")
    if norm <= max_norm:
        return grads, norm
    scale = max_norm / norm
    return {name: grad * scale for name, grad in grads.items()}, norm


def train_members(n_members, seed, train):
    """Results of ``train(member_seed)`` for an ensemble's members, in
    order; member ``m`` gets seed ``Rng(seed).split(m + 1).seed``."""
    if n_members < 1:
        raise ParameterError(f"ensemble needs at least one member, got {n_members}")
    root = Rng(seed)
    return [train(root.split(m + 1).seed) for m in range(n_members)]


def check_shapes(tensors, shapes, layout):
    """Raise DimensionError naming every tensor missing from, unknown to
    or misshapen for ``shapes`` (``{name: shape}``) of ``layout``."""
    misfits = sorted(set(shapes).symmetric_difference(tensors) | {
        name for name in set(shapes) & set(tensors)
        if np.shape(tensors[name]) != shapes[name]})
    if misfits:
        raise DimensionError(f"tensors missing, unknown or misshapen for "
                             f"{layout}: {', '.join(misfits)}")


# --------------------------------------------------------------------------
# Verification helpers
# --------------------------------------------------------------------------


def gradient_check(loss_fn, params, eps=1e-5):
    """Compare analytic gradients against central differences.

    ``loss_fn(params) -> (loss, grads)`` must be deterministic in its
    inputs. Every coordinate of every parameter is perturbed by
    ``+/- eps``; the relative error of a coordinate is
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-8)`` and the
    maximum over all coordinates is returned.
    """
    work = {name: np.array(value, dtype=np.float64) for name, value in params.items()}
    loss, analytic = loss_fn(work)
    if not np.isfinite(loss):
        raise NumericError(f"loss is not finite: {loss}")
    worst = 0.0
    for name, value in work.items():
        grad = analytic[name]
        for index in np.ndindex(value.shape):
            original = value[index]
            value[index] = original + eps
            loss_plus, _ = loss_fn(work)
            value[index] = original - eps
            loss_minus, _ = loss_fn(work)
            value[index] = original
            numeric = (loss_plus - loss_minus) / (2.0 * eps)
            a = float(grad[index])
            scale = max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, abs(a - numeric) / scale)
    return worst


def ensemble_mean(stack):
    """Permutation-invariant elementwise mean over the leading axis.

    For each element the member values are reduced as
    ``min + sum(sorted(values - min)) / K``, which makes the result
    independent of member order and *exactly* equal to the shared value
    when all members agree (the sorted differences are then all zero).

    The differences are sorted in place by an odd-even transposition
    network of elementwise minima and maxima over the member axis: the
    same values as ``np.sort(..., axis=0)``, summed in the same order,
    at a fraction of its cost for the few members of an ensemble.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim < 1 or stack.shape[0] < 1:
        raise DimensionError("ensemble mean needs at least one member")
    n = stack.shape[0]
    if n == 1:
        return stack[0].copy()
    base = stack.min(axis=0)
    deltas = stack - base
    for sweep in range(n):
        lo, hi = deltas[sweep % 2:n - 1:2], deltas[sweep % 2 + 1:n:2]
        smaller = np.minimum(lo, hi)
        np.maximum(lo, hi, out=hi)
        lo[...] = smaller
    return base + deltas.sum(axis=0) / n
