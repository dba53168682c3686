"""Neural-network primitives in pure NumPy, all float64.

The two layers kept here, inverted dropout (``dropout_*``) and batch
normalization (``batchnorm_*``), follow the functional forward/backward
convention: each ``*_forward`` returns ``(out, cache)`` and the matching
``*_backward`` consumes ``(dout, cache)`` and returns input/parameter
gradients, so each is gradient-checkable on its own; train-mode batch
normalization also folds the batch statistics into the caller's running
mean and variance arrays in place. Networks write their ReLU inline;
:func:`sigmoid` and :func:`softmax` are plain functions. :func:`matmul`
runs the products of the attribute net and the decoder's output layer
in column panels through :func:`matmuls`, the one runner of products on
the worker pool.

Randomness comes from :class:`Rng`, a counter-based SplitMix64 stream:
every draw is a pure function of ``(seed, position)``, so results are
reproducible bit for bit regardless of platform or draw batching, and
``split`` derives statistically independent child streams for
per-layer, per-epoch, or per-member use.

Draws, Glorot initialization and the Adam update run in cache-sized
blocks with a little reused scratch memory, and give bitwise the results
of the whole-array formulas; the blocks of an initialization and of an
Adam step are dealt to the worker pool, each worker with its own
scratch.
Adam writes each new parameter into the caller's array and clipping
scales the caller's gradients, so a training step holds one copy each
of the parameters, the two moments and the gradients. Adam also takes
the gradients as groups, each checked and applied before the next is
asked for, and a group may hold a row slab of a parameter: a backward
pass that yields one row slab of a weight gradient at a time then holds
that slab, not the whole set. :func:`train_members` trains an
ensemble's members one at a time, as its caller asks for them.

:func:`worker_pool` is one process-wide pool of threads, started at
first use, with one worker per CPU the process may run on (at most
``_MAX_WORKERS``); :class:`WorkerPool` states what its work must obey.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AdamState",
    "DimensionError",
    "NumericError",
    "ParameterError",
    "Rng",
    "WorkerPool",
    "adam_step",
    "batch_slices",
    "batchnorm_backward",
    "batchnorm_forward",
    "check_settings",
    "check_shapes",
    "clip_gradients",
    "dropout_backward",
    "dropout_forward",
    "ensemble_mean",
    "global_norm",
    "matmul",
    "sigmoid",
    "softmax",
    "train_members",
    "worker_pool",
    "xavier_init",
]


class DimensionError(ValueError):
    """Raised when tensor shapes do not line up."""


class ParameterError(ValueError):
    """Raised when a hyperparameter or mode argument is out of range."""


class NumericError(ArithmeticError):
    """Raised when a computation produces or receives non-finite values."""


# --------------------------------------------------------------------------
# Worker pool
# --------------------------------------------------------------------------

# More threads than this find little more work: a decode step has one
# piece per ensemble member, a product 2048 columns wide four panels, and
# Adam's blocks and checkpoint reads are bound by memory bandwidth.
_MAX_WORKERS = 8


# Set in the context that each call of a :meth:`WorkerPool.map` runs in.
_IN_PIECE = contextvars.ContextVar("attrcap_in_piece", default=False)


class WorkerPool:
    """``workers`` threads that run the calls of one :meth:`map` at once.

    With one worker, or a single call, the calls run in the calling
    thread. NumPy releases the interpreter lock inside its loops and
    BLAS calls, so the pieces of one computation overlap on separate
    cores. Five kinds of work run on it: matrix products (:func:`matmuls`),
    the blocks of an Adam step, the blocks of draws of a Glorot
    initialization (:func:`xavier_init`), the tensors of a checkpoint
    being loaded, and the members and row slabs of a beam-search step.
    Every piece of work given to the pool obeys one contract:

    * every piece runs the same operations in the same order, whichever
      thread runs it, so results are bitwise the same for any worker
      count;
    * pieces write disjoint memory that the calling thread allocated
      (arrays allocated on a pool thread and freed stay in that
      thread's allocator arena);
    * work that a piece submits runs in that piece's thread, so a piece
      never waits for workers that may all be running pieces.
    """

    def __init__(self, workers):
        # Imported here: ``concurrent.futures`` takes longer to import
        # than this module, and most processes never start the pool.
        from concurrent.futures import ThreadPoolExecutor

        self.workers = workers
        self._executor = (ThreadPoolExecutor(workers, thread_name_prefix="attrcap")
                          if workers > 1 else None)

    def map(self, function, items):
        """``[function(item) for item in items]``, the calls spread over
        the workers; the first exception raised by a call propagates.
        Each call runs in a copy of the caller's context, so NumPy's
        error state (``np.errstate``) holds on the workers too. A map
        made from inside a call runs its calls in that call's thread."""
        items = list(items)
        if self._executor is None or len(items) < 2 or _IN_PIECE.get():
            return [function(item) for item in items]
        context = contextvars.copy_context()
        context.run(_IN_PIECE.set, True)
        return list(self._executor.map(
            lambda item: context.copy().run(function, item), items))

    def deal(self, function, items):
        """Deal ``items`` round-robin into one share per worker, never
        more shares than items, each share a list in item order; run
        ``function(share)`` on every share at once and return the least
        result that is not ``None``, or ``None``. A function that returns
        the position of its share's first failure (or a tuple starting
        with it) thus yields the first failure in item order, whichever
        worker finds it."""
        items = list(items)
        shares = [items[first::self.workers]
                  for first in range(min(self.workers, len(items)))]
        return min((result for result in self.map(function, shares) if result is not None),
                   default=None)


_POOL = None
_POOL_LOCK = threading.Lock()


def worker_pool():
    """The process-wide :class:`WorkerPool`, started at first use with
    one worker per CPU this process may run on, at most ``_MAX_WORKERS``."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            try:
                cpus = len(os.sched_getaffinity(0))
            except AttributeError:  # no affinity call on this platform
                cpus = os.cpu_count() or 1
            _POOL = WorkerPool(max(1, min(cpus, _MAX_WORKERS)))
        return _POOL


# Columns per panel of :func:`matmul`: a constant, not a share of the
# workers, so the products round alike for any worker count.
_PANEL = 512


def matmul(a, b, out=None):
    """``a @ b`` for 2-D float64 arrays, written into ``out`` (allocated
    when not given) and returned.

    ``b``'s columns are cut into panels of ``_PANEL``, and the panels'
    products run at once through :func:`matmuls`, each writing its
    columns of ``out``. A product of one panel is exactly ``np.matmul``;
    beyond one, BLAS may round a panel's columns as it would not round
    them in the whole product, a change in the last digits.
    """
    if out is None:
        out = np.empty((a.shape[0], b.shape[1]))
    matmuls(*((a, b[:, start:stop], out[:, start:stop])
              for start, stop in batch_slices(b.shape[1], _PANEL)))
    return out


def matmuls(*products):
    """``np.matmul(a, b, out=out)`` for every ``(a, b, out)``, all at once on
    the :func:`worker_pool`; each ``out`` is allocated by the calling thread."""
    worker_pool().map(lambda product: np.matmul(product[0], product[1], out=product[2]),
                      products)


# --------------------------------------------------------------------------
# Deterministic random stream
# --------------------------------------------------------------------------

_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = (1 << 64) - 1
_INV_2_53 = float(2.0 ** -53)

# Elements per block of the draw and Adam kernels and of a checkpoint
# read: 256 KB of float64, so the few blocks that one pass of a kernel
# touches stay in a core's cache.
_CHUNK = 1 << 15
# ``k * GAMMA`` (wrapping) for every offset ``k`` within a block.
_STRIDES = np.arange(_CHUNK, dtype=np.uint64) * np.uint64(_GAMMA)


def _mix64(z, scratch):
    """SplitMix64 finalizer of a uint64 array, in place (wrapping
    arithmetic); ``scratch`` is a uint64 buffer of the same length."""
    for shift, multiplier in ((30, _MIX_1), (27, _MIX_2)):
        np.right_shift(z, np.uint64(shift), out=scratch)
        z ^= scratch
        z *= multiplier
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch
    return z


def _draw_block(seed, first, bits, scratch):
    """Raw draws ``first .. first + len(bits) - 1`` of stream ``seed``,
    each shifted to its top 53 bits, written into the uint64 array
    ``bits`` (at most ``_CHUNK`` long) and returned; ``scratch`` is a
    uint64 buffer at least as long."""
    # Raw draw i is mix64(seed + (i + 1) * GAMMA), all modulo 2**64.
    np.add(_STRIDES[:len(bits)], np.uint64((seed + (first + 1) * _GAMMA) & _U64_MASK),
           out=bits)
    _mix64(bits, scratch[:len(bits)])
    bits >>= np.uint64(11)
    return bits


def _uniform_blocks(seed, first, flat, blocks, bound=None):
    """``flat[start:stop]`` = uniform draws ``first + start ..`` of stream
    ``seed`` for each ``(start, stop)`` of ``blocks`` (at most ``_CHUNK``
    long); with a ``bound``, the operations of ``u * (2 * bound) - bound``."""
    bits = np.empty(min(flat.size, _CHUNK), dtype=np.uint64)
    scratch = np.empty_like(bits)
    for start, stop in blocks:
        block = flat[start:stop]
        np.multiply(_draw_block(seed, first + start, bits[:stop - start], scratch),
                    _INV_2_53, out=block)
        if bound is not None:
            block *= 2.0 * bound
            block -= bound


class Rng:
    """Counter-based SplitMix64 random stream.

    The ``i``-th raw draw is ``mix64(seed + (i + 1) * GAMMA)`` where
    ``GAMMA`` is the SplitMix64 increment, so a stream is a pure
    function of its seed and how many values were consumed before.
    """

    def __init__(self, seed):
        self._seed = int(seed) & _U64_MASK
        self._position = 0

    @property
    def seed(self):
        return self._seed

    def _take(self, count):
        """Consume ``count`` draws; returns the position of the first."""
        first = self._position
        self._position += count
        return first

    def split(self, tag):
        """Derive an independent child stream keyed by an integer tag.

        Splitting never consumes draws from the parent, so the order of
        splits and draws cannot interfere.
        """
        scratch = np.empty(1, dtype=np.uint64)
        key = np.array([(int(tag) & _U64_MASK) ^ 0x5851F42D4C957F2D], dtype=np.uint64)
        child = np.array([self._seed], dtype=np.uint64) ^ _mix64(key, scratch)
        return Rng(int(_mix64(child, scratch)[0]))

    def uniform(self, shape=()):
        """Floats in [0, 1) with 53-bit resolution."""
        count = int(np.prod(shape, dtype=np.int64)) if shape != () else 1
        values = np.empty(count, dtype=np.float64)
        _uniform_blocks(self._seed, self._take(count), values, batch_slices(count, _CHUNK))
        return values.reshape(shape) if shape != () else float(values[0])

    def normal(self, shape=()):
        """Standard normal draws via the Box-Muller transform: ``u1``
        comes from the next ``count`` draws and ``u2`` from the ones
        after them, drawn ``_CHUNK`` at a time so that only the output
        is allocated whole."""
        count = int(np.prod(shape, dtype=np.int64)) if shape != () else 1
        u1 = self.uniform((count,))
        # u1 in (0, 1] so the log is finite; u2 in [0, 1).
        u1 += _INV_2_53
        np.log(u1, out=u1)
        u1 *= -2.0
        np.sqrt(u1, out=u1)
        for start, stop in batch_slices(count, _CHUNK):
            u2 = self.uniform((stop - start,))
            u2 *= 2.0 * np.pi
            np.cos(u2, out=u2)
            u1[start:stop] *= u2
        return u1.reshape(shape) if shape != () else float(u1[0])

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


# Batch statistics are folded into the running ones as
# ``running = momentum * running + (1 - momentum) * batch``; ``eps`` keeps
# the normalizing variance positive.
_BN_MOMENTUM = 0.9
_BN_EPS = 1e-5
# Adam's moment decay rates, and the term that keeps its denominator positive.
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


def batchnorm_forward(x, gamma, beta, running_mean, running_var, mode):
    """Batch normalization over the batch axis of a (N, D) input.

    Train mode normalizes with biased batch statistics and folds them
    into ``running_mean`` and ``running_var`` in place; inference mode
    normalizes with the running statistics and touches nothing. A
    train-mode batch of one row has zero variance and is rejected.
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
        mean, var = x.mean(axis=0), x.var(axis=0)
        for running, batch in ((running_mean, mean), (running_var, var)):
            running *= _BN_MOMENTUM
            running += (1.0 - _BN_MOMENTUM) * batch
    elif mode == "inference":
        mean, var = running_mean, running_var
    else:
        raise ParameterError(f"unknown batchnorm mode {mode!r}")
    inv_std = 1.0 / np.sqrt(var + _BN_EPS)
    x_hat = (x - mean) * inv_std
    return gamma * x_hat + beta, (mode, x_hat, inv_std, gamma)


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
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e)
    out /= 1.0 + e
    return out


def softmax(x, out=None):
    """Row-wise softmax of a (N, V) array; rows sum to one.

    The result is written into ``out`` when it is given (``x`` itself
    may be passed), and then no array of ``x``'s size is allocated.
    """
    out = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


# --------------------------------------------------------------------------
# Initialization and optimization
# --------------------------------------------------------------------------


def xavier_init(rows, cols, rng, out=None):
    """Uniform Glorot initialization on ``+/- sqrt(6 / (rows + cols))``.

    ``rng`` is an :class:`Rng`: the same seed always yields the same
    matrix, and ``rng`` advances by ``rows * cols`` draws. The draws are
    scaled and shifted block by block, while each block is in cache, and
    written into ``out`` (a C-contiguous (rows, cols) array) when it is
    given.

    The blocks are dealt to the :func:`worker_pool`
    (:meth:`WorkerPool.deal`), each worker with one block of scratch. A
    draw is a pure function of its stream and position, so the matrix
    is the same for any worker count.
    """
    bound = np.sqrt(6.0 / (rows + cols))
    weights = np.empty((rows, cols)) if out is None else out
    if weights.shape != (rows, cols) or not weights.flags.c_contiguous:
        raise DimensionError(f"xavier_init writes a C-contiguous ({rows}, {cols}) "
                             f"array, got {weights.shape}")
    flat = weights.reshape(-1)
    seed, first = rng.seed, rng._take(flat.size)

    worker_pool().deal(lambda share: _uniform_blocks(seed, first, flat, share, bound),
                       batch_slices(flat.size, _CHUNK))
    return weights


@dataclass
class AdamState:
    """Adam optimizer state: per-tensor first/second moments and step."""

    learning_rate: float
    step: int = 0
    moment1: dict = field(default_factory=dict)
    moment2: dict = field(default_factory=dict)


def adam_step(params, grads, state):
    """One Adam update of ``params`` in place; returns ``None``.

    ``grads`` is a dict with a gradient for every parameter, or an
    iterator of dicts (groups), each for some of them. A group key is a
    parameter name, or ``(name, start, stop)`` for the gradient of rows
    ``start:stop`` (along the leading axis) of that parameter; Adam is
    elementwise, so a parameter may arrive in row slabs spread over
    several groups. Each group is checked, then applied, before the next
    is requested, so a generator of groups holds one at a time. The step
    count, and with it the bias correction, advances once per call.
    Moments are allocated whole, at a parameter's first update.

    Parameters and gradients must be C-contiguous, gradients finite and
    shaped like their parameters or rows, and a row range must lie
    inside its parameter. A rejected group leaves its parameters' rows
    and moments as they were and the next group is never requested; the
    groups before it stay applied. A dict is one group, so a rejected
    dict leaves ``params`` and ``state`` as they were. Each parameter
    array is overwritten with its new value, and the moments are updated
    in place; the gradients are only read.

    Each group's blocks are dealt to the :func:`worker_pool`
    (:meth:`WorkerPool.deal`): one pass checks them, a second updates
    them.
    Each worker keeps one block of scratch, so all the scratch together
    holds ``2 * _CHUNK`` floats; the last stage runs over each half of a
    block in turn, with the scratch halves holding its numerator and
    denominator.
    """
    step = state.step + 1
    groups = [{name: grads[name] for name in params}] if isinstance(grads, dict) else grads
    for group in groups:
        _adam_group(params, group, state, step)
        del group  # not alive while the next group is computed
    state.step = step


def _adam_group(params, grads, state, step):
    """Check the gradients of one group, then apply them as update
    ``step`` (1-based), setting ``state.step`` to it."""
    entries = []  # (parameter name, flat gradient, flat offset of its range)
    for key, grad in grads.items():
        name, rows = (key, None) if isinstance(key, str) else (key[0], key[1:])
        value = params[name]
        shape, offset, label = value.shape, 0, name
        if rows is not None:
            start, stop = rows
            label = f"rows {start}:{stop} of {name}"
            if value.ndim == 0 or not 0 <= start <= stop <= len(value):
                raise DimensionError(f"{label} lie outside its shape {value.shape}")
            shape = (stop - start, *value.shape[1:])
            offset = start * math.prod(value.shape[1:])
        if grad.shape != shape:
            raise DimensionError(
                f"gradient for {label} has shape {grad.shape}, "
                f"parameter has {shape}"
            )
        if not value.flags.c_contiguous:
            raise DimensionError(f"parameter {name} is not C-contiguous")
        if not grad.flags.c_contiguous:
            raise DimensionError(f"gradient for {label} is not C-contiguous")
        entries.append((name, grad.reshape(-1), offset))
    pool = worker_pool()
    blocks = [(k, start, stop) for k, (_, grad, _) in enumerate(entries)
              for start, stop in batch_slices(grad.size, 2 * _CHUNK // pool.workers)]

    def first_bad(share):
        return next((k for k, start, stop in share
                     if not np.isfinite(entries[k][1][start:stop]).all()), None)

    bad = pool.deal(first_bad, blocks)
    if bad is not None:
        raise NumericError(f"non-finite gradient for {entries[bad][0]}")
    state.step = step
    b1, b2, lr, eps = _ADAM_BETA1, _ADAM_BETA2, state.learning_rate, _ADAM_EPS
    correction1 = 1.0 - b1 ** step
    correction2 = 1.0 - b2 ** step
    for name, _, _ in entries:
        if name not in state.moment1:
            state.moment1[name] = np.zeros(params[name].shape)
            state.moment2[name] = np.zeros(params[name].shape)
    tensors = [(state.moment1[name].reshape(-1)[offset:offset + grad.size],
                state.moment2[name].reshape(-1)[offset:offset + grad.size],
                grad, params[name].reshape(-1)[offset:offset + grad.size])
               for name, grad, offset in entries]
    half = (max((stop - start for _, start, stop in blocks), default=0) + 1) // 2

    def update(share):
        scratch = np.empty(2 * half)
        for k, start, stop in share:
            m, v, g, p = (tensor[start:stop] for tensor in tensors[k])
            t = scratch[:stop - start]
            # The operations and their order are those of the whole-array
            # formulas, so the results are bitwise equal to them:
            # m = b1*m + (1-b1)*g
            m *= b1
            np.multiply(g, 1.0 - b1, out=t)
            m += t
            # v = b2*v + ((1-b2)*g)*g
            v *= b2
            np.multiply(g, 1.0 - b2, out=t)
            t *= g
            v += t
            # p = p - (lr*(m/c1)) / (sqrt(v/c2) + eps), half a block at a time.
            for lo, hi in batch_slices(stop - start, half):
                t, u = scratch[:hi - lo], scratch[half:half + hi - lo]
                np.divide(m[lo:hi], correction1, out=t)
                t *= lr
                np.divide(v[lo:hi], correction2, out=u)
                np.sqrt(u, out=u)
                u += eps
                t /= u
                p[lo:hi] -= t

    pool.deal(update, blocks)


def batch_slices(n, batch_size, min_size=1):
    """Contiguous ``(start, stop)`` ranges covering ``range(n)``, each
    ``batch_size`` long but the last; none when ``n`` is 0.

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
        flat = grad.reshape(-1)
        total += float(np.dot(flat, flat))
    return float(np.sqrt(total))


def clip_gradients(grads, max_norm):
    """Scale all gradients down so their global norm is at most ``max_norm``.

    Returns ``(grads, norm)`` where ``norm`` is the pre-clip global
    norm. The caller's arrays are scaled in place and returned in the
    same dict; gradients under the limit are left as they are.
    """
    if not 0 < max_norm < math.inf:
        raise ParameterError(f"clip norm must be positive and finite, got {max_norm}")
    norm = global_norm(grads)
    if not np.isfinite(norm):
        raise NumericError("non-finite gradient norm")
    if norm <= max_norm:
        return grads, norm
    scale = max_norm / norm
    for grad in grads.values():
        grad *= scale
    return grads, norm


def train_members(n_members, seed, train):
    """An iterator over ``train(member_seed)`` for an ensemble's members,
    in order; member ``m`` gets seed ``Rng(seed).split(m + 1).seed``.

    Each member trains only when the next result is asked for, and the
    iterator keeps no result, so a caller that saves each member and
    drops it holds one member at a time. ``n_members`` is checked at the
    call.
    """
    if n_members < 1:
        raise ParameterError(f"ensemble needs at least one member, got {n_members}")
    root = Rng(seed)
    return (train(root.split(m + 1).seed) for m in range(n_members))


def check_shapes(tensors, shapes, layout):
    """Raise DimensionError naming every tensor missing from, unknown to
    or misshapen for ``shapes`` (``{name: shape}``) of ``layout``."""
    misfits = sorted(set(shapes).symmetric_difference(tensors) | {
        name for name in set(shapes) & set(tensors)
        if np.shape(tensors[name]) != shapes[name]})
    if misfits:
        raise DimensionError(f"tensors missing, unknown or misshapen for "
                             f"{layout}: {', '.join(misfits)}")


def check_settings(config, at_least_one=(), non_negative=(), fractions=(),
                   at_least_two=(), positive=()):
    """Raise ParameterError naming the first field of ``config`` out of its
    range: at least 1, finite and at least 0, in [0, 1), at least 2, or
    finite and above 0; NaN is in none."""
    for names, low, high, rule in ((at_least_one, 1, math.inf, "at least 1"),
                                   (non_negative, 0, math.inf, "finite and at least 0"),
                                   (fractions, 0, 1, "in [0, 1)"),
                                   (at_least_two, 2, math.inf, "at least 2"),
                                   # At least the least float above 0: above 0.
                                   (positive, math.ulp(0.0), math.inf, "finite and above 0")):
        for name in names:
            value = getattr(config, name)
            if not low <= value < high:
                raise ParameterError(f"{name} must be {rule}, got {value!r}")


def ensemble_mean(stack):
    """Permutation-invariant elementwise mean over the leading axis.

    For each element the member values are reduced as
    ``min + sum(sorted(values - min)) / K``, which makes the result
    independent of member order and *exactly* equal to the shared value
    when all members agree (the sorted differences are then all zero).

    The differences are sorted in place by an odd-even transposition
    network of elementwise minima and maxima over the member axis: the
    same values as ``np.sort(..., axis=0)``, summed in the same order,
    at a fraction of its cost for the few members of an ensemble. With
    at most three members one difference is exactly ``+0``, so the sum
    is the same in any order and the network is skipped.

    ``stack`` is a sequence of K members of one shape: a list of the
    members' own outputs, or a (K, ...) array, whose members are views
    of it. Members that are float64 arrays are reduced in place, so
    they are overwritten and the mean is returned as the first of them
    (not a copy), and nothing of the stack's size is allocated; other
    members are converted to float64 first.
    """
    stack = [np.asarray(member, dtype=np.float64) for member in stack]
    n = len(stack)
    if n < 1:
        raise DimensionError("ensemble mean needs at least one member")
    if n == 1:
        return stack[0]
    # Member by member, the order of ``min(axis=0)`` and ``sum(axis=0)``.
    base = np.minimum(stack[0], stack[1], out=np.empty_like(stack[0]))
    for member in stack[2:]:
        np.minimum(base, member, out=base)
    for member in stack:
        member -= base
    if n > 3:
        smaller = np.empty_like(base)
        for sweep in range(n):
            for lo, hi in zip(stack[sweep % 2:n - 1:2], stack[sweep % 2 + 1:n:2]):
                np.minimum(lo, hi, out=smaller)
                np.maximum(lo, hi, out=hi)
                lo[...] = smaller
    total = stack[0]
    for member in stack[1:]:
        total += member
    total /= n
    total += base
    return total
