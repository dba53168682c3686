"""Numerical-kernel tests: RNG, layers, Adam, init, and check harnesses."""

import copy
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from attrcap import nncore
from attrcap.nncore import (
    _CHUNK,
    AdamState,
    DimensionError,
    NumericError,
    ParameterError,
    Rng,
    adam_step,
    batchnorm_backward,
    batchnorm_forward,
    check_settings,
    clip_gradients,
    dropout_backward,
    dropout_forward,
    ensemble_mean,
    global_norm,
    matmul,
    sigmoid,
    softmax,
    worker_pool,
    xavier_init,
)

from gradcheck import gradient_check

# ---------------------------------------------------------------------------
# Rng
# ---------------------------------------------------------------------------


def test_rng_same_seed_same_stream():
    a = Rng(42).uniform((100,))
    b = Rng(42).uniform((100,))
    assert np.array_equal(a, b)


def test_rng_different_seeds_differ():
    assert not np.array_equal(Rng(1).uniform((10,)), Rng(2).uniform((10,)))


def test_rng_draws_independent_of_batching():
    whole = Rng(7).uniform((6,))
    rng = Rng(7)
    parts = np.concatenate([rng.uniform((2,)), rng.uniform((3,)), rng.uniform((1,))])
    assert np.array_equal(whole, parts)


def test_rng_uniform_range_and_moments():
    values = Rng(3).uniform((100_000,))
    assert values.min() >= 0.0 and values.max() < 1.0
    assert abs(values.mean() - 0.5) < 0.005
    assert abs(values.var() - 1.0 / 12.0) < 0.002


def test_rng_normal_moments():
    values = Rng(5).normal((100_000,))
    assert np.isfinite(values).all()
    assert abs(values.mean()) < 0.02
    assert abs(values.var() - 1.0) < 0.05


def test_rng_split_is_stable_and_disjoint():
    parent = Rng(9)
    child_before = parent.split(4).uniform((5,))
    parent.uniform((17,))  # consuming draws must not affect later splits
    child_after = parent.split(4).uniform((5,))
    assert np.array_equal(child_before, child_after)
    assert not np.array_equal(child_before, parent.split(5).uniform((5,)))


def test_rng_permutation_is_permutation():
    rng = Rng(13)
    for n in [0, 1, 2, 5, 33]:
        order = rng.permutation(n)
        assert sorted(order.tolist()) == list(range(n))


def test_rng_permutation_deterministic():
    a, b = Rng(21), Rng(21)
    for n in [5, 8, 13]:
        assert np.array_equal(a.permutation(n), b.permutation(n))


def test_rng_permutation_varies_with_seed():
    outputs = {tuple(Rng(seed).permutation(8).tolist()) for seed in range(20)}
    assert len(outputs) > 10


class ReferenceRng:
    """The whole-array SplitMix64 formulas that the block kernels
    replaced: one uint64 array per draw, then shift, convert, scale."""

    GAMMA = np.uint64(0x9E3779B97F4A7C15)

    def __init__(self, seed):
        self.seed = np.uint64(int(seed) & (2 ** 64 - 1))
        self.position = 0

    @staticmethod
    def mix64(z):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def raw(self, count):
        index = np.arange(self.position + 1, self.position + count + 1, dtype=np.uint64)
        self.position += count
        with np.errstate(over="ignore"):
            return self.mix64(self.seed + index * self.GAMMA)

    def split(self, tag):
        key = np.uint64((int(tag) & (2 ** 64 - 1)) ^ 0x5851F42D4C957F2D)
        with np.errstate(over="ignore"):
            child = self.mix64(np.array([self.seed ^ self.mix64(np.array([key]))[0]],
                                        dtype=np.uint64))[0]
        return ReferenceRng(int(child))

    def uniform(self, shape):
        values = (self.raw(int(np.prod(shape))) >> np.uint64(11)).astype(np.float64)
        values *= 2.0 ** -53
        return values.reshape(shape)

    def normal(self, shape):
        count = int(np.prod(shape))
        u1 = (self.raw(count) >> np.uint64(11)).astype(np.float64) + 1.0
        u1 *= 2.0 ** -53
        u2 = (self.raw(count) >> np.uint64(11)).astype(np.float64)
        u2 *= 2.0 ** -53
        return (np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)).reshape(shape)

    def permutation(self, n):
        order = np.arange(n, dtype=np.int64)
        if n < 2:
            return order
        picks = self.uniform((n - 1,))
        for i in range(n - 1, 0, -1):
            j = int(picks[n - 1 - i] * (i + 1))
            order[i], order[j] = order[j], order[i]
        return order

    def xavier(self, rows, cols):
        bound = np.sqrt(6.0 / (rows + cols))
        return self.uniform((rows, cols)) * (2.0 * bound) - bound


BLOCK_COUNTS = [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5]


def assert_same_draws(rng, reference, count):
    """Each draw kind, in turn on both streams, gives the same bytes."""
    assert rng.uniform((count,)).tobytes() == reference.uniform((count,)).tobytes()
    assert rng.normal((count,)).tobytes() == reference.normal((count,)).tobytes()
    assert np.array_equal(rng.permutation(count), reference.permutation(count))
    assert xavier_init(1, count, rng).tobytes() == reference.xavier(1, count).tobytes()
    assert rng.uniform() == reference.uniform((1,))[0]
    assert rng.normal() == reference.normal((1,))[0]


@pytest.mark.parametrize("count", BLOCK_COUNTS)
@pytest.mark.parametrize("consumed", [0, _CHUNK // 2 + 3])
def test_draws_are_bitwise_the_whole_array_formulas(count, consumed):
    for seed in (0, 77, 2 ** 64 - 1):
        rng, reference = Rng(seed), ReferenceRng(seed)
        # A stream part-way through a block must continue where it was.
        assert rng.uniform((consumed,)).tobytes() == reference.uniform((consumed,)).tobytes()
        assert_same_draws(rng, reference, count)


@pytest.mark.parametrize("count", BLOCK_COUNTS)
def test_split_streams_are_bitwise_the_whole_array_formulas(count):
    rng, reference = Rng(31), ReferenceRng(31)
    rng.normal((5,))
    reference.normal((5,))
    for tag in (0, 3, 2 ** 64 + 3):
        child, reference_child = rng.split(tag), reference.split(tag)
        assert child.seed == int(reference_child.seed)
        assert_same_draws(child, reference_child, count)


def test_xavier_matrix_is_bitwise_the_whole_array_formula():
    for rows, cols in [(0, 4), (3, 5), (181, 181), (256, 384)]:
        got = xavier_init(rows, cols, Rng(12))
        assert got.shape == (rows, cols)
        assert got.tobytes() == ReferenceRng(12).xavier(rows, cols).tobytes()
        # Drawn into a slab of a larger array, as the decoder's stacked gates are.
        stacked = np.full((2, rows, cols), 7.0)
        slab = stacked[1]
        assert xavier_init(rows, cols, Rng(12), out=slab) is slab
        assert stacked[1].tobytes() == got.tobytes()
        assert (stacked[0] == 7.0).all()


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("consumed", [0, 5])
def test_xavier_on_the_pool_is_bitwise_the_whole_array_formula(pool_of, workers, consumed):
    pool_of(workers)
    rows, cols = 7, _CHUNK // 2 + 3  # four blocks, the last one short
    assert rows * cols % _CHUNK
    rng, reference = Rng(19), ReferenceRng(19)
    # A stream that drew before the call continues where it was.
    assert rng.uniform((consumed,)).tobytes() == reference.uniform((consumed,)).tobytes()
    assert xavier_init(rows, cols, rng).tobytes() == reference.xavier(rows, cols).tobytes()
    # The call advanced the stream by exactly rows * cols draws.
    assert rng.uniform((9,)).tobytes() == reference.uniform((9,)).tobytes()


def test_xavier_rejects_an_output_it_cannot_fill_in_place():
    for out in [np.empty((4, 3)), np.empty((6, 4))[::2], np.empty((4, 3)).T]:
        with pytest.raises(DimensionError, match="C-contiguous"):
            xavier_init(3, 4, Rng(1), out=out)


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------


def test_dropout_rate_zero_is_identity():
    x = Rng(2).normal((4, 5))
    for mode in ["train", "inference"]:
        out, cache = dropout_forward(x, 0.0, mode, Rng(0))
        assert np.array_equal(out, x)
        assert np.array_equal(dropout_backward(x, cache), x)


def test_dropout_inference_is_identity():
    x = Rng(2).normal((4, 5))
    out, _ = dropout_forward(x, 0.3, "inference")
    assert np.array_equal(out, x)


def test_dropout_survivor_fraction():
    x = np.ones((1000, 1000))
    out, _ = dropout_forward(x, 0.3, "train", Rng(6))
    survivors = float((out != 0).mean())
    assert abs(survivors - 0.7) < 0.002
    # Inverted scaling: surviving activations are x / (1 - rate).
    assert np.allclose(out[out != 0], 1.0 / 0.7, rtol=0, atol=1e-15)


def test_dropout_preserves_expectation():
    x = np.ones((500, 500))
    out, _ = dropout_forward(x, 0.4, "train", Rng(8))
    assert abs(out.mean() - 1.0) < 0.01


def test_dropout_backward_uses_same_mask():
    x = Rng(3).normal((50, 50))
    out, cache = dropout_forward(x, 0.5, "train", Rng(4))
    dx = dropout_backward(np.ones_like(x), cache)
    assert np.array_equal(dx != 0, out != 0)


def test_dropout_parameter_errors():
    x = np.zeros((2, 2))
    with pytest.raises(ParameterError):
        dropout_forward(x, 1.0, "train", Rng(0))
    with pytest.raises(ParameterError):
        dropout_forward(x, -0.1, "train", Rng(0))
    with pytest.raises(ParameterError):
        dropout_forward(x, 0.5, "train", None)
    with pytest.raises(ParameterError):
        dropout_forward(x, 0.5, "evaluate", Rng(0))


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------


def test_batchnorm_standardizes_in_train_mode():
    x = Rng(10).normal((32, 6)) * 3.0 + 5.0
    out, _ = batchnorm_forward(x, np.ones(6), np.zeros(6), np.zeros(6), np.ones(6),
                               "train")
    assert np.abs(out.mean(axis=0)).max() < 1e-9
    assert np.abs(out.var(axis=0) - 1.0).max() < 1e-4  # eps shifts variance


def test_batchnorm_gamma_beta_affect_output():
    x = Rng(10).normal((16, 3))
    gamma = np.array([2.0, 1.0, 0.5])
    beta = np.array([1.0, -1.0, 0.0])
    out, _ = batchnorm_forward(x, gamma, beta, np.zeros(3), np.ones(3), "train")
    assert np.allclose(out.mean(axis=0), beta, atol=1e-9)


def test_batchnorm_inference_with_batch_stats_matches_train():
    x = Rng(12).normal((8, 4)) * 2.0 + 1.0
    train_out, _ = batchnorm_forward(
        x, np.ones(4), np.zeros(4), np.zeros(4), np.ones(4), "train"
    )
    infer_out, _ = batchnorm_forward(x, np.ones(4), np.zeros(4), x.mean(axis=0),
                                     x.var(axis=0), "inference")
    assert np.allclose(train_out, infer_out, rtol=0, atol=1e-12)


def test_batchnorm_running_statistics_update():
    x = Rng(14).normal((10, 3)) + 4.0
    running_mean, running_var = np.zeros(3), np.ones(3)
    batchnorm_forward(x, np.ones(3), np.zeros(3), running_mean, running_var, "train")
    assert np.allclose(running_mean, 0.1 * x.mean(axis=0), atol=1e-12)
    assert np.allclose(running_var, 0.9 + 0.1 * x.var(axis=0), atol=1e-12)


def test_batchnorm_train_mode_folds_statistics_into_the_given_arrays():
    x = Rng(16).normal((9, 5)) * 2.0 - 1.0
    running_mean, running_var = Rng(17).normal((5,)), 0.5 + Rng(18).uniform((5,))
    want_mean = 0.9 * running_mean + (1 - 0.9) * x.mean(axis=0)
    want_var = 0.9 * running_var + (1 - 0.9) * x.var(axis=0)
    # The caller's own arrays hold the new statistics: nothing is returned.
    batchnorm_forward(x, np.ones(5), np.zeros(5), running_mean, running_var, "train")
    assert running_mean.tobytes() == want_mean.tobytes()
    assert running_var.tobytes() == want_var.tobytes()


def test_batchnorm_inference_does_not_touch_state():
    running_mean, running_var = np.zeros(3), np.ones(3)
    before = (running_mean.copy(), running_var.copy())
    batchnorm_forward(Rng(1).normal((4, 3)), np.ones(3), np.zeros(3),
                      running_mean, running_var, "inference")
    assert np.array_equal(running_mean, before[0])
    assert np.array_equal(running_var, before[1])


def test_batchnorm_rejects_singleton_train_batch():
    with pytest.raises(ParameterError, match="at least 2"):
        batchnorm_forward(np.zeros((1, 3)), np.ones(3), np.zeros(3),
                          np.zeros(3), np.ones(3), "train")


def test_batchnorm_rejects_unknown_mode():
    with pytest.raises(ParameterError):
        batchnorm_forward(np.zeros((4, 3)), np.ones(3), np.zeros(3),
                          np.zeros(3), np.ones(3), "predict")


def test_batchnorm_gradients_match_finite_differences():
    rng = Rng(15)
    weight_on_out = rng.normal((7, 4))

    def loss_fn(params):
        out, cache = batchnorm_forward(
            params["x"], params["gamma"], params["beta"], np.zeros(4), np.ones(4),
            "train"
        )
        loss = float(np.sum(out * weight_on_out))
        dx, dgamma, dbeta = batchnorm_backward(weight_on_out, cache)
        return loss, {"x": dx, "gamma": dgamma, "beta": dbeta}

    params = {
        "x": rng.normal((7, 4)) * 2.0 + 0.5,
        "gamma": rng.uniform((4,)) + 0.5,
        "beta": rng.normal((4,)),
    }
    assert gradient_check(loss_fn, params, eps=1e-5) < 1e-6


# ---------------------------------------------------------------------------
# sigmoid / softmax
# ---------------------------------------------------------------------------


def test_sigmoid_values_and_stability():
    x = np.array([-1000.0, -1.0, 0.0, 1.0, 1000.0])
    out = sigmoid(x)
    assert out[2] == 0.5
    assert np.isfinite(out).all()
    assert np.allclose(out[1:4], 1.0 / (1.0 + np.exp(-x[1:4])), atol=1e-15)
    assert out[0] == 0.0 and out[4] == 1.0
    assert (np.diff(out) >= 0).all()


def reference_sigmoid(x):
    """The boolean-mask formula ``sigmoid`` once used."""
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def test_sigmoid_is_bitwise_the_mask_formula():
    special = np.array([0.0, -0.0, 800.0, -800.0, 1e308, -1e308, np.inf, -np.inf,
                        5e-324, -5e-324, 36.7, -36.7, 745.2, -745.2, 709.8, -709.8])
    for x in (special, Rng(17).normal((3, 16, 32)) * 10.0,
              Rng(18).normal((5, 7)) * 1000.0, np.zeros((0, 4))):
        got, want = sigmoid(x), reference_sigmoid(x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    # Only a NaN's sign bit may differ.
    nan = np.array([np.nan, -np.nan, 1.0])
    assert np.isnan(sigmoid(nan)[:2]).all() and sigmoid(nan)[2] == reference_sigmoid(nan)[2]


def test_softmax_rows_sum_to_one_and_shift_invariant():
    x = Rng(16).normal((5, 7)) * 10.0
    probs = softmax(x)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12
    assert (probs > 0).all()
    shifted = softmax(x + 123.4)
    assert np.allclose(probs, shifted, atol=1e-12)
    assert np.isfinite(softmax(np.array([[1e4, -1e4]]))).all()


def reference_softmax(x):
    """The allocating softmax that the one writing into ``out`` replaced."""
    shifted = x - x.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def test_softmax_into_a_buffer_is_bitwise_the_allocating_softmax():
    x = Rng(17).normal((6, 37)) * 20.0
    want = reference_softmax(x).tobytes()
    assert softmax(x).tobytes() == want
    buffer = np.empty_like(x)
    assert softmax(x, out=buffer) is buffer
    assert buffer.tobytes() == want
    inplace = x.copy()
    assert softmax(inplace, out=inplace) is inplace
    assert inplace.tobytes() == want


# ---------------------------------------------------------------------------
# xavier init
# ---------------------------------------------------------------------------


def test_xavier_reproducible_and_bounded():
    a = xavier_init(30, 20, Rng(42))
    b = xavier_init(30, 20, Rng(42))
    assert np.array_equal(a, b)
    bound = np.sqrt(6.0 / 50)
    assert np.abs(a).max() <= bound


def test_xavier_variance_matches_uniform_law():
    rows, cols = 250, 400
    values = xavier_init(rows, cols, Rng(7))
    expected = 2.0 / (rows + cols)  # variance of U(-b, b) with b² = 6/(r+c)
    assert abs(values.var() / expected - 1.0) < 0.05


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_keeps_parameters():
    params = {"w": Rng(1).normal((3, 3))}
    before = params["w"].copy()
    state = AdamState(learning_rate=0.1)
    assert adam_step(params, {"w": np.zeros((3, 3))}, state) is None
    assert np.array_equal(params["w"], before)


def test_adam_first_step_magnitude_is_learning_rate():
    params = {"w": np.array([1.0, -1.0, 2.0])}
    grads = {"w": np.array([0.3, -0.7, 0.001])}
    before = params["w"].copy()
    state = AdamState(learning_rate=0.05)
    adam_step(params, grads, state)
    delta = params["w"] - before
    assert np.allclose(delta, -np.sign(grads["w"]) * 0.05, rtol=1e-4)


def test_adam_descends_quadratic():
    params = {"w": np.array([1.0])}
    state = AdamState(learning_rate=0.1)
    for _ in range(200):
        adam_step(params, {"w": 2.0 * params["w"]}, state)
    assert abs(params["w"][0]) < 1e-2


def test_adam_zero_learning_rate_is_identity():
    params = {"w": Rng(2).normal((4,))}
    before = params["w"].copy()
    state = AdamState(learning_rate=0.0)
    for _ in range(5):
        adam_step(params, {"w": Rng(3).normal((4,))}, state)
    assert np.array_equal(params["w"], before)


def test_adam_rejects_non_finite_gradients():
    state = AdamState(learning_rate=0.1)
    with pytest.raises(NumericError):
        adam_step({"w": np.zeros(2)}, {"w": np.array([1.0, np.nan])}, state)
    with pytest.raises(NumericError):
        adam_step({"w": np.zeros(2)}, {"w": np.array([np.inf, 0.0])}, state)


def test_adam_rejects_shape_mismatch():
    state = AdamState(learning_rate=0.1)
    with pytest.raises(DimensionError):
        adam_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, state)


def reference_adam_step(params, grads, state):
    """The whole-array Adam update that the block kernel replaced; it
    returns new parameter arrays."""
    state.step += 1
    correction1 = 1.0 - 0.9 ** state.step
    correction2 = 1.0 - 0.999 ** state.step
    updated = {}
    for name, value in params.items():
        grad = grads[name]
        m = state.moment1.get(name, np.zeros_like(value))
        v = state.moment2.get(name, np.zeros_like(value))
        m = 0.9 * m + (1.0 - 0.9) * grad
        v = 0.999 * v + (1.0 - 0.999) * grad * grad
        state.moment1[name] = m
        state.moment2[name] = v
        updated[name] = value - state.learning_rate * (m / correction1) / (
            np.sqrt(v / correction2) + 1e-8)
    return updated


ADAM_SHAPES = {"scalar": (), "empty": (0,), "short": (7,), "wide": (5, 9),
               "tall": (8, 6), "long": (2, _CHUNK // 2 + 11)}


def test_adam_is_bitwise_the_whole_array_update():
    rng = Rng(40)
    params = {name: np.asarray(rng.normal(shape)) for name, shape in ADAM_SHAPES.items()}
    state = AdamState(learning_rate=0.01)
    reference = AdamState(learning_rate=0.01)
    for _ in range(5):
        grads = {name: np.asarray(rng.normal(shape)) for name, shape in ADAM_SHAPES.items()}
        passed = dict(params)
        grad_copies = {name: grad.copy() for name, grad in grads.items()}
        expected = reference_adam_step({name: p.copy() for name, p in params.items()},
                                       grads, reference)
        assert adam_step(params, grads, state) is None
        assert state.step == reference.step
        for name in ADAM_SHAPES:
            # The new values are written into the very arrays passed in.
            assert params[name] is passed[name], name
            assert params[name].shape == ADAM_SHAPES[name]
            assert params[name].tobytes() == expected[name].tobytes(), name
            assert state.moment1[name].tobytes() == reference.moment1[name].tobytes()
            assert state.moment2[name].tobytes() == reference.moment2[name].tobytes()
            # The gradients are only read.
            assert grads[name].tobytes() == grad_copies[name].tobytes(), name


def strided(vector):
    """A copy of ``vector`` that is not C-contiguous."""
    return np.repeat(vector, 2)[::2]


def adam_snapshot(params, state):
    return ({name: p.tobytes() for name, p in params.items()}, state.step,
            {name: m.tobytes() for name, m in state.moment1.items()},
            {name: v.tobytes() for name, v in state.moment2.items()})


@pytest.mark.parametrize("primed", [False, True])
def test_rejected_adam_step_leaves_the_state_unchanged(primed):
    rng = Rng(41)
    params = {"a": rng.normal((3, 4)), "b": rng.normal((_CHUNK + 9,))}
    state = AdamState(learning_rate=0.01)
    if primed:
        adam_step(params, {name: rng.normal(p.shape) for name, p in params.items()}, state)
    before = adam_snapshot(params, state)
    grads = {name: rng.normal(p.shape) for name, p in params.items()}
    # A non-finite value in the last block of the last tensor, then a
    # misshapen last tensor: the first tensor has already been checked.
    for bad in (np.nan, -np.inf):
        grads["b"][-1] = bad
        with pytest.raises(NumericError, match="non-finite gradient for b"):
            adam_step(params, grads, state)
        assert adam_snapshot(params, state) == before
    with pytest.raises(DimensionError, match="gradient for b has shape"):
        adam_step(params, dict(grads, b=np.zeros(3)), state)
    assert adam_snapshot(params, state) == before
    # A gradient, then a parameter, that is not C-contiguous.
    with pytest.raises(DimensionError, match="gradient for b is not C-contiguous"):
        adam_step(params, dict(grads, b=strided(grads["b"])), state)
    assert adam_snapshot(params, state) == before
    fortran = dict(params, a=np.asfortranarray(params["a"]))
    with pytest.raises(DimensionError, match="parameter a is not C-contiguous"):
        adam_step(fortran, grads, state)
    assert adam_snapshot(fortran, state) == adam_snapshot(params, state) == before


@pytest.mark.parametrize("primed", [False, True])
def test_rejected_adam_step_names_the_first_bad_tensor_whichever_worker_checks_it(
        pool_of, primed):
    # Two workers deal blocks of _CHUNK (2 * _CHUNK // 2) round-robin:
    # "a" spans blocks 0-2 and "b" blocks 3-4. Block 1 of "a" goes to
    # worker 1 and block 4 of "b" to worker 0, which checks it while
    # worker 1 may still be on block 1.
    pool_of(2)
    block = _CHUNK
    rng = Rng(46)
    params = {"a": rng.normal((3 * block,)), "b": rng.normal((2 * block,))}
    state = AdamState(learning_rate=0.01)
    if primed:
        adam_step(params, {name: rng.normal(p.shape) for name, p in params.items()}, state)
    before = adam_snapshot(params, state)
    grads = {name: rng.normal(p.shape) for name, p in params.items()}
    grads["b"][block + 1] = np.inf
    with pytest.raises(NumericError, match="non-finite gradient for b"):
        adam_step(params, grads, state)
    assert adam_snapshot(params, state) == before
    grads["a"][block + 5] = np.nan
    with pytest.raises(NumericError, match="non-finite gradient for a"):
        adam_step(params, grads, state)
    assert adam_snapshot(params, state) == before


def adam_groups(groups, requested):
    """Yield ``groups`` one at a time, recording each request."""
    for k, group in enumerate(groups):
        requested.append(k)
        yield group


@pytest.mark.parametrize("primed", [False, True])
def test_adam_groups_are_bitwise_one_whole_dict_step(primed):
    rng = Rng(44)
    shapes = {"a": (3, 4), "b": (_CHUNK + 9,), "c": (), "d": (5,)}
    params = {name: np.asarray(rng.normal(shape)) for name, shape in shapes.items()}
    state = AdamState(learning_rate=0.01)
    if primed:
        adam_step(params, {name: np.asarray(rng.normal(p.shape))
                           for name, p in params.items()}, state)
    whole_params = {name: p.copy() for name, p in params.items()}
    whole = AdamState(learning_rate=0.01, step=state.step,
                      moment1={n: m.copy() for n, m in state.moment1.items()},
                      moment2={n: v.copy() for n, v in state.moment2.items()})
    for _ in range(2):
        grads = {name: np.asarray(rng.normal(p.shape)) for name, p in params.items()}
        adam_step(whole_params, grads, whole)
        requested = []
        # In any order; the step advances once per call, not per group.
        assert adam_step(params, adam_groups([{"d": grads["d"], "b": grads["b"]},
                                              {"c": grads["c"]}, {"a": grads["a"]}],
                                             requested), state) is None
        assert requested == [0, 1, 2]
        assert adam_snapshot(params, state) == adam_snapshot(whole_params, whole)


@pytest.mark.parametrize("primed", [False, True])
def test_rejected_adam_group_is_untouched_and_ends_the_step(primed):
    rng = Rng(45)
    params = {"a": rng.normal((3, 4)), "b": rng.normal((_CHUNK + 9,)),
              "c": rng.normal((6,))}
    state = AdamState(learning_rate=0.01)
    if primed:
        adam_step(params, {name: rng.normal(p.shape) for name, p in params.items()}, state)
    grads = {name: rng.normal(p.shape) for name, p in params.items()}
    # The expected state: group {"a"} applied as this call's step.
    expected_params = {name: p.copy() for name, p in params.items()}
    expected = AdamState(learning_rate=0.01, step=state.step,
                         moment1={n: m.copy() for n, m in state.moment1.items()},
                         moment2={n: v.copy() for n, v in state.moment2.items()})
    adam_step(expected_params, adam_groups([{"a": grads["a"]}], []), expected)
    assert expected.step == state.step + 1
    bad_b, bad_c = grads["b"].copy(), grads["c"].copy()
    bad_b[-1] = np.inf
    bad_c[0] = np.nan
    # The second group is named by its first bad tensor in the group's
    # order, and the third is never requested: a non-finite gradient, a
    # gradient or a parameter that is not C-contiguous.
    for second, layout, error, message in [
            ({"c": bad_c, "b": bad_b}, {}, NumericError, "non-finite gradient for c"),
            ({"c": grads["c"], "b": strided(grads["b"])}, {}, DimensionError,
             "gradient for b is not C-contiguous"),
            ({"c": grads["c"], "b": grads["b"]}, {"c": strided(params["c"])}, DimensionError,
             "parameter c is not C-contiguous")]:
        trial_params, trial = dict(copy.deepcopy(params), **layout), copy.deepcopy(state)
        requested = []
        with pytest.raises(error, match=message):
            adam_step(trial_params, adam_groups([{"a": grads["a"]}, second, {}], requested),
                      trial)
        assert requested == [0, 1]
        assert adam_snapshot(trial_params, trial) == adam_snapshot(expected_params, expected)


def adam_row_slab_steps():
    """Two Adam steps given as row slabs, an empty one among them, of a
    matrix whose slabs span several blocks of every worker, of a small
    matrix and of a vector, mixed with a whole parameter and in any
    order, each checked against one whole-dict step (the first allocates
    the moments)."""
    rng = Rng(48)
    shapes = {"long": (5, _CHUNK // 2 + 7), "small": (7, 6), "vector": (11,), "whole": (3, 4)}
    params = {name: np.asarray(rng.normal(shape)) for name, shape in shapes.items()}
    whole_params = {name: p.copy() for name, p in params.items()}
    state = AdamState(learning_rate=0.01)
    whole = AdamState(learning_rate=0.01)
    for _ in range(2):
        grads = {name: np.asarray(rng.normal(shape)) for name, shape in shapes.items()}
        adam_step(whole_params, grads, whole)
        long, small, vector = grads["long"], grads["small"], grads["vector"]
        slabs = [{("long", 2, 5): long[2:], "whole": grads["whole"]},
                 {("small", 0, 3): small[:3], ("vector", 4, 11): vector[4:]},
                 {("long", 0, 2): long[:2], ("small", 3, 3): small[3:3]},
                 {("small", 3, 7): small[3:], ("vector", 0, 4): vector[:4]}]
        requested = []
        assert adam_step(params, adam_groups(slabs, requested), state) is None
        assert requested == [0, 1, 2, 3]
        assert adam_snapshot(params, state) == adam_snapshot(whole_params, whole)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_adam_row_slabs_are_bitwise_one_whole_dict_step(pool_of, workers):
    pool_of(workers)
    # Switching threads as often as possible.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        adam_row_slab_steps()
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("primed", [False, True])
def test_rejected_row_slab_ends_the_step_after_the_slabs_before_it(primed):
    rng = Rng(49)
    params = {"w": rng.normal((9, 4)), "b": rng.normal((4,))}
    state = AdamState(learning_rate=0.01)
    if primed:
        adam_step(params, {name: rng.normal(p.shape) for name, p in params.items()}, state)
    grads = {name: rng.normal(p.shape) for name, p in params.items()}
    step = state.step
    old = [array.copy() for array in (params["w"], state.moment1.get("w", np.zeros((9, 4))),
                                      state.moment2.get("w", np.zeros((9, 4))))]
    # The expected state: the first slab and ``b`` applied as this call's
    # step, and the rest of ``w`` and of its moments as they were.
    expected_params = {name: p.copy() for name, p in params.items()}
    expected = AdamState(learning_rate=0.01, step=state.step,
                         moment1={n: m.copy() for n, m in state.moment1.items()},
                         moment2={n: v.copy() for n, v in state.moment2.items()})
    first = {"b": grads["b"], ("w", 0, 3): grads["w"][:3]}
    adam_step(expected_params, adam_groups([first], []), expected)
    grads["w"][4, 1] = np.nan
    requested = []
    with pytest.raises(NumericError, match="non-finite gradient for w$"):
        adam_step(params, adam_groups([first, {("w", 3, 6): grads["w"][3:6]},
                                       {("w", 6, 9): grads["w"][6:]}], requested), state)
    assert requested == [0, 1]
    assert adam_snapshot(params, state) == adam_snapshot(expected_params, expected)
    assert state.step == step + 1
    # The first slab's rows and moments are updated, the later ones not.
    for array, was in zip((params["w"], state.moment1["w"], state.moment2["w"]), old):
        assert not np.array_equal(array[:3], was[:3])
        assert array[3:].tobytes() == was[3:].tobytes()


def test_adam_rejects_row_ranges_outside_the_parameter():
    params = {"w": np.zeros((4, 3)), "s": np.zeros(())}
    state = AdamState(learning_rate=0.1)
    for name, start, stop in [("w", 3, 5), ("w", -1, 2), ("w", 3, 2), ("s", 0, 0)]:
        grad = np.zeros((max(stop - start, 0), *params[name].shape[1:]))
        with pytest.raises(DimensionError, match=f"rows {start}:{stop} of {name} lie outside"):
            adam_step(params, iter([{(name, start, stop): grad}]), state)
    with pytest.raises(DimensionError, match="gradient for rows 0:2 of w has shape"):
        adam_step(params, iter([{("w", 0, 2): np.zeros((3, 3))}]), state)
    assert state.step == 0 and not state.moment1 and not state.moment2
    assert not params["w"].any()


def peak_traced_bytes(call):
    """Peak bytes that ``call()`` allocates, as ``tracemalloc`` sees it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_adam_step_allocates_little_beyond_its_scratch():
    rng = Rng(42)
    params = {"w": rng.normal((3 * _CHUNK,))}
    grads = {"w": rng.normal((3 * _CHUNK,))}
    state = AdamState(learning_rate=0.01)
    adam_step(params, grads, state)  # the moments now exist
    assert peak_traced_bytes(lambda: adam_step(params, grads, state)) < 2 ** 20


def adam_run(seed):
    """Three Adam steps over tensors that span several blocks of every
    worker."""
    rng = Rng(seed)
    shapes = {"long": (3 * _CHUNK + 5,), "wide": (301, 257), "short": (7,), "scalar": ()}
    params = {name: np.asarray(rng.normal(shape)) for name, shape in shapes.items()}
    state = AdamState(learning_rate=0.01)
    for _ in range(3):
        grads = {name: np.asarray(rng.normal(shape)) for name, shape in shapes.items()}
        adam_step(params, grads, state)
    return ([p.tobytes() for p in params.values()],
            [m.tobytes() for m in state.moment1.values()],
            [v.tobytes() for v in state.moment2.values()])


def test_pool_calls_run_under_the_callers_errstate(pool_of):
    pool_of(2)
    pool = worker_pool()
    with np.errstate(all="ignore"):
        assert pool.map(lambda _: np.geterr()["over"], range(4)) == ["ignore"] * 4
    assert pool.map(lambda _: np.geterr()["over"], range(4)) == [np.geterr()["over"]] * 4


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_pool_deal_returns_the_first_failure_in_item_order(pool_of, workers):
    pool_of(workers)
    pool = worker_pool()

    def deal(items, bad):
        """``pool.deal`` of a check that returns the position of its
        share's first item in ``bad``, and the shares it saw. The share
        that holds the earliest such item finishes last."""
        shares = []

        def check(share):
            shares.append(share)
            if bad and min(bad) in share:
                time.sleep(0.002)
            return next((k for k in share if k in bad), None)

        return pool.deal(check, items), sorted(shares)

    # Switching threads as often as possible.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n in range(8):
            items = list(range(n))
            # Round-robin, one share per worker but never an empty one,
            # each in item order.
            dealt = [items[worker::workers] for worker in range(min(workers, n))]
            for bad in [set(), {0}, {n - 1}, {0, n - 1}, set(items[n // 2:]), {1, 2}]:
                bad &= set(items)
                assert deal(items, bad) == (min(bad, default=None), dealt), (n, bad)
    finally:
        sys.setswitchinterval(interval)


def test_pool_map_from_inside_a_piece_runs_in_that_pieces_thread(pool_of):
    pool_of(2)
    pool = worker_pool()

    def outer(k):
        return threading.get_ident(), pool.map(
            lambda j: (threading.get_ident(), 10 * k + j), range(3))

    results = []
    runner = threading.Thread(target=lambda: results.append(pool.map(outer, range(2))),
                              daemon=True)
    runner.start()
    runner.join(timeout=20)
    if runner.is_alive():
        # Deadlocked: cancel the waiting inner calls, so the pool's threads end.
        pool._executor.shutdown(wait=False, cancel_futures=True)
        pytest.fail("a map made from inside a piece did not finish")
    ((first, inner_first), (second, inner_second)) = results[0]
    assert inner_first == [(first, 0), (first, 1), (first, 2)]
    assert inner_second == [(second, 10), (second, 11), (second, 12)]
    assert threading.get_ident() not in (first, second)


@pytest.mark.parametrize("workers", [2, 3, 5])
def test_adam_is_bitwise_the_same_for_every_worker_count(pool_of, workers):
    pool_of(1)
    alone = adam_run(43)
    pool_of(workers)
    # More workers than cores, switching threads as often as possible.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = adam_run(43)
    finally:
        sys.setswitchinterval(interval)
    assert pooled == alone


def test_uniform_allocates_its_output_and_little_more():
    output = 3 * _CHUNK * 8
    assert peak_traced_bytes(lambda: Rng(0).uniform((3 * _CHUNK,))) < output + 2 ** 20


def test_normal_allocates_its_output_and_a_few_block_buffers():
    # u2 and the bit buffers are _CHUNK long; only the output is whole.
    output = 3 * _CHUNK * 8
    assert peak_traced_bytes(lambda: Rng(0).normal((3 * _CHUNK,))) < output + 5 * _CHUNK * 8


# ---------------------------------------------------------------------------
# gradient clipping
# ---------------------------------------------------------------------------


def test_global_norm_stacks_all_tensors():
    grads = {"a": np.array([3.0]), "b": np.array([[4.0]])}
    assert global_norm(grads) == pytest.approx(5.0, abs=1e-12)


def test_global_norm_is_the_sum_of_squares_norm():
    rng = Rng(44)
    grads = {"long": rng.normal((_CHUNK + 3,)) * 1e3, "transposed": rng.normal((40, 30)).T,
             "scalar": np.asarray(rng.normal(())), "empty": np.zeros((0, 3))}
    want = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
    assert abs(global_norm(grads) - want) <= 1e-12 * want


def test_clip_gradients_under_limit_passes_through():
    grads = {"a": np.array([0.3, 0.4])}
    clipped, norm = clip_gradients(grads, 1.0)
    assert norm == pytest.approx(0.5, abs=1e-12)
    assert np.array_equal(clipped["a"], grads["a"])


def test_clip_gradients_rescales_to_limit():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    clipped, norm = clip_gradients(grads, 1.0)
    assert norm == pytest.approx(5.0, abs=1e-12)
    assert global_norm(clipped) == pytest.approx(1.0, abs=1e-12)
    assert clipped["a"][0] / clipped["b"][0] == pytest.approx(0.75, abs=1e-12)


def test_clip_gradients_scales_the_callers_arrays_in_place():
    rng = Rng(45)
    grads = {"long": rng.normal((_CHUNK + 3,)) * 10.0, "transposed": rng.normal((40, 30)).T,
             "scalar": np.asarray(rng.normal(()))}
    passed = dict(grads)
    copies = {name: grad.copy() for name, grad in grads.items()}
    clipped, norm = clip_gradients(grads, 1.0)
    assert norm == global_norm(copies) > 1.0
    scale = 1.0 / norm
    for name, copy in copies.items():
        assert clipped[name] is passed[name], name
        assert clipped[name].tobytes() == (copy * scale).tobytes(), name


def test_clip_gradients_parameter_errors():
    with pytest.raises(ParameterError):
        clip_gradients({"a": np.ones(2)}, 0.0)
    with pytest.raises(ParameterError):
        clip_gradients({"a": np.ones(2)}, np.nan)
    with pytest.raises(NumericError):
        clip_gradients({"a": np.array([np.inf])}, 1.0)


def test_check_settings_names_the_first_field_out_of_range():
    class Settings:
        width, epochs, rate, dropout = 1, 0, 0.0, 0.0

    check_settings(Settings(), ("width",), ("epochs", "rate"), ("dropout",))
    for name, value, message in [("width", 0, "width must be at least 1"),
                                 ("epochs", -1, "epochs must be finite and at least 0"),
                                 ("rate", np.nan, "rate must be finite"),
                                 ("rate", np.inf, "rate must be finite"),
                                 ("dropout", 1.0, r"dropout must be in \[0, 1\)"),
                                 ("dropout", np.nan, "dropout must be in")]:
        settings = Settings()
        setattr(settings, name, value)
        with pytest.raises(ParameterError, match=message):
            check_settings(settings, ("width",), ("epochs", "rate"), ("dropout",))


# ---------------------------------------------------------------------------
# gradient_check harness
# ---------------------------------------------------------------------------


def test_gradient_check_exact_on_quadratic():
    def loss_fn(params):
        w = params["w"]
        return float(np.sum(w * w)), {"w": 2.0 * w}

    assert gradient_check(loss_fn, {"w": Rng(4).normal((3, 3))}) < 1e-9


def test_gradient_check_flags_wrong_gradient():
    def loss_fn(params):
        w = params["w"]
        return float(np.sum(w * w)), {"w": 3.0 * w}  # wrong by 1.5x

    assert gradient_check(loss_fn, {"w": np.ones(4)}) > 0.3


def test_gradient_check_rejects_non_finite_loss():
    with pytest.raises(NumericError):
        gradient_check(lambda p: (float("nan"), {"w": p["w"]}), {"w": np.ones(2)})


def test_gradient_check_small_mlp():
    rng = Rng(17)
    x = rng.normal((5, 4))
    target = rng.normal((5, 2))

    def loss_fn(params):
        h = np.maximum(x @ params["w1"] + params["b1"], 0.0)
        out = h @ params["w2"] + params["b2"]
        diff = out - target
        loss = float(np.mean(diff * diff))
        dout = 2.0 * diff / diff.size
        dh = (dout @ params["w2"].T) * (h > 0.0)
        return loss, {"w1": x.T @ dh, "b1": dh.sum(axis=0),
                      "w2": h.T @ dout, "b2": dout.sum(axis=0)}

    params = {
        "w1": xavier_init(4, 6, rng.split(1)),
        "b1": rng.normal((6,)) * 0.1,
        "w2": xavier_init(6, 2, rng.split(2)),
        "b2": rng.normal((2,)) * 0.1,
    }
    assert gradient_check(loss_fn, params, eps=1e-5) < 1e-4


# ---------------------------------------------------------------------------
# ensemble mean
# ---------------------------------------------------------------------------


def test_ensemble_mean_single_member_is_bitwise_identity():
    member = Rng(5).normal((4, 6))
    out = ensemble_mean(member[None])
    assert np.array_equal(out, member)


def test_ensemble_mean_identical_members_is_bitwise_identity():
    member = Rng(6).normal((3, 5))
    for k in [2, 3, 7]:
        stack = np.repeat(member[None], k, axis=0)
        assert np.array_equal(ensemble_mean(stack), member)


def test_ensemble_mean_is_permutation_invariant_bitwise():
    stack = Rng(7).normal((5, 8))
    shuffled = stack[[3, 0, 4, 1, 2]]
    assert np.array_equal(ensemble_mean(stack), ensemble_mean(shuffled))


def test_ensemble_mean_two_members():
    a = np.full((2, 2), 0.2)
    b = np.full((2, 2), 0.4)
    out = ensemble_mean(np.stack([a, b]))
    assert np.allclose(out, 0.3, atol=1e-15)


def test_ensemble_mean_matches_plain_mean():
    stack = Rng(8).normal((6, 10, 3))
    want = stack.mean(axis=0)  # before the mean overwrites the stack
    assert np.allclose(ensemble_mean(stack), want, atol=1e-12)


def sorted_ensemble_mean(stack):
    """The formula with a full sort of the member axis, which the
    minimum/maximum network replaced."""
    if stack.shape[0] == 1:
        return stack[0].copy()
    base = stack.min(axis=0)
    return base + np.sort(stack - base, axis=0).sum(axis=0) / stack.shape[0]


def allocating_ensemble_mean(stack):
    """The network formula on a fresh difference array, returning a
    fresh mean: what the in-place reduction replaced."""
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


def tied_stacks(seed):
    """``(k, trial, stack)`` for K = 1..6 members of (7, 9) values."""
    rng = Rng(seed)
    for k in range(1, 7):
        for trial in range(4):
            # Few distinct values, zeros among them, so members repeat
            # values elementwise; every other trial mixes in unique ones.
            values = np.array([0.0, 0.0, 0.125, 0.3, 1e-300, 2.5])
            stack = values[(rng.uniform((k, 7, 9)) * 6).astype(int)]
            if trial % 2:
                stack = np.where(rng.uniform((k, 7, 9)) < 0.5,
                                 rng.normal((k, 7, 9)), stack)
            if trial == 3:
                stack[1:] = stack[0]  # identical members
            yield k, trial, stack


def test_ensemble_mean_network_is_bitwise_the_sorted_formula():
    for k, trial, stack in tied_stacks(9):
        want = sorted_ensemble_mean(stack)  # before the mean overwrites the stack
        assert ensemble_mean(stack).tobytes() == want.tobytes(), (k, trial)


def test_ensemble_mean_in_place_is_bitwise_the_allocating_formula():
    for k, trial, stack in tied_stacks(10):
        want = allocating_ensemble_mean(stack)
        # The decoder's stack: the leading rows of a larger buffer.
        buffer = np.full((k, 10, 9), np.nan)
        buffer[:, :7] = stack
        got = ensemble_mean(buffer[:, :7])
        assert np.shares_memory(got, buffer[0, :7]) and got.shape == (7, 9), (k, trial)
        assert got.tobytes() == want.tobytes(), (k, trial)
        assert np.isnan(buffer[:, 7:]).all(), (k, trial)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_ensemble_mean_of_scalar_members(k):
    values = [1.0, 2.0, 4.0, 8.0, 0.5][:k]
    want = sorted_ensemble_mean(np.array(values))
    assert ensemble_mean(np.array(values)).tobytes() == want.tobytes()
    got = ensemble_mean(list(values))
    assert got.shape == () and got.tobytes() == want.tobytes()


def test_ensemble_mean_needs_members():
    with pytest.raises(DimensionError):
        ensemble_mean(np.zeros((0, 3)))


# ---------------------------------------------------------------------------
# matrix products
# ---------------------------------------------------------------------------

PANEL = nncore._PANEL


def test_matmul_of_one_panel_is_bitwise_np_matmul():
    rng = Rng(60)
    for m, k, n in [(3, 5, 1), (7, 4, PANEL), (1, 9, 300), (40, 33, PANEL - 1)]:
        a, b = rng.normal((m, k)), rng.normal((k, n))
        assert matmul(a, b).tobytes() == np.matmul(a, b).tobytes(), (m, k, n)
    for a, b in [(np.ones((4, 0)), np.ones((0, 6))), (np.ones((5, 3)), np.ones((3, 0)))]:
        assert matmul(a, b).tobytes() == np.matmul(a, b).tobytes()


def relative_error(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_matmul_with_a_short_last_panel_is_within_1e_10_of_np_matmul(pool_of, workers):
    pool_of(workers)
    rng = Rng(61)
    a, b = rng.normal((9, 700)), rng.normal((700, 2 * PANEL + 77))
    want = np.matmul(a, b)
    got = matmul(a, b)
    assert got.shape == want.shape and relative_error(got, want) <= 1e-10
    # Panels start where the constant puts them, whatever the pool size.
    pool_of(1)
    assert got.tobytes() == matmul(a, b).tobytes()


def test_matmul_takes_transposed_and_column_sliced_operands_and_an_out_view():
    rng = Rng(62)
    width = 2 * PANEL + 77
    a = rng.normal((700, 9)).T
    b = rng.normal((width + 20, 700)).T[:, 5:5 + width]
    assert not a.flags.c_contiguous and not b.flags.c_contiguous
    flat = np.full(9 * width + 13, np.nan)
    out = flat[:9 * width].reshape(9, width)
    got = matmul(a, b, out=out)
    assert got is out
    assert relative_error(out, np.matmul(a, b)) <= 1e-10
    assert np.isnan(flat[9 * width:]).all()
    # A transposed, column-sliced weight as the backward pass reads it.
    w = rng.normal((width, 40))
    x = rng.normal((6, 40))
    assert relative_error(matmul(x, w.T), np.matmul(x, w.T)) <= 1e-10
    assert matmul(x, w[:PANEL].T).tobytes() == np.matmul(x, w[:PANEL].T).tobytes()
