"""Tests for the attribute-conditioned caption decoder."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from attrcap import nncore, scnlstm
from attrcap.nncore import (
    DimensionError,
    ParameterError,
    Rng,
    clip_gradients,
    dropout_backward,
    dropout_forward,
    ensemble_mean,
    sigmoid,
    softmax,
    xavier_init,
)
from attrcap.scnlstm import (
    BOS_ID,
    EOS_ID,
    UNK_ID,
    CaptionSequence,
    CaptionTrainConfig,
    CaptionVocab,
    ScnLstm,
    ScnLstmConfig,
    beam_search,
    ensemble_beam_search,
    ensemble_beam_search_block,
    load_captioner_ensemble,
    save_captioner,
    save_captioner_ensemble,
    train_captioner,
)

from gradcheck import gradient_check

TINY = ScnLstmConfig(
    vocab_size=5, n_words=2, feature_dim=3, embed_dim=3,
    hidden_dim=4, factor_dim=4, dropout=0.0,
)


def tiny_model(seed=0, scale=None, config=TINY):
    model = ScnLstm(config, seed=seed)
    if scale is not None:
        model.params = {k: v * scale for k, v in model.params.items()}
    return model


def zero_model(config=TINY):
    model = ScnLstm(config, seed=0)
    model.params = {k: np.zeros_like(v) for k, v in model.params.items()}
    return model


def tiny_inputs(seed=100):
    rng = Rng(seed)
    return rng.normal((TINY.feature_dim,)), np.abs(rng.normal((TINY.n_words,)))


# ---------------------------------------------------------------------------
# Token vocabulary
# ---------------------------------------------------------------------------


def test_vocab_orders_words_by_count_then_alphabet():
    lists = [["dog", "cat", "a"], ["a", "dog", "cat"], ["a", "zebra"],
             ["a", "apple", "zebra"], ["a", "dog"]]
    vocab = CaptionVocab.from_token_lists(lists, min_count=2)
    assert vocab.words == ["<bos>", "<eos>", "<unk>", "a", "dog", "cat", "zebra"]
    assert len(vocab) == 7
    assert vocab.index["a"] == 3


def test_vocab_default_min_count_drops_rare_words():
    lists = [["a", "b"]] * 4 + [["a"]]
    vocab = CaptionVocab.from_token_lists(lists)
    assert vocab.words == ["<bos>", "<eos>", "<unk>", "a"]


def test_vocab_encode_wraps_sequence_and_maps_unknowns():
    vocab = CaptionVocab(words=["<bos>", "<eos>", "<unk>", "a", "dog"])
    assert vocab.encode(["a", "dog", "xyzzy"]) == [BOS_ID, 3, 4, UNK_ID, EOS_ID]
    assert vocab.encode([]) == [BOS_ID, EOS_ID]


def test_vocab_decode_stops_at_eos_and_keeps_unknown_marker():
    vocab = CaptionVocab(words=["<bos>", "<eos>", "<unk>", "a", "dog"])
    assert vocab.decode([BOS_ID, 4, UNK_ID, 3, EOS_ID, 4]) == ["dog", "<unk>", "a"]
    assert vocab.decode([BOS_ID, EOS_ID]) == []


def test_vocab_encode_decode_roundtrip_for_known_words():
    vocab = CaptionVocab.from_token_lists([["red", "cat"], ["red", "dog"]],
                                          min_count=1)
    tokens = ["red", "cat", "dog"]
    assert vocab.decode(vocab.encode(tokens)) == tokens


# ---------------------------------------------------------------------------
# Decoded sequences
# ---------------------------------------------------------------------------


def test_sequence_requires_bos_start_and_eos_end():
    seq = CaptionSequence(tokens=(BOS_ID, 3, 4, EOS_ID), log_prob=-1.0)
    assert seq.length == 3
    with pytest.raises(DimensionError):
        CaptionSequence(tokens=(3, 4, EOS_ID), log_prob=-1.0)
    with pytest.raises(DimensionError):
        CaptionSequence(tokens=(BOS_ID, 3, 4), log_prob=-1.0)
    with pytest.raises(DimensionError):
        CaptionSequence(tokens=(), log_prob=0.0)


def test_sequence_rejects_interior_specials():
    with pytest.raises(DimensionError):
        CaptionSequence(tokens=(BOS_ID, EOS_ID, 3, EOS_ID), log_prob=-1.0)
    with pytest.raises(DimensionError):
        CaptionSequence(tokens=(BOS_ID, 3, BOS_ID, EOS_ID), log_prob=-1.0)


# ---------------------------------------------------------------------------
# Parameter initialization
# ---------------------------------------------------------------------------


def test_init_is_seed_reproducible():
    a = ScnLstm(TINY, seed=3)
    b = ScnLstm(TINY, seed=3)
    c = ScnLstm(TINY, seed=4)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
    assert any(not np.array_equal(a.params[n], c.params[n]) for n in a.params)


def test_init_shapes_and_zero_biases():
    cfg = ScnLstmConfig(vocab_size=7, n_words=3, feature_dim=6, embed_dim=4,
                        hidden_dim=5, factor_dim=2, dropout=0.0)
    model = ScnLstm(cfg, seed=0)
    p = model.params
    # Gate weights are stacked in gate order i, f, o, c.
    assert p["Wa"].shape == (4, 5, 2)
    assert p["Wb"].shape == (8, 3)
    assert p["Wc"].shape == (8, 4)
    assert p["Ua"].shape == (4, 5, 2)
    assert p["Ub"].shape == (8, 3)
    assert p["Uc"].shape == (8, 5)
    assert np.array_equal(p["b"], np.zeros(20))
    assert p["Cv"].shape == (5, 6)
    assert p["embed"].shape == (7, 4)
    assert p["Wout"].shape == (7, 5)
    assert np.array_equal(p["bout"], np.zeros(7))


def test_stacked_init_slices_are_the_per_gate_draws():
    cfg = ScnLstmConfig(vocab_size=7, n_words=3, feature_dim=6, embed_dim=4,
                        hidden_dim=5, factor_dim=2, dropout=0.0)
    p = ScnLstm(cfg, seed=9).params
    root = Rng(9)
    for slot in range(4):
        gate_rng = root.split(slot + 1)
        rows = slice(2 * slot, 2 * slot + 2)
        assert np.array_equal(p["Wa"][slot], xavier_init(5, 2, gate_rng.split(0)))
        assert np.array_equal(p["Wb"][rows], xavier_init(2, 3, gate_rng.split(1)))
        assert np.array_equal(p["Wc"][rows], xavier_init(2, 4, gate_rng.split(2)))
        assert np.array_equal(p["Ua"][slot], xavier_init(5, 2, gate_rng.split(3)))
        assert np.array_equal(p["Ub"][rows], xavier_init(2, 3, gate_rng.split(4)))
        assert np.array_equal(p["Uc"][rows], xavier_init(2, 5, gate_rng.split(5)))
    assert np.array_equal(p["Cv"], xavier_init(5, 6, root.split(5)))
    assert np.array_equal(p["embed"], xavier_init(7, 4, root.split(6)))
    assert np.array_equal(p["Wout"], xavier_init(7, 5, root.split(7)))


def test_constructor_rejects_tensors_outside_the_stacked_layout():
    params = tiny_model().params
    bad_sets = [
        {k: v for k, v in params.items() if k != "Wb"},   # missing
        {**params, "Wib": params["Wb"][:TINY.factor_dim]},  # unknown
        {**params, "b": np.zeros(TINY.hidden_dim)},        # misshapen
    ]
    for bad in bad_sets:
        with pytest.raises(DimensionError):
            ScnLstm(TINY, params=bad)


def test_pretrained_embeddings_are_installed_and_validated():
    # The given rows overlay the table the seed draws; the rest stay.
    vectors = {3: Rng(9).normal((TINY.embed_dim,)), 4: Rng(10).normal((TINY.embed_dim,))}
    embed = ScnLstm(TINY, seed=0, embeddings=vectors).params["embed"]
    drawn = ScnLstm(TINY, seed=0).params["embed"]
    for row, vector in vectors.items():
        assert np.array_equal(embed[row], vector)
    others = [row for row in range(TINY.vocab_size) if row not in vectors]
    assert np.array_equal(embed[others], drawn[others])
    with pytest.raises(DimensionError):
        ScnLstm(TINY, seed=0, embeddings={3: vectors[3][:-1]})


# ---------------------------------------------------------------------------
# Single-step cell
# ---------------------------------------------------------------------------


def test_cell_with_zero_parameters_halves_the_cell_state():
    model = zero_model()
    rng = Rng(5)
    x = rng.normal((2, TINY.embed_dim))
    h_prev = rng.normal((2, TINY.hidden_dim))
    c_prev = rng.normal((2, TINY.hidden_dim))
    d = rng.normal((2, TINY.n_words))
    h, c, _ = model.cell_forward(x, h_prev, c_prev, d)
    assert np.allclose(c, 0.5 * c_prev, atol=1e-15)
    assert np.allclose(h, 0.5 * np.tanh(0.5 * c_prev), atol=1e-15)


def test_zero_attribute_vector_blocks_input_and_recurrence():
    model = tiny_model(seed=2)
    model.params["b"] = np.zeros(4 * TINY.hidden_dim)
    rng = Rng(6)
    c_prev = rng.normal((1, TINY.hidden_dim))
    d = np.zeros((1, TINY.n_words))
    outs = []
    for _ in range(2):
        x = rng.normal((1, TINY.embed_dim))
        h_prev = rng.normal((1, TINY.hidden_dim))
        outs.append(model.cell_forward(x, h_prev, c_prev, d)[:2])
    assert np.array_equal(outs[0][0], outs[1][0])
    assert np.array_equal(outs[0][1], outs[1][1])
    assert np.allclose(outs[0][1], 0.5 * c_prev, atol=1e-15)


def test_image_term_shifts_every_gate_preactivation():
    model = zero_model()
    z = Rng(7).normal((1, TINY.hidden_dim))
    zeros = np.zeros((1, TINY.hidden_dim))
    h, c, _ = model.cell_forward(
        np.zeros((1, TINY.embed_dim)), zeros, zeros,
        np.zeros((1, TINY.n_words)), z=z,
    )
    sig = sigmoid(z)
    expected_c = sig * np.tanh(z)
    assert np.allclose(c, expected_c, atol=1e-15)
    assert np.allclose(h, sig * np.tanh(expected_c), atol=1e-15)


def test_cell_backward_matches_finite_differences():
    model = tiny_model(seed=11)
    rng = Rng(12)
    x = rng.normal((2, TINY.embed_dim))
    h_prev = rng.normal((2, TINY.hidden_dim))
    c_prev = rng.normal((2, TINY.hidden_dim))
    d = rng.normal((2, TINY.n_words))
    z = rng.normal((2, TINY.hidden_dim))
    r_h = rng.normal((2, TINY.hidden_dim))
    r_c = rng.normal((2, TINY.hidden_dim))

    def param_loss(p):
        perturbed = ScnLstm(TINY, params=p)
        h, c, cache = perturbed.cell_forward(x, h_prev, c_prev, d, z=z)
        grads = {name: np.zeros_like(value) for name, value in p.items()}
        perturbed.cell_backward(r_h, r_c, cache, grads)
        return float((h * r_h).sum() + (c * r_c).sum()), grads

    assert gradient_check(param_loss, model.params, eps=1e-5) < 1e-4

    def input_loss(inputs):
        h, c, cache = model.cell_forward(
            inputs["x"], inputs["h_prev"], inputs["c_prev"], inputs["d"],
            z=inputs["z"],
        )
        p = model.params
        grads = {name: np.zeros_like(value) for name, value in p.items()}
        dx, dh_prev, dc_prev, da1, db1, dz = model.cell_backward(r_h, r_c, cache, grads)
        loss = float((h * r_h).sum() + (c * r_c).sum())
        return loss, {"x": dx, "h_prev": dh_prev, "c_prev": dc_prev,
                      "d": da1 @ p["Wb"] + db1 @ p["Ub"], "z": dz}

    inputs = {"x": x, "h_prev": h_prev, "c_prev": c_prev, "d": d, "z": z}
    assert gradient_check(input_loss, inputs, eps=1e-5) < 1e-4


def test_sequence_gradients_match_finite_differences():
    model = tiny_model(seed=16)
    rng = Rng(17)
    samples = [
        (rng.normal((TINY.feature_dim,)), np.abs(rng.normal((TINY.n_words,))),
         [BOS_ID, 3, EOS_ID]),
        (rng.normal((TINY.feature_dim,)), np.abs(rng.normal((TINY.n_words,))),
         [BOS_ID, 4, 2, EOS_ID]),
    ]
    err = gradient_check(
        lambda p: ScnLstm(TINY, params=p).batch_loss(samples, mode="inference")[:2],
        model.params, eps=1e-5,
    )
    assert err < 1e-4


# ---------------------------------------------------------------------------
# Sequence scoring
# ---------------------------------------------------------------------------


def test_zero_model_predicts_the_uniform_distribution():
    model = zero_model()
    feature, d = tiny_inputs()
    samples = [(feature, d, [BOS_ID, 3, 4, EOS_ID])]
    assert model.batch_nll(samples) == pytest.approx(np.log(TINY.vocab_size),
                                                     abs=1e-12)
    probs, _, _ = model.step_probs(
        [BOS_ID], np.zeros((1, TINY.hidden_dim)), np.zeros((1, TINY.hidden_dim)),
        np.asarray(d).reshape(1, -1),
    )
    assert np.allclose(probs, 1.0 / TINY.vocab_size, atol=1e-15)


def test_step_probs_into_a_buffer_returns_it_and_allocates_no_row_by_vocab_array():
    # The decode step's shape: ufunc loops that broadcast keep a buffer
    # of fixed size, far below one (rows, V) array.
    cfg = dataclasses.replace(TINY, vocab_size=10000)
    model = tiny_model(seed=3, scale=3.0, config=cfg)
    rng = Rng(31)
    rows = 40
    last_ids = [int(u * cfg.vocab_size) for u in rng.uniform((rows,))]
    h, c = rng.normal((rows, cfg.hidden_dim)), rng.normal((rows, cfg.hidden_dim))
    d = np.abs(rng.normal((rows, cfg.n_words)))
    want = model.step_probs(last_ids, h, c, d)
    buffer = np.empty((rows, cfg.vocab_size))
    tracemalloc.start()
    try:
        got = model.step_probs(last_ids, h, c, d, out=buffer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got[0] is buffer
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert peak < buffer.nbytes // 10


def per_caption_reference(model, samples):
    """Teacher forcing one caption at a time on (1, .) rows: the loop the
    batched pass replaced. Returns ``(loss, grads, n_tokens)``."""
    p = model.params
    grads = {name: np.zeros_like(value) for name, value in p.items()}
    total_nll, total_tokens = 0.0, 0
    for feature, d, ids in samples:
        feature, d = np.reshape(feature, (1, -1)), np.reshape(d, (1, -1))
        h = c = np.zeros((1, model.config.hidden_dim))
        z = feature @ p["Cv"].T
        steps = []
        for t in range(1, len(ids)):
            x = p["embed"][ids[t - 1]].reshape(1, -1)
            h, c, cache = model.cell_forward(x, h, c, d, z=z if t == 1 else None)
            shifted = h @ p["Wout"].T + p["bout"]
            shifted -= shifted.max()
            log_probs = shifted - np.log(np.exp(shifted).sum())
            total_nll -= log_probs[0, ids[t]]
            steps.append((cache, h, log_probs))
        total_tokens += len(ids) - 1
        dh_next = dc_next = np.zeros_like(h)
        for t in range(len(steps), 0, -1):
            cache, h, log_probs = steps[t - 1]
            dlogits = np.exp(log_probs)
            dlogits[0, ids[t]] -= 1.0
            grads["Wout"] += dlogits.T @ h
            grads["bout"] += dlogits[0]
            dx, dh_next, dc_next, _, _, dz = model.cell_backward(
                dlogits @ p["Wout"] + dh_next, dc_next, cache, grads)
            grads["embed"][ids[t - 1]] += dx[0]
        grads["Cv"] += dz.T @ feature
    grads = {name: g / total_tokens for name, g in grads.items()}
    return total_nll / total_tokens, grads, total_tokens


def test_batched_loss_matches_the_per_caption_reference():
    cfg = ScnLstmConfig(vocab_size=11, n_words=4, feature_dim=6, embed_dim=5,
                        hidden_dim=6, factor_dim=7, dropout=0.5)
    model = ScnLstm(cfg, seed=40)
    rng = Rng(41)
    bodies = [[3, 7, 2], [], [5, 9, 10, 4, 8], [6, 6, 3], [10], [2, 4, 9, 7]]
    samples = [(rng.normal((cfg.feature_dim,)), np.abs(rng.normal((cfg.n_words,))),
                [BOS_ID, *body, EOS_ID]) for body in bodies]
    loss, grads, n_tokens = model.batch_loss(samples, mode="inference")
    ref_loss, ref_grads, ref_tokens = per_caption_reference(model, samples)
    assert n_tokens == ref_tokens == 22
    assert abs(loss - ref_loss) <= 1e-10 * abs(ref_loss)
    assert set(grads) == set(ref_grads)
    for name, ref in ref_grads.items():
        assert np.max(np.abs(grads[name] - ref)) <= 1e-10 * np.max(np.abs(ref)), name
    assert model.batch_nll(samples) == loss


def per_gate(rows):
    return rows.reshape(len(rows), 4, -1).swapaxes(0, 1)


def gate_rows(slabs):
    return slabs.swapaxes(0, 1).reshape(slabs.shape[1], -1)


def stepwise_cell_forward(x, h_prev, c_prev, a1, b1, z, p):
    """One step of the decoder as a self-contained cell, the gates as a
    tuple: the formulas the teacher-forced pass must reproduce."""
    a2 = x @ p["Wc"].T
    b2 = h_prev @ p["Uc"].T
    x_fact = a1 * a2
    h_fact = b1 * b2
    pre = (per_gate(x_fact) @ p["Wa"].swapaxes(1, 2)
           + per_gate(h_fact) @ p["Ua"].swapaxes(1, 2))
    pre += p["b"].reshape(4, 1, -1)
    if z is not None:
        pre += z
    i, f, o = sigmoid(pre[:3])
    cand = np.tanh(pre[3])
    c = i * cand + f * c_prev
    tanh_c = np.tanh(c)
    return o * tanh_c, c, (x, h_prev, c_prev, (a1, a2, b1, b2, x_fact, h_fact),
                           (i, f, o, cand), tanh_c, z is not None)


def stepwise_cell_backward(dh, dc_in, cache, grads, d, p):
    """Backward through :func:`stepwise_cell_forward`, every weight
    gradient of the step formed inside the step."""
    x, h_prev, c_prev, (a1, a2, b1, b2, x_fact, h_fact), (i, f, o, cand), tanh_c, has_z = cache
    do = dh * tanh_c
    dc = dc_in + dh * o * (1.0 - tanh_c * tanh_c)
    dpre = np.stack([
        dc * cand * i * (1.0 - i),
        dc * c_prev * f * (1.0 - f),
        do * o * (1.0 - o),
        dc * i * (1.0 - cand * cand),
    ])
    dpre_t = dpre.swapaxes(1, 2)
    grads["Wa"] += dpre_t @ per_gate(x_fact)
    grads["Ua"] += dpre_t @ per_gate(h_fact)
    grads["b"] += dpre.sum(axis=1).reshape(-1)
    dx_fact = gate_rows(dpre @ p["Wa"])
    dh_fact = gate_rows(dpre @ p["Ua"])
    da1 = dx_fact * a2
    da2 = dx_fact * a1
    db1 = dh_fact * b2
    db2 = dh_fact * b1
    grads["Wb"] += da1.T @ d
    grads["Wc"] += da2.T @ x
    grads["Ub"] += db1.T @ d
    grads["Uc"] += db2.T @ h_prev
    dx = da2 @ p["Wc"]
    dh_prev = db2 @ p["Uc"]
    dz = dpre.sum(axis=0) if has_z else None
    return dx, dh_prev, dc * f, dz


def stepwise_batch_loss(model, samples, mode, rng):
    """``batch_loss`` as one cell call per step, forward and backward,
    with a dropout mask drawn per step: the teacher-forced pass before
    the non-recurrent work moved out of the time loop."""
    p, cfg = model.params, model.config
    grads = {name: np.zeros_like(value) for name, value in p.items()}
    seqs = [list(ids) for _, _, ids in samples]
    order = sorted(range(len(seqs)), key=lambda j: -len(seqs[j]))
    lengths = np.array([len(seqs[j]) - 1 for j in order])
    running = [int(np.sum(lengths >= t)) for t in range(1, lengths[0] + 1)]
    tokens = np.full((len(seqs), lengths[0] + 1), EOS_ID, dtype=np.int64)
    for row, j in enumerate(order):
        tokens[row, :len(seqs[j])] = seqs[j]
    feature = np.array([np.ravel(samples[j][0]) for j in order], dtype=np.float64)
    d = np.array([np.ravel(samples[j][1]) for j in order], dtype=np.float64)
    a1, b1 = d @ p["Wb"].T, d @ p["Ub"].T
    h = np.zeros((len(seqs), cfg.hidden_dim), dtype=np.float64)
    c = np.zeros_like(h)
    z = feature @ p["Cv"].T
    steps, h_rows = [], []
    for t, n in enumerate(running, start=1):
        h, c, cell_cache = stepwise_cell_forward(
            p["embed"][tokens[:n, t - 1]], h[:n], c[:n], a1[:n], b1[:n],
            z if t == 1 else None, p)
        h_drop, drop_cache = dropout_forward(h, cfg.dropout, mode, rng)
        steps.append((cell_cache, drop_cache))
        h_rows.append(h_drop)
    h_rows = np.concatenate(h_rows)
    targets = np.concatenate([tokens[:n, t] for t, n in enumerate(running, start=1)])
    probs = h_rows @ p["Wout"].T
    probs += p["bout"]
    probs -= probs.max(axis=1, keepdims=True)
    target_logits = probs[np.arange(len(targets)), targets]
    np.exp(probs, out=probs)
    totals = probs.sum(axis=1)
    nll = float(np.sum(np.log(totals) - target_logits))
    probs /= totals[:, None]

    dlogits = probs
    dlogits[np.arange(len(targets)), targets] -= 1.0
    np.matmul(dlogits.T, h_rows, out=grads["Wout"])
    dlogits.sum(axis=0, out=grads["bout"])
    dh_rows = dlogits @ p["Wout"]
    ends = np.cumsum(running)
    dh_next = np.zeros((running[0], cfg.hidden_dim), dtype=np.float64)
    dc_next = np.zeros_like(dh_next)
    for t in range(len(running), 0, -1):
        n = running[t - 1]
        cell_cache, drop_cache = steps[t - 1]
        dh = dropout_backward(dh_rows[ends[t - 1] - n:ends[t - 1]], drop_cache)
        dx, dh_prev, dc_prev, dz = stepwise_cell_backward(
            dh + dh_next[:n], dc_next[:n], cell_cache, grads, d[:n], p)
        dh_next[:n], dc_next[:n] = dh_prev, dc_prev
        np.add.at(grads["embed"], tokens[:n, t - 1], dx)
    grads["Cv"] += dz.T @ feature
    n_tokens = len(targets)
    for name in grads:
        grads[name] *= 1.0 / n_tokens
    return nll / n_tokens, grads, n_tokens


@pytest.mark.parametrize("mode", ["train", "inference"])
@pytest.mark.parametrize("bodies", [
    [[3, 7, 2], [5, 9, 10, 4, 8], [6, 6, 3], [10], [2, 4, 9, 7, 3, 5, 8]],
    [[4, 2], [], [9, 9, 9]],
    [[8, 3, 5]],
    [[]],
], ids=["ragged", "with-empty-caption", "one-caption", "only-empty-caption"])
def test_batch_loss_matches_the_stepwise_cell_loop(mode, bodies):
    cfg = ScnLstmConfig(vocab_size=11, n_words=4, feature_dim=6, embed_dim=5,
                        hidden_dim=6, factor_dim=7, dropout=0.5)
    model = ScnLstm(cfg, seed=42)
    rng = Rng(43)
    samples = [(rng.normal((cfg.feature_dim,)), np.abs(rng.normal((cfg.n_words,))),
                [BOS_ID, *body, EOS_ID]) for body in bodies]
    loss, grads, n_tokens = model.batch_loss(samples, mode=mode, rng=Rng(44))
    ref_loss, ref_grads, ref_tokens = stepwise_batch_loss(model, samples, mode, Rng(44))
    assert n_tokens == ref_tokens == sum(len(body) + 1 for body in bodies)
    assert loss == ref_loss
    assert set(grads) == set(ref_grads)
    for name, ref in ref_grads.items():
        assert np.max(np.abs(grads[name] - ref)) <= 1e-10 * np.max(np.abs(ref)), name


def test_caption_sums_are_bitwise_np_add_at_on_a_ragged_batch():
    running = [6, 6, 5, 3, 3, 1]
    rng = Rng(45)
    # Magnitudes over many decades, so that any other order of the adds
    # would round differently.
    rows = rng.normal((sum(running), 5)) * 10.0 ** (8 * rng.uniform((sum(running), 5)))
    caption = np.concatenate([np.arange(n) for n in running])
    reference = np.zeros((running[0], 5))
    np.add.at(reference, caption, rows)
    assert scnlstm._caption_sums(rows, running).tobytes() == reference.tobytes()


@pytest.mark.parametrize("mode", ["train", "inference"])
def test_batch_loss_is_bitwise_the_same_for_any_worker_count(monkeypatch, pool_of, mode):
    # The output layer's 17 columns run in panels of 7, 7 and 3.
    monkeypatch.setattr(nncore, "_PANEL", 7)
    cfg = ScnLstmConfig(vocab_size=17, n_words=4, feature_dim=6, embed_dim=5,
                        hidden_dim=6, factor_dim=7, dropout=0.5)
    model = ScnLstm(cfg, seed=46)
    rng = Rng(47)
    samples = [(rng.normal((cfg.feature_dim,)), np.abs(rng.normal((cfg.n_words,))),
                [BOS_ID, *body, EOS_ID])
               for body in ([3, 16, 2], [5, 9, 10, 4, 8, 15], [], [11, 6])]
    runs = []
    for workers in (1, 2, 3):
        pool_of(workers)
        loss, grads, _ = model.batch_loss(samples, mode=mode, rng=Rng(48))
        runs.append((loss, {name: grad.tobytes() for name, grad in grads.items()}))
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_batch_nll_equals_inference_mode_batch_loss():
    model = tiny_model(seed=15)
    rng = Rng(16)
    samples = [
        (rng.normal((TINY.feature_dim,)), np.abs(rng.normal((TINY.n_words,))),
         [BOS_ID, w, 3, EOS_ID])
        for w in (2, 3, 4)
    ]
    loss, grads, n_tokens = model.batch_loss(samples, mode="inference")
    assert model.batch_nll(samples) == loss
    assert n_tokens == 9
    assert set(grads) == set(model.params)


def test_teacher_forcing_matches_stepwise_rollout():
    model = tiny_model(seed=17, scale=2.0)
    feature, d = tiny_inputs(18)
    ids = [BOS_ID, 4, 2, 3, EOS_ID]
    feature_row = np.asarray(feature, dtype=np.float64).reshape(1, -1)
    d_row = np.asarray(d, dtype=np.float64).reshape(1, -1)
    z = feature_row @ model.params["Cv"].T
    h = np.zeros((1, TINY.hidden_dim))
    c = np.zeros_like(h)
    total = 0.0
    for t in range(1, len(ids)):
        probs, h, c = model.step_probs([ids[t - 1]], h, c, d_row,
                                       z=z if t == 1 else None)
        total += float(np.log(probs[0, ids[t]]))
    assert model.sequence_log_likelihood(ids, feature, d) == pytest.approx(
        total, abs=1e-12)


def test_train_mode_dropout_requires_a_rng():
    cfg = ScnLstmConfig(vocab_size=5, n_words=2, feature_dim=3, embed_dim=3,
                        hidden_dim=4, factor_dim=4, dropout=0.5)
    model = ScnLstm(cfg, seed=0)
    feature, d = tiny_inputs()
    with pytest.raises(ParameterError):
        model.batch_loss([(feature, d, [BOS_ID, 3, EOS_ID])], mode="train")


def test_malformed_token_sequences_are_rejected():
    model = tiny_model()
    feature, d = tiny_inputs()
    bad = [
        [BOS_ID],                     # no predicted token
        [3, 4, EOS_ID],               # missing BOS
        [BOS_ID, 3, 4],               # missing EOS
        [BOS_ID, EOS_ID, 3, EOS_ID],  # interior EOS
        [BOS_ID, 3, BOS_ID, EOS_ID],  # interior BOS
        [BOS_ID, TINY.vocab_size, EOS_ID],  # id beyond the vocabulary
        [BOS_ID, -1, EOS_ID],         # negative id
    ]
    for ids in bad:
        with pytest.raises(DimensionError):
            model.sequence_log_likelihood(ids, feature, d)


def test_empty_batches_are_rejected():
    model = tiny_model()
    with pytest.raises(ParameterError):
        model.batch_loss([], mode="inference")
    with pytest.raises(ParameterError):
        model.batch_nll([])


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def train_samples(n=3, seed=20):
    rng = Rng(seed)
    bodies = [[3, 4], [4, 2, 3], [2]]
    return [
        (rng.normal((TINY.feature_dim,)), np.abs(rng.normal((TINY.n_words,))),
         [BOS_ID, *bodies[i % len(bodies)], EOS_ID])
        for i in range(n)
    ]


def test_zero_learning_rate_leaves_parameters_at_initialization():
    samples = train_samples()
    tcfg = CaptionTrainConfig(learning_rate=0.0, batch_size=2, max_epochs=3,
                              clip_norm=5.0, seed=7)
    model, history = train_captioner(samples, TINY, tcfg)
    fresh = ScnLstm(TINY, seed=Rng(7).split(0).seed)
    for name in fresh.params:
        assert np.array_equal(model.params[name], fresh.params[name])
    assert len(history["train_loss"]) == 3


def test_training_is_seed_reproducible_and_reduces_the_loss():
    samples = train_samples()
    tcfg = CaptionTrainConfig(learning_rate=2e-2, batch_size=3, max_epochs=40,
                              clip_norm=5.0, seed=1)
    model_a, hist_a = train_captioner(samples, TINY, tcfg)
    model_b, hist_b = train_captioner(samples, TINY, tcfg)
    for name in model_a.params:
        assert np.array_equal(model_a.params[name], model_b.params[name])
    assert hist_a["train_loss"] == hist_b["train_loss"]
    assert hist_a["train_loss"][-1] < hist_a["train_loss"][0]
    assert hist_a["best_epoch"] == len(hist_a["train_loss"]) - 1
    assert hist_a["val_loss"] == []


def test_early_stopping_restores_the_best_validation_parameters():
    samples = train_samples()
    val = [(Rng(21).normal((TINY.feature_dim,)),
            np.abs(Rng(22).normal((TINY.n_words,))), [BOS_ID, 4, 4, EOS_ID])]
    tcfg = CaptionTrainConfig(learning_rate=1e-1, batch_size=3, max_epochs=60,
                              clip_norm=5.0, patience=3, seed=2)
    model, history = train_captioner(samples, TINY, tcfg, val_samples=val)
    val_losses = history["val_loss"]
    assert val_losses, "validation losses must be recorded"
    best = int(np.argmin(val_losses))
    assert history["best_epoch"] == best
    assert model.batch_nll(val) == val_losses[best]
    assert len(val_losses) < tcfg.max_epochs, "expected an early stop"
    assert len(val_losses) == best + 1 + tcfg.patience


def test_early_stopping_restores_the_best_epochs_parameters_bitwise():
    # Validation only reads the parameters and draws nothing, so training
    # without it for best_epoch + 1 epochs reaches the best epoch's state.
    samples = train_samples()
    val = [(Rng(21).normal((TINY.feature_dim,)),
            np.abs(Rng(22).normal((TINY.n_words,))), [BOS_ID, 4, 4, EOS_ID])]
    tcfg = CaptionTrainConfig(learning_rate=1e-1, batch_size=2, max_epochs=60,
                              clip_norm=5.0, patience=3, seed=2)
    model, history = train_captioner(samples, TINY, tcfg, val_samples=val)
    best = history["best_epoch"]
    assert best + 1 < len(history["val_loss"]), "expected epochs after the best"
    at_best, _ = train_captioner(samples, TINY,
                                 dataclasses.replace(tcfg, max_epochs=best + 1))
    assert set(model.params) == set(at_best.params)
    for name, value in at_best.params.items():
        assert model.params[name].tobytes() == value.tobytes(), name


@pytest.mark.parametrize("epochs", [1, 2])
def test_training_holds_four_parameter_sets_and_the_best_epochs_copy(monkeypatch, epochs):
    # The parameters, Adam's two moments and one step's gradients, which
    # clipping scales in place; from the second epoch on, the copy of the
    # best epoch's parameters is a fifth set. The embedding and output
    # layer make the parameters dominate; half a set of slack covers the
    # activations and Adam's scratch.
    config = ScnLstmConfig(vocab_size=8000, n_words=32, feature_dim=64, embed_dim=64,
                           hidden_dim=64, factor_dim=64, dropout=0.5)
    rng = Rng(48)
    samples = [(rng.normal((64,)), np.abs(rng.normal((32,))),
                [BOS_ID, *(3 + 1999 * k + 7 * i for k in range(4)), EOS_ID])
               for i in range(4)]
    clipped = []

    def recording_clip(grads, max_norm):
        result = clip_gradients(grads, max_norm)
        clipped.append(result[1] > max_norm)
        return result

    monkeypatch.setattr(scnlstm, "clip_gradients", recording_clip)
    tcfg = CaptionTrainConfig(learning_rate=1e-3, batch_size=2, max_epochs=epochs,
                              clip_norm=1e-3, seed=4)
    tracemalloc.start()
    try:
        model, history = train_captioner(samples[:3], config, tcfg, val_samples=samples[3:])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert clipped == [True] * 2 * epochs
    assert len(history["val_loss"]) == epochs
    param_set = sum(value.nbytes for value in model.params.values())
    sets = 4 if epochs == 1 else 5
    assert sets * param_set <= peak < (sets + 0.5) * param_set


def test_training_is_bitwise_the_same_on_one_and_two_workers(pool_of):
    # The embedding and output tables span two draw blocks, and the
    # output layer's 700 columns two panels.
    config = ScnLstmConfig(vocab_size=700, n_words=6, feature_dim=8, embed_dim=50,
                           hidden_dim=50, factor_dim=9, dropout=0.5)
    rng = Rng(49)
    samples = [(rng.normal((8,)), np.abs(rng.normal((6,))),
                [BOS_ID, *(3 + (97 * i + 131 * k) % 697 for k in range(i % 4 + 1)), EOS_ID])
               for i in range(7)]
    tcfg = CaptionTrainConfig(learning_rate=1e-2, batch_size=3, max_epochs=2, seed=5)
    runs = []
    for workers in (1, 2):
        pool_of(workers)
        model, history = train_captioner(samples[:5], config, tcfg, val_samples=samples[5:])
        runs.append((history, {name: value.tobytes() for name, value in model.params.items()}))
    assert len(runs[0][0]["val_loss"]) == 2
    assert runs[1] == runs[0]


def test_dropout_training_is_reproducible_byte_for_byte(tmp_path):
    # Five mixed-length captions in batches of three: two batches per
    # epoch, each drawing one dropout mask per step over the running rows.
    cfg = dataclasses.replace(TINY, dropout=0.5)
    samples = train_samples(n=5)
    tcfg = CaptionTrainConfig(learning_rate=2e-2, batch_size=3, max_epochs=4,
                              clip_norm=5.0, seed=3)
    runs = []
    for run in range(2):
        model, history = train_captioner(samples, cfg, tcfg,
                                         val_samples=samples[:2])
        path = tmp_path / f"run{run}.daec"
        save_captioner(path, model, small_vocab())
        runs.append((model.params, history, path.read_bytes()))
    (params_a, hist_a, bytes_a), (params_b, hist_b, bytes_b) = runs
    for name in params_a:
        assert np.array_equal(params_a[name], params_b[name]), name
    assert hist_a == hist_b
    assert bytes_a == bytes_b
    undropped, _ = train_captioner(samples, TINY, tcfg, val_samples=samples[:2])
    assert not np.array_equal(undropped.params["Wout"], params_a["Wout"])


def test_training_rejects_an_empty_sample_list():
    tcfg = CaptionTrainConfig(max_epochs=1)
    with pytest.raises(ParameterError):
        train_captioner([], TINY, tcfg)


# ---------------------------------------------------------------------------
# Beam search
# ---------------------------------------------------------------------------


def greedy_rollout(model, feature, d, max_len):
    """Width-1 decode oracle: argmax with smaller-id tie-breaks, BOS barred."""
    feature_row = np.asarray(feature, dtype=np.float64).reshape(1, -1)
    d_row = np.asarray(d, dtype=np.float64).reshape(1, -1)
    z = feature_row @ model.params["Cv"].T
    h = np.zeros((1, model.config.hidden_dim))
    c = np.zeros_like(h)
    order = np.arange(model.config.vocab_size)
    tokens = [BOS_ID]
    log_prob = 0.0
    for t in range(1, max_len + 1):
        probs, h, c = model.step_probs([tokens[-1]], h, c, d_row,
                                       z=z if t == 1 else None)
        with np.errstate(divide="ignore"):
            logs = np.log(probs[0])
        ranked = np.lexsort((order, -logs))
        pick = int(ranked[0]) if ranked[0] != BOS_ID else int(ranked[1])
        tokens.append(pick)
        log_prob += float(logs[pick])
        if pick == EOS_ID:
            return tuple(tokens), log_prob
    probs, _, _ = model.step_probs([tokens[-1]], h, c, d_row)
    with np.errstate(divide="ignore"):
        log_prob += float(np.log(probs[0, EOS_ID]))
    return tuple(tokens) + (EOS_ID,), log_prob


def test_width_one_beam_matches_a_greedy_rollout():
    for seed in range(10):
        model = tiny_model(seed=seed, scale=3.0 if seed % 2 else None)
        feature, d = tiny_inputs(200 + seed)
        expected_tokens, expected_lp = greedy_rollout(model, feature, d, 4)
        seq = beam_search(model, feature, d, beam_width=1, max_len=4)
        assert seq.tokens == expected_tokens
        assert seq.log_prob == pytest.approx(expected_lp, abs=1e-12)


def test_beam_returns_the_empty_caption_when_eos_dominates():
    model = zero_model()
    bout = np.zeros(TINY.vocab_size)
    bout[EOS_ID] = 25.0
    model.params["bout"] = bout
    feature, d = tiny_inputs()
    expected_lp = float(np.log(softmax(bout.reshape(1, -1))[0, EOS_ID]))
    for width in (1, 2, 4):
        seq = beam_search(model, feature, d, beam_width=width, max_len=6)
        assert seq.tokens == (BOS_ID, EOS_ID)
        assert seq.log_prob == pytest.approx(expected_lp, abs=1e-12)


def exhaustive_best(model, feature, d, max_len):
    """Score every in-budget caption by teacher forcing; break ties like
    the decoder (higher score first, then lexicographically smaller ids)."""
    best_key, best = None, None
    for length in range(0, max_len):
        for body in itertools.product(range(2, model.config.vocab_size),
                                      repeat=length):
            ids = (BOS_ID, *body, EOS_ID)
            lp = model.sequence_log_likelihood(list(ids), feature, d)
            key = (-lp, ids)
            if best_key is None or key < best_key:
                best_key, best = key, (ids, lp)
    return best


def test_full_width_beam_matches_exhaustive_enumeration():
    for seed in range(50):
        vocab = 3 + seed % 3
        max_len = 2 + seed % 3
        cfg = ScnLstmConfig(vocab_size=vocab, n_words=2, feature_dim=3,
                            embed_dim=3, hidden_dim=4, factor_dim=4,
                            dropout=0.0)
        model = ScnLstm(cfg, seed=seed)
        if seed % 2:
            model.params = {k: v * 5.0 for k, v in model.params.items()}
        rng = Rng(1000 + seed)
        feature = rng.normal((3,))
        d = np.abs(rng.normal((2,)))
        expected_tokens, expected_lp = exhaustive_best(model, feature, d,
                                                       max_len)
        seq = beam_search(model, feature, d, beam_width=vocab,
                          max_len=max_len)
        assert seq.tokens == expected_tokens
        assert seq.log_prob == pytest.approx(expected_lp, abs=1e-9)


def test_beam_score_is_non_decreasing_in_width():
    # Models that can stop: a small EOS bias keeps every decode within the
    # length budget, the regime where widening the beam can only help.
    for seed in range(50):
        model = tiny_model(seed=300 + seed)
        model.params["bout"] = model.params["bout"].copy()
        model.params["bout"][EOS_ID] += 1.0
        feature, d = tiny_inputs(400 + seed)
        scores = []
        for width in (1, 2, 3, TINY.vocab_size):
            seq = beam_search(model, feature, d, beam_width=width, max_len=10)
            replay = model.sequence_log_likelihood(list(seq.tokens),
                                                   feature, d)
            assert seq.log_prob == pytest.approx(replay, abs=1e-9)
            assert seq.length <= 10, "decode must finish within the budget"
            scores.append(seq.log_prob)
        assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))


def test_forced_termination_reports_the_true_sequence_score():
    model = tiny_model(seed=23, scale=2.0)
    model.params["bout"] = model.params["bout"].copy()
    model.params["bout"][EOS_ID] -= 30.0
    feature, d = tiny_inputs(24)
    seq = beam_search(model, feature, d, beam_width=2, max_len=3)
    assert seq.tokens[0] == BOS_ID and seq.tokens[-1] == EOS_ID
    assert seq.length == 4  # three in-budget steps plus the forced EOS
    replay = model.sequence_log_likelihood(list(seq.tokens), feature, d)
    assert seq.log_prob == pytest.approx(replay, abs=1e-9)


def test_beam_rejects_bad_arguments():
    model = tiny_model()
    feature, d = tiny_inputs()
    with pytest.raises(ParameterError):
        beam_search(model, feature, d, beam_width=0)
    with pytest.raises(ParameterError):
        beam_search(model, feature, d, max_len=0)
    with pytest.raises(ParameterError):
        ensemble_beam_search([], feature, d)
    with pytest.raises(DimensionError):
        ensemble_beam_search_block([model], np.zeros((3, TINY.feature_dim)),
                                   np.zeros((2, TINY.n_words)))
    assert ensemble_beam_search_block(
        [model], np.zeros((0, TINY.feature_dim)), np.zeros((0, TINY.n_words))) == []


def per_image_reference(models, feature, d, beam_width, max_len):
    """Beam search one image at a time, ranking each hypothesis's whole
    vocabulary with ``lexsort``: the decoder that block decoding
    replaced, kept as its oracle."""
    n_members = len(models)
    feature = np.asarray(feature, dtype=np.float64).reshape(1, -1)
    d_row = np.asarray(d, dtype=np.float64).reshape(1, -1)
    z_rows = [feature @ m.params["Cv"].T for m in models]
    d_terms = [m.attribute_terms(d_row) for m in models]
    token_order = np.arange(models[0].config.vocab_size)
    zeros = [np.zeros(m.config.hidden_dim) for m in models]
    live = [(0.0, (BOS_ID,), zeros, zeros)]
    finished = []

    def step_distributions(hyps, first_step):
        last_ids = [hyp[1][-1] for hyp in hyps]
        d_tile = np.repeat(d_row, len(hyps), axis=0)
        member_probs, states = [], []
        for k, model in enumerate(models):
            h = np.stack([hyp[2][k] for hyp in hyps])
            c = np.stack([hyp[3][k] for hyp in hyps])
            z = np.repeat(z_rows[k], len(hyps), axis=0) if first_step else None
            probs, h, c = model.step_probs(last_ids, h, c, d_tile, z=z,
                                           d_terms=d_terms[k])
            member_probs.append(probs)
            states.append((h, c))
        return ensemble_mean(np.stack(member_probs)), states

    for t in range(1, max_len + 1):
        probs, states = step_distributions(live, first_step=(t == 1))
        with np.errstate(divide="ignore"):
            log_probs = np.log(probs)
        candidates = []
        for row, hyp in enumerate(live):
            ranked = [int(tok) for tok in np.lexsort((token_order, -log_probs[row]))
                      if tok != BOS_ID][:beam_width]
            candidates.extend((hyp[0] + float(log_probs[row, tok]), hyp[1] + (tok,), row)
                              for tok in ranked)
        candidates.sort(key=lambda cand: (-cand[0], cand[1]))
        live = []
        for log_prob, tokens, row in candidates[:beam_width]:
            if tokens[-1] == EOS_ID:
                finished.append((log_prob, tokens))
            else:
                live.append((log_prob, tokens, [states[k][0][row] for k in range(n_members)],
                             [states[k][1][row] for k in range(n_members)]))
        if not live:
            break
    if finished:
        log_prob, tokens = min(finished, key=lambda f: (-f[0], f[1]))
        return CaptionSequence(tokens=tokens, log_prob=log_prob)
    best = min(live, key=lambda hyp: (-hyp[0], hyp[1]))
    probs, _ = step_distributions([best], first_step=False)
    with np.errstate(divide="ignore"):
        eos_log_prob = float(np.log(probs[0, EOS_ID]))
    return CaptionSequence(tokens=best[1] + (EOS_ID,), log_prob=best[0] + eos_log_prob)


def test_block_decoding_matches_the_per_image_reference():
    cfg = ScnLstmConfig(vocab_size=9, n_words=4, feature_dim=5, embed_dim=4,
                        hidden_dim=6, factor_dim=5, dropout=0.0)
    n_images, mixed = 7, 0
    for seed in range(12):
        models = [ScnLstm(cfg, seed=60 + 2 * seed + k) for k in range(2)]
        for model in models:
            model.params = {k: v * 3.0 for k, v in model.params.items()}
        rng = Rng(80 + seed)
        features = rng.normal((n_images, cfg.feature_dim)) * 2.0
        d = np.abs(rng.normal((n_images, cfg.n_words))) * 2.0
        max_len = 3 + seed % 3
        for width in (1, 3, 5):
            block = ensemble_beam_search_block(models, features, d, width, max_len)
            assert len(block) == n_images
            for i, seq in enumerate(block):
                ref = per_image_reference(models, features[i], d[i], width, max_len)
                assert seq.tokens == ref.tokens
                assert abs(seq.log_prob - ref.log_prob) <= 1e-10 * abs(ref.log_prob)
                alone = ensemble_beam_search(models, features[i], d[i], width, max_len)
                assert alone.tokens == seq.tokens
            n_forced = sum(seq.length == max_len + 1 for seq in block)
            mixed += 0 < n_forced < n_images
    # Most blocks hold both images that finished early and images
    # force-terminated at max_len.
    assert mixed >= 18


@pytest.mark.parametrize("workers", [2, 3])
def test_block_decoding_is_bitwise_the_same_for_every_worker_count(pool_of, workers):
    cfg = ScnLstmConfig(vocab_size=40, n_words=4, feature_dim=5, embed_dim=4,
                        hidden_dim=6, factor_dim=5, dropout=0.0)
    models = [tiny_model(seed=70 + k, scale=3.0, config=cfg) for k in range(2)]
    rng = Rng(71)
    features = rng.normal((6, cfg.feature_dim)) * 2.0
    d = np.abs(rng.normal((6, cfg.n_words))) * 2.0
    decodes = []
    for n in (1, workers):
        pool_of(n)
        block = ensemble_beam_search_block(models, features, d, beam_width=3, max_len=6)
        decodes.append([(seq.tokens, seq.log_prob.hex()) for seq in block])
    assert decodes[0] == decodes[1]


def test_stored_float32_rows_train_and_decode_bitwise_as_their_widening(stored_rows):
    # Teacher forcing and decoding widen their own batch or block, so the
    # rows as stored and their float64 widening are the same input.
    cfg = ScnLstmConfig(vocab_size=40, n_words=4, feature_dim=5, embed_dim=4,
                        hidden_dim=6, factor_dim=5, dropout=0.5)
    rng = Rng(72)
    rows = stored_rows(rng.normal((6, cfg.feature_dim)) * 2.0)
    d = np.abs(rng.normal((6, cfg.n_words))) * 2.0
    ids = [[BOS_ID, *(3 + (7 * i + 11 * k) % 37 for k in range(i % 3 + 1)), EOS_ID]
           for i in range(6)]
    tcfg = CaptionTrainConfig(learning_rate=1e-2, batch_size=3, max_epochs=2, seed=5)
    runs = []
    for features in (rows, rows.astype(np.float64)):
        samples = [(features[i], d[i], ids[i]) for i in range(6)]
        model, history = train_captioner(samples[:4], cfg, tcfg, val_samples=samples[4:])
        models = [model, tiny_model(seed=73, scale=3.0, config=cfg)]
        block = ensemble_beam_search_block(models, features, d, beam_width=3, max_len=6)
        runs.append((history, {name: value.tobytes() for name, value in model.params.items()},
                     [(seq.tokens, seq.log_prob.hex()) for seq in block]))
    assert len(runs[0][0]["val_loss"]) == 2
    assert runs[1] == runs[0]


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_row_slabs_decode_forced_and_early_images_bitwise_as_one_slab(pool_of, workers):
    # One worker ranks each step's rows as one slab; more workers cut
    # them into slabs that split images' rows, among them the forced
    # EOS step's rows. Three members, so the mean runs in full.
    cfg = ScnLstmConfig(vocab_size=9, n_words=4, feature_dim=5, embed_dim=4,
                        hidden_dim=6, factor_dim=5, dropout=0.0)
    forced = finished = 0
    for seed in range(4):
        models = [tiny_model(seed=60 + 2 * seed + k, scale=3.0, config=cfg)
                  for k in range(3)]
        rng = Rng(80 + seed)
        features = rng.normal((9, cfg.feature_dim)) * 2.0
        d = np.abs(rng.normal((9, cfg.n_words))) * 2.0
        for width in (2, 3):
            decodes = []
            for n in (1, workers):
                pool_of(n)
                block = ensemble_beam_search_block(models, features, d, width, max_len=4)
                decodes.append([(seq.tokens, seq.log_prob.hex()) for seq in block])
            assert decodes[0] == decodes[1], (seed, width)
            forced += sum(len(tokens) == 6 for tokens, _ in decodes[0])
            finished += sum(len(tokens) < 6 for tokens, _ in decodes[0])
    assert forced >= 10 and finished >= 30


class BigramModel(ScnLstm):
    """Constructed step distributions: the next-token distribution is
    the row of ``table`` picked by the last token, whatever the image."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=np.float64)
        super().__init__(dataclasses.replace(TINY, vocab_size=len(self.table)))

    def step_probs(self, last_ids, h, c, d, z=None, d_terms=None, out=None):
        return np.take(self.table, np.asarray(last_ids), axis=0, out=out), h, c


def bigram(vocab_size, rows):
    table = np.zeros((vocab_size, vocab_size))
    for last, probs in rows.items():
        for token, p in probs.items():
            table[last, token] = p
    return BigramModel(table)


def decode_ties(model, beam_width, max_len):
    """The decode of three identical images in one block, checked
    against each other and the per-image reference."""
    feature, d = tiny_inputs()
    block = ensemble_beam_search_block([model], np.tile(feature, (3, 1)),
                                       np.tile(d, (3, 1)), beam_width, max_len)
    ref = per_image_reference([model], feature, d, beam_width, max_len)
    for seq in block:
        assert (seq.tokens, seq.log_prob) == (ref.tokens, ref.log_prob)
    return block[0]


def test_ties_at_the_token_cut_go_to_the_smaller_id():
    # After BOS, tokens 2, 3, 4 tie for the last two of three slots:
    # 4 must not survive, although it leads to the best caption.
    model = bigram(6, {BOS_ID: {5: 0.4, 2: 0.2, 3: 0.2, 4: 0.2},
                       2: {EOS_ID: 0.5, 5: 0.5}, 3: {EOS_ID: 0.5, 5: 0.5},
                       4: {EOS_ID: 0.9, 5: 0.1}, 5: {EOS_ID: 0.1, 2: 0.9}})
    seq = decode_ties(model, beam_width=3, max_len=2)
    assert seq.tokens == (BOS_ID, 2, EOS_ID)
    assert seq.log_prob == np.log(0.2) + np.log(0.5)


def test_tied_pooled_candidates_go_to_the_smaller_token_tuple():
    # Step two pools (5, 3) first, then (5, 4) and (2, 6) tied for the
    # last slot; (2, 6) is the smaller tuple though its parent ranks
    # second, and only its branch reaches the best caption.
    model = bigram(7, {BOS_ID: {5: 0.5, 2: 0.25, 6: 0.25},
                       5: {3: 0.5, 4: 0.25, 6: 0.125, EOS_ID: 0.125},
                       2: {6: 0.5, EOS_ID: 0.25, 3: 0.25},
                       3: {EOS_ID: 0.125, 2: 0.875},
                       4: {EOS_ID: 1.0}, 6: {EOS_ID: 1.0}})
    seq = decode_ties(model, beam_width=2, max_len=3)
    assert seq.tokens == (BOS_ID, 2, 6, EOS_ID)
    assert seq.log_prob == np.log(0.25) + np.log(0.5)


def test_a_finished_tie_goes_to_the_shorter_sequence():
    # (3, EOS) and (3, 4, EOS) both score log 0.5 exactly.
    model = bigram(5, {BOS_ID: {3: 1.0}, 3: {EOS_ID: 0.5, 4: 0.5},
                       4: {EOS_ID: 1.0}, 2: {EOS_ID: 1.0}})
    for max_len in (2, 4):
        seq = decode_ties(model, beam_width=2, max_len=max_len)
        assert seq.tokens == (BOS_ID, 3, EOS_ID)
        assert seq.log_prob == np.log(0.5)


def test_underflowed_scores_never_admit_bos():
    # Every non-BOS token has probability zero: all tie at -inf, and a
    # beam at least as wide as the vocabulary still must not pick BOS.
    model = bigram(5, {last: {BOS_ID: 1.0} for last in range(5)})
    for width in (4, 5, 9):
        seq = decode_ties(model, beam_width=width, max_len=3)
        assert seq.tokens == (BOS_ID, EOS_ID)
        assert seq.log_prob == -np.inf


def test_ensemble_of_identical_members_decodes_like_the_single_model():
    model = tiny_model(seed=25, scale=2.0)
    feature, d = tiny_inputs(26)
    single = beam_search(model, feature, d, beam_width=3, max_len=5)
    for k in (1, 3):
        ens = ensemble_beam_search([model] * k, feature, d, beam_width=3,
                                   max_len=5)
        assert ens.tokens == single.tokens
        assert ens.log_prob == single.log_prob


def test_ensemble_averages_the_member_distributions():
    # Two members that disagree symmetrically: alone, member B picks token
    # 3; the averaged distribution ties tokens 2 and 3 exactly, so the
    # ensemble must fall back to the smaller id, in either member order.
    def biased(logit_index):
        model = zero_model()
        bout = np.full(TINY.vocab_size, 0.0)
        bout[EOS_ID] = -10.0
        bout[logit_index] = 8.0
        model.params["bout"] = bout
        return model

    a, b = biased(2), biased(3)
    feature, d = tiny_inputs(27)
    alone = beam_search(b, feature, d, beam_width=1, max_len=1)
    assert alone.tokens == (BOS_ID, 3, EOS_ID)
    forward = ensemble_beam_search([a, b], feature, d, beam_width=1, max_len=1)
    backward = ensemble_beam_search([b, a], feature, d, beam_width=1, max_len=1)
    assert forward.tokens == backward.tokens == (BOS_ID, 2, EOS_ID)
    assert forward.log_prob == backward.log_prob


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def small_vocab():
    return CaptionVocab(words=["<bos>", "<eos>", "<unk>", "red", "cat"])


def test_captioner_checkpoint_roundtrip(tmp_path):
    model = tiny_model(seed=28)
    vocab = small_vocab()
    path = tmp_path / "captioner.daec"
    save_captioner(path, model, vocab, extra_meta={"note": "test"})
    [loaded], loaded_vocab = load_captioner_ensemble(path)
    assert loaded.config == model.config
    for name in model.params:
        assert np.array_equal(loaded.params[name], model.params[name])
    assert loaded_vocab.words == vocab.words
    feature, d = tiny_inputs(29)
    before = beam_search(model, feature, d, beam_width=3, max_len=4)
    after = beam_search(loaded, feature, d, beam_width=3, max_len=4)
    assert before.tokens == after.tokens
    assert before.log_prob == after.log_prob


def test_captioner_ensemble_checkpoint_roundtrip(tmp_path):
    models = [tiny_model(seed=s) for s in (30, 31)]
    vocab = small_vocab()
    path = tmp_path / "ensemble.daec"
    save_captioner_ensemble(path, models, vocab)
    loaded, loaded_vocab = load_captioner_ensemble(path)
    assert len(loaded) == 2
    assert loaded_vocab.words == vocab.words
    for original, copy in zip(models, loaded):
        for name in original.params:
            assert np.array_equal(copy.params[name], original.params[name])


def test_ensemble_loader_accepts_a_single_model_checkpoint(tmp_path):
    from attrcap.storage import save_checkpoint

    model = tiny_model(seed=32)
    path = tmp_path / "single.daec"
    # The legacy single-model layout: unprefixed tensors, kind "scnlstm".
    save_checkpoint(path, model.tensors(), {
        "kind": "scnlstm", "net": dataclasses.asdict(model.config),
        "vocab_words": small_vocab().words})
    loaded, _ = load_captioner_ensemble(path)
    assert len(loaded) == 1
    for name in model.params:
        assert np.array_equal(loaded[0].params[name], model.params[name])


def test_loaders_reject_foreign_checkpoints(tmp_path):
    from attrcap.storage import FormatError, save_checkpoint

    foreign = tmp_path / "foreign.daec"
    save_checkpoint(foreign, {"w": np.ones((2, 2))}, {"kind": "other"})
    with pytest.raises(FormatError):
        load_captioner_ensemble(foreign)

    # Each family's loader rejects the other family's ensemble.
    from attrcap.attrnet import (AttrNet, AttrNetConfig, load_attrnet_ensemble,
                                 save_attrnet_ensemble)

    attr = tmp_path / "attr.daec"
    save_attrnet_ensemble(attr, [AttrNet(AttrNetConfig(n_words=2, feature_dim=3,
                                                       hidden_dim=4))])
    with pytest.raises(FormatError, match="not an scnlstm checkpoint"):
        load_captioner_ensemble(attr)

    models = [tiny_model(seed=33)]
    bundle = tmp_path / "bundle.daec"
    save_captioner_ensemble(bundle, models, small_vocab())
    with pytest.raises(FormatError, match="not an attrnet checkpoint"):
        load_attrnet_ensemble(bundle)


def test_loaders_reject_per_gate_checkpoints(tmp_path, per_gate_checkpoint):
    from attrcap.storage import FormatError

    old = tmp_path / "per_gate.daec"
    per_gate_checkpoint(old, TINY, small_vocab().words)
    with pytest.raises(FormatError, match="stacked-gate layout"):
        load_captioner_ensemble(old)
