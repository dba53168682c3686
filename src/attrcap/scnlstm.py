"""Attribute-conditioned caption decoder.

The decoder is an LSTM whose every weight matrix is factorized through
the attribute vector: for each gate the input and recurrent signals are
first projected into a factor space, multiplied elementwise with a
projection of the attribute vector, and only then mapped to the gate
preactivation. The attribute vector therefore modulates all four gates
at every step, rather than being fed once as a pseudo-word.

Conventions, with B the batch of rows, E the embedding width, H the
hidden width, F the factor width, A the attribute width and V the
vocabulary size:

* inputs are rows: ``x`` is (B, E), ``h``/``c`` are (B, H), the
  attribute vector ``d`` is (B, A);
* the gates are stacked in the order ``i, f, o, c``: ``Wa`` and ``Ua``
  are (4, H, F), one slab per gate; ``Wb``, ``Ub`` (4F, A), ``Wc``
  (4F, E) and ``Uc`` (4F, H) hold F rows per gate; the bias ``b`` is
  (4H,). The attribute terms ``d @ Wb.T`` and ``d @ Ub.T`` are fixed
  over a caption, so callers compute them once per caption;
* the image feature enters once: ``z = feature @ Cv.T`` is added to all
  four gate preactivations at the first step only;
* gates ``i, f, o`` are logistic; the cell candidate uses tanh.

A caption is a token id sequence beginning with BOS and ending with
EOS. Teacher-forced training scores steps ``t = 1..T`` predicting
tokens ``x_1..x_T`` from ``x_0 = BOS``, so EOS is a predicted token and
losses are reported in nats per predicted token.

Teacher forcing stacks the rows of all steps of a batch, step after
step. Only the recurrence runs inside the time loop: the h side of the
factors and the gates (``_recur``) going forward, and their gradients
back to the previous step's ``h`` and ``c`` (``_recur_backward``) going
back. The embedding lookup, the x side of the factors, dropout, the
output layer and every weight gradient are single products over all
tokens; ``d`` is fixed over a caption, so the ``Wb`` and ``Ub``
gradients are one product each over every caption's summed rows (one
slab add per step). The output layer's forward product runs in column
panels on the worker pool (:func:`attrcap.nncore.matmul`). Going back,
the products that do not depend on each other run at once on it, each
one whole ``np.matmul`` (:func:`attrcap.nncore.matmuls`): the ``Wout``
gradient with the hidden rows', then the ``Wa``, ``Ua`` and ``Uc``
gradients with the factor rows', then the ``Wc`` gradient with the
embedding rows'. The recurrence's products run on the calling thread.
:meth:`ScnLstm.cell_forward` and :meth:`ScnLstm.cell_backward` run the
same two halves for a single step, which is how decoding advances.

Beam search decodes a block of N images at once
(:func:`ensemble_beam_search_block`). The live hypotheses of all N
images are the rows of one array, at most N * beam_width of them,
grouped by image and best first within an image; each member keeps its
``h``/``c`` as matching (rows, H) arrays, and a step gathers the
survivors' rows with one index array. A step is one :meth:`step_probs`
call per member over every row, each row carrying its image's attribute
terms (and, at the first step, its image term ``z``). The members' calls
run at once on :func:`attrcap.nncore.worker_pool`, each writing its
softmax into its own slab of one (K, N * beam_width, V) buffer that the
block allocates once. Then the step's rows are cut into one slab per
worker, and on each at once :func:`attrcap.nncore.ensemble_mean`
reduces the members in place into the first, the log runs there too,
and each row's best continuations are ranked. A member, or a slab of
rows, computes the same operations in the same order in whichever
thread runs it, and every operation after the members is row-local, so
decodes do not depend on the worker count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import nncore
from .nncore import (
    AdamState,
    DimensionError,
    ParameterError,
    Rng,
    adam_step,
    batch_slices,
    check_settings,
    check_shapes,
    clip_gradients,
    dropout_backward,
    dropout_forward,
    matmuls,
    sigmoid,
    softmax,
    xavier_init,
)
from .storage import FormatError, ensemble_writer, load_ensemble

__all__ = [
    "BOS_ID",
    "CaptionSequence",
    "CaptionTrainConfig",
    "CaptionVocab",
    "EOS_ID",
    "ScnLstm",
    "ScnLstmConfig",
    "UNK_ID",
    "beam_search",
    "ensemble_beam_search",
    "ensemble_beam_search_block",
    "load_captioner_ensemble",
    "save_captioner",
    "save_captioner_ensemble",
    "train_captioner",
]

BOS_ID = 0
EOS_ID = 1
UNK_ID = 2
_SPECIALS = ("<bos>", "<eos>", "<unk>")
# Captions per teacher-forced pass when only scoring: bounds the
# (tokens, V) softmax buffer on large validation sets.
_SCORING_BATCH = 64
# The gradients that :meth:`ScnLstm._inputs_backward` writes.
_INPUT_GRADS = ("Wa", "Ua", "b", "Wc", "Uc")


@dataclass
class CaptionVocab:
    """Token vocabulary of the decoder.

    Ids 0, 1, 2 are the BOS, EOS and UNK specials; the remaining words
    are the corpus tokens that occurred at least ``min_count`` times,
    ordered by descending count with lexicographic tie-breaks.
    """

    words: list[str]
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.index = {word: i for i, word in enumerate(self.words)}

    def __len__(self):
        return len(self.words)

    @classmethod
    def from_token_lists(cls, token_lists, min_count=5):
        counts = Counter()
        for tokens in token_lists:
            counts.update(tokens)
        kept = sorted(
            (word for word, count in counts.items() if count >= min_count),
            key=lambda word: (-counts[word], word),
        )
        return cls(words=list(_SPECIALS) + kept)

    def encode(self, tokens):
        """Token list to id list, wrapped in BOS/EOS, unknowns to UNK."""
        body = [self.index.get(token, UNK_ID) for token in tokens]
        return [BOS_ID] + body + [EOS_ID]

    def decode(self, ids):
        """Id sequence back to tokens, dropping specials, stopping at EOS."""
        out = []
        for token_id in ids:
            if token_id == EOS_ID:
                break
            if token_id in (BOS_ID, UNK_ID):
                if token_id == UNK_ID:
                    out.append(_SPECIALS[UNK_ID])
                continue
            out.append(self.words[token_id])
        return out


@dataclass(frozen=True)
class CaptionSequence:
    """A decoded caption: ids from BOS to EOS plus its model score."""

    tokens: tuple
    log_prob: float

    def __post_init__(self):
        if not self.tokens or self.tokens[0] != BOS_ID or self.tokens[-1] != EOS_ID:
            raise DimensionError(
                "caption sequences must start with BOS and end with EOS"
            )
        if any(t in (BOS_ID, EOS_ID) for t in self.tokens[1:-1]):
            raise DimensionError(
                "caption sequences must not contain interior BOS/EOS tokens"
            )

    @property
    def length(self):
        """Number of predicted tokens (EOS included, BOS not)."""
        return len(self.tokens) - 1


@dataclass
class ScnLstmConfig:
    """Architecture of the caption decoder."""

    vocab_size: int
    n_words: int
    feature_dim: int = 2048
    embed_dim: int = 300
    hidden_dim: int = 512
    factor_dim: int = 512
    dropout: float = 0.5

    def __post_init__(self):
        check_settings(self, at_least_one=("vocab_size", "n_words", "feature_dim",
                                           "embed_dim", "hidden_dim", "factor_dim"),
                       fractions=("dropout",))


@dataclass
class CaptionTrainConfig:
    """Optimization settings for :func:`train_captioner`."""

    learning_rate: float = 2e-4
    batch_size: int = 64
    max_epochs: int = 20
    clip_norm: float = 5.0
    patience: int = 3
    seed: int = 0

    def __post_init__(self):
        check_settings(self, at_least_one=("batch_size",),
                       non_negative=("learning_rate", "max_epochs", "patience"),
                       positive=("clip_norm",))


def _param_shapes(config):
    """Name and shape of every decoder tensor."""
    h, f = config.hidden_dim, config.factor_dim
    e, a, v = config.embed_dim, config.n_words, config.vocab_size
    return {
        "Wa": (4, h, f), "Wb": (4 * f, a), "Wc": (4 * f, e),
        "Ua": (4, h, f), "Ub": (4 * f, a), "Uc": (4 * f, h),
        "b": (4 * h,), "Cv": (h, config.feature_dim),
        "embed": (v, e), "Wout": (v, h), "bout": (v,),
    }


def _per_gate(rows):
    """(B, 4F) factor rows as a (4, B, F) view, one slab per gate."""
    return rows.reshape(len(rows), 4, -1).swapaxes(0, 1)


def _gate_rows(slabs):
    """Inverse of :func:`_per_gate`: (4, B, F) slabs to (B, 4F) rows."""
    return slabs.swapaxes(0, 1).reshape(slabs.shape[1], -1)


def _caption_sums(rows, running):
    """The (captions, width) sums of each caption's rows of the step-major
    ``rows``, ``running[t]`` captions at step ``t``: one slab add per step
    into the leading captions, which adds each caption's rows in the order
    ``np.add.at`` over their caption indices would."""
    summed = np.zeros((running[0], rows.shape[1]))
    for end, n in zip(np.cumsum(running), running):
        summed[:n] += rows[end - n:end]
    return summed


class ScnLstm:
    """Factorized attribute-conditioned LSTM decoder. ``embeddings``
    maps rows of the embedding table drawn from ``seed`` to the (E,)
    vectors that replace them. ``kind`` and ``config_type`` name its
    checkpoints (:func:`attrcap.storage.load_ensemble`)."""

    kind = "scnlstm"
    config_type = ScnLstmConfig

    def __init__(self, config, seed=0, params=None, embeddings=None):
        self.config = config
        shapes = _param_shapes(config)
        if params is None:
            root = Rng(seed)
            gate_rngs = [root.split(slot + 1) for slot in range(4)]
            # Every tensor in table order, zero until drawn: ``b`` and ``bout`` stay so.
            params = {name: np.zeros(shape) for name, shape in shapes.items()}
            # Gate g's slab of each stacked tensor is drawn from stream
            # ``stream`` of gate g's Rng, straight into place.
            for stream, name in enumerate(("Wa", "Wb", "Wc", "Ua", "Ub", "Uc")):
                slabs = params[name].reshape(4, -1, shapes[name][-1])
                for gate, gate_rng in enumerate(gate_rngs):
                    xavier_init(*slabs.shape[1:], gate_rng.split(stream), out=slabs[gate])
            for stream, name in enumerate(("Cv", "embed", "Wout"), start=5):
                xavier_init(*shapes[name], root.split(stream), out=params[name])
            for row, vector in (embeddings or {}).items():
                if np.shape(vector) != shapes["embed"][1:]:
                    raise DimensionError(f"pretrained embedding row {row} has shape "
                                         f"{np.shape(vector)}, expected {shapes['embed'][1:]}")
                params["embed"][row] = vector
        check_shapes(params, shapes, "the decoder's stacked-gate layout")
        self.params = params

    # -- one step -------------------------------------------------------------

    def attribute_terms(self, d):
        """``(d @ Wb.T, d @ Ub.T)``: the attribute side of every gate's
        factors, fixed over a caption, so callers compute it once."""
        return d @ self.params["Wb"].T, d @ self.params["Ub"].T

    def cell_forward(self, x, h_prev, c_prev, d, z=None, d_terms=None):
        """One decoder step; returns ``(h, c, cache)``.

        Args:
            x: (B, E) current input embeddings.
            h_prev, c_prev: (B, H) previous hidden and cell rows.
            d: (B, A) attribute vectors.
            z: optional (B, H) image term, added to every gate's
                preactivation (first step only in sequence use).
            d_terms: optional :meth:`attribute_terms` of ``d``, either
                row-aligned with ``x`` or a single row shared by all.
        """
        p = self.params
        a1, b1 = self.attribute_terms(d) if d_terms is None else d_terms
        a2 = x @ p["Wc"].T
        x_fact = a1 * a2
        h, c, recurrent = self._recur(_per_gate(x_fact) @ p["Wa"].swapaxes(1, 2),
                                      h_prev, c_prev, b1, z)
        cache = (x, h_prev, c_prev, d, (a1, a2, b1, x_fact), recurrent, z is not None)
        return h, c, cache

    def _recur(self, x_pre, h_prev, c_prev, b1, z):
        """The part of a step that needs the step before: the h side of
        the factors and the gates, given the x side's (4, B, H) gate
        preactivations ``x_pre``. Returns ``(h, c, (b2, h_fact, gates,
        tanh_c))``; ``gates`` stacks ``i, f, o`` and the candidate."""
        p = self.params
        b2 = h_prev @ p["Uc"].T
        h_fact = b1 * b2
        gates = x_pre + _per_gate(h_fact) @ p["Ua"].swapaxes(1, 2)
        gates += p["b"].reshape(4, 1, -1)
        if z is not None:
            gates += z
        gates[:3] = sigmoid(gates[:3])
        np.tanh(gates[3], out=gates[3])
        i, f, o, cand = gates
        c = i * cand + f * c_prev
        tanh_c = np.tanh(c)
        return o * tanh_c, c, (b2, h_fact, gates, tanh_c)

    def _recur_backward(self, dh, dc_in, c_prev, b1, gates, tanh_c):
        """Backward through :meth:`_recur`: returns the (4, B, H) gate
        preactivation gradient ``dpre``, ``dh_fact`` and the gradients
        ``dh_prev``, ``dc_prev`` passed to the step before."""
        i, f, o, cand = gates
        do = dh * tanh_c
        dc = dc_in + dh * o * (1.0 - tanh_c * tanh_c)
        dpre = np.stack([
            dc * cand * i * (1.0 - i),
            dc * c_prev * f * (1.0 - f),
            do * o * (1.0 - o),
            dc * i * (1.0 - cand * cand),
        ])
        dh_fact = _gate_rows(dpre @ self.params["Ua"])
        return dpre, dh_fact, (dh_fact * b1) @ self.params["Uc"], dc * f

    def _inputs_backward(self, dpre, dh_fact, cache, grads):
        """The rest of the backward pass, which needs no recurrence, over
        the rows of ``cache``: one step's or a whole batch's stacked
        steps. Writes the gradients named in ``_INPUT_GRADS`` into the
        arrays of ``grads`` and returns ``(dx, da1, db1)``."""
        x, h_prev, _, _, (a1, a2, b1, x_fact), (b2, h_fact, _, _), _ = cache
        p = self.params
        dpre_t = dpre.swapaxes(1, 2)
        dx_slabs = np.empty(dpre.shape[:2] + p["Wa"].shape[2:])
        matmuls((dpre_t, _per_gate(x_fact), grads["Wa"]),
                (dpre_t, _per_gate(h_fact), grads["Ua"]),
                ((dh_fact * b1).T, h_prev, grads["Uc"]),
                (dpre, p["Wa"], dx_slabs))
        dpre.sum(axis=1, out=grads["b"].reshape(4, -1))
        dx_fact = _gate_rows(dx_slabs)
        da2 = dx_fact * a1
        dx = np.empty((len(da2), p["Wc"].shape[1]))
        matmuls((da2.T, x, grads["Wc"]), (da2, p["Wc"], dx))
        return dx, dx_fact * a2, dh_fact * b2

    def cell_backward(self, dh, dc_in, cache, grads):
        """Backward through one step, accumulating into ``grads``.

        Returns ``(dx, dh_prev, dc_prev, da1, db1, dz)``: ``da1`` and
        ``db1`` are the gradients of the two :meth:`attribute_terms`, so
        the gradient of ``d`` is ``da1 @ Wb + db1 @ Ub``. ``dz`` is
        ``None`` unless the forward step received an image term.
        """
        _, _, c_prev, d, (_, _, b1, _), (_, _, gates, tanh_c), has_z = cache
        dpre, dh_fact, dh_prev, dc_prev = self._recur_backward(
            dh, dc_in, c_prev, b1, gates, tanh_c)
        step = {name: np.empty_like(self.params[name]) for name in _INPUT_GRADS}
        dx, da1, db1 = self._inputs_backward(dpre, dh_fact, cache, step)
        for name, grad in step.items():
            grads[name] += grad
        grads["Wb"] += da1.T @ d
        grads["Ub"] += db1.T @ d
        dz = dpre.sum(axis=0) if has_z else None
        return dx, dh_prev, dc_prev, da1, db1, dz

    # -- teacher forcing ------------------------------------------------------

    def _check_sequence(self, ids):
        ids = list(ids)
        CaptionSequence(tokens=tuple(ids), log_prob=0.0)  # BOS ... EOS
        v = self.config.vocab_size
        if any(not 0 <= t < v for t in ids):
            raise DimensionError(f"token id out of range for vocabulary size {v}")
        return ids

    def _forward(self, samples, mode, rng):
        """Teacher-forced pass over a batch of ``(feature, d, ids)``.

        Captions run longest first (a stable sort), so the ``n_t``
        captions still running at step ``t`` are the leading rows. The
        per-token arrays stack the rows of all steps, step after step:
        row ``r`` is caption ``caption[r]`` at step ``step[r]``. Returns
        ``(nll, n_tokens, cache)``; the cache holds the (n_tokens, V)
        softmax.
        """
        p = self.params
        seqs = [self._check_sequence(ids) for _, _, ids in samples]
        order = sorted(range(len(seqs)), key=lambda j: -len(seqs[j]))
        lengths = np.array([len(seqs[j]) - 1 for j in order])
        running = [int(np.sum(lengths >= t)) for t in range(1, lengths[0] + 1)]
        tokens = np.full((len(seqs), lengths[0] + 1), EOS_ID, dtype=np.int64)
        for row, j in enumerate(order):
            tokens[row, :len(seqs[j])] = seqs[j]
        feature = np.array([np.ravel(samples[j][0]) for j in order], dtype=np.float64)
        d = np.array([np.ravel(samples[j][1]) for j in order], dtype=np.float64)
        ends = np.cumsum(running)
        step = np.repeat(np.arange(len(running)), running)
        caption = np.arange(ends[-1]) - (ends - running)[step]
        a1, b1 = self.attribute_terms(d)
        inputs = tokens[caption, step]
        x = p["embed"][inputs]
        a2 = x @ p["Wc"].T
        x_fact = a1[caption] * a2
        x_pre = _per_gate(x_fact) @ p["Wa"].swapaxes(1, 2)
        z = feature @ p["Cv"].T
        h = np.zeros((len(seqs), self.config.hidden_dim), dtype=np.float64)
        c = np.zeros_like(h)
        h_prev, c_prev, hs, recurrent = [], [], [], []
        for t, n in enumerate(running):
            h_prev.append(h[:n])
            c_prev.append(c[:n])
            h, c, step_cache = self._recur(x_pre[:, ends[t] - n:ends[t]], h[:n], c[:n],
                                           b1[:n], z if t == 0 else None)
            hs.append(h)
            recurrent.append(step_cache)
        # One cell cache whose rows are all the tokens: what
        # :meth:`_inputs_backward` reads of a single step's.
        cell = (x, np.concatenate(h_prev), np.concatenate(c_prev), d,
                (a1[caption], a2, b1[caption], x_fact),
                tuple(np.concatenate(parts, axis=-2) for parts in zip(*recurrent)),
                True)
        # One mask over all rows draws what a mask per step would.
        h_rows, drop_cache = dropout_forward(np.concatenate(hs), self.config.dropout,
                                             mode, rng)
        targets = tokens[caption, step + 1]
        # Log-softmax in place: ``probs`` is the only (n_tokens, V) buffer.
        probs = nncore.matmul(h_rows, p["Wout"].T)
        probs += p["bout"]
        probs -= probs.max(axis=1, keepdims=True)
        target_logits = probs[np.arange(len(targets)), targets]
        np.exp(probs, out=probs)
        totals = probs.sum(axis=1)
        nll = float(np.sum(np.log(totals) - target_logits))
        probs /= totals[:, None]
        cache = (inputs, running, feature, cell, drop_cache, h_rows, targets, probs)
        return nll, len(targets), cache

    def _backward(self, cache, grads):
        """Gradients of the summed NLL of a :meth:`_forward` pass,
        written into the arrays of ``grads``; that of ``embed`` is
        accumulated into its zero-filled array."""
        inputs, running, feature, cell, drop_cache, h_rows, targets, dlogits = cache
        _, _, c_prev, d, (_, _, b1, _), (_, h_fact, gates, tanh_c), _ = cell
        dlogits[np.arange(len(targets)), targets] -= 1.0
        dh_rows = np.empty(h_rows.shape)
        matmuls((dlogits.T, h_rows, grads["Wout"]), (dlogits, self.params["Wout"], dh_rows))
        dlogits.sum(axis=0, out=grads["bout"])
        dh_rows = dropout_backward(dh_rows, drop_cache)
        ends = np.cumsum(running)
        dpre = np.empty_like(gates)
        dh_fact = np.empty_like(h_fact)
        # Gradients flowing back from step t + 1; rows of captions that
        # end before it stay zero.
        dh_next = np.zeros((running[0], self.config.hidden_dim), dtype=np.float64)
        dc_next = np.zeros_like(dh_next)
        for t in range(len(running) - 1, -1, -1):
            n = running[t]
            rows = slice(ends[t] - n, ends[t])
            dpre[:, rows], dh_fact[rows], dh_next[:n], dc_next[:n] = self._recur_backward(
                dh_rows[rows] + dh_next[:n], dc_next[:n], c_prev[rows], b1[rows],
                gates[:, rows], tanh_c[rows])
        dx, da1, db1 = self._inputs_backward(dpre, dh_fact, cell, grads)
        np.add.at(grads["embed"], inputs, dx)
        # ``d`` is fixed over a caption, so ``Wb`` and ``Ub`` take one
        # product each over every caption's summed rows.
        for name, per_token in (("Wb", da1), ("Ub", db1)):
            np.matmul(_caption_sums(per_token, running).T, d, out=grads[name])
        # Only step 1 has the image term z.
        np.matmul(dpre[:, :running[0]].sum(axis=0).T, feature, out=grads["Cv"])

    def sequence_log_likelihood(self, ids, feature, d):
        """Teacher-forced log-likelihood of one BOS..EOS sequence (nats)."""
        nll, _, _ = self._forward([(feature, d, ids)], "inference", None)
        return -nll

    def batch_loss(self, samples, mode="train", rng=None):
        """Mean teacher-forced loss over ``(feature, d, ids)`` samples.

        Returns ``(loss, grads, n_tokens)`` where ``loss`` is total
        negative log-likelihood divided by the total number of predicted
        tokens, and ``grads`` is scaled consistently with that mean.
        """
        if not samples:
            raise ParameterError("batch contains no predicted tokens")
        # :meth:`_backward` overwrites all but the embedding's, which it
        # adds into row by row.
        grads = {name: (np.zeros_like if name == "embed" else np.empty_like)(value)
                 for name, value in self.params.items()}
        nll, n_tokens, cache = self._forward(samples, mode, rng)
        self._backward(cache, grads)
        scale = 1.0 / n_tokens
        for name in grads:
            grads[name] *= scale
        return nll / n_tokens, grads, n_tokens

    def batch_nll(self, samples):
        """Forward-only mean loss in nats per predicted token."""
        if not samples:
            raise ParameterError("dataset contains no predicted tokens")
        total_nll = 0.0
        total_tokens = 0
        for start, stop in batch_slices(len(samples), _SCORING_BATCH):
            nll, n_tokens, _ = self._forward(samples[start:stop], "inference", None)
            total_nll += nll
            total_tokens += n_tokens
        return total_nll / total_tokens

    def step_probs(self, last_ids, h, c, d, z=None, d_terms=None, out=None):
        """Advance one step for a batch of hypotheses.

        Returns ``(probs, h, c)`` where ``probs`` is the (B, V) softmax
        over the next token, computed in ``out`` when it is given (then
        no (B, V) array is allocated). Inference mode: no dropout.
        """
        p = self.params
        x = p["embed"][np.asarray(last_ids, dtype=np.int64)]
        h, c, _ = self.cell_forward(x, h, c, d, z=z, d_terms=d_terms)
        logits = np.matmul(h, p["Wout"].T, out=out)
        logits += p["bout"]
        return softmax(logits, out=logits), h, c

    def tensors(self):
        return dict(self.params)

    @classmethod
    def from_tensors(cls, config, tensors):
        """Rebuild a decoder from :meth:`tensors`, checked by the constructor."""
        return cls(config, params=tensors)


# --------------------------------------------------------------------------
# Training
# --------------------------------------------------------------------------


def train_captioner(samples, net_config, train_config, val_samples=None,
                    embeddings=None):
    """Train the decoder with Adam and global-norm gradient clipping.

    ``samples`` is a list of ``(feature, d, ids)`` triples, one per
    reference caption. When ``val_samples`` is given, training stops
    once the validation loss has not improved for ``patience``
    consecutive epochs and the best-validation parameters are restored;
    without a validation set it runs all ``max_epochs``.

    Returns ``(model, history)``; history holds per-epoch train and
    validation losses (nats per token) and the index of the best epoch.
    """
    if not samples:
        raise ParameterError("cannot train on an empty sample list")
    root = Rng(train_config.seed)
    model = ScnLstm(net_config, seed=root.split(0).seed, embeddings=embeddings)
    adam = AdamState(learning_rate=train_config.learning_rate)
    n = len(samples)
    history = {"train_loss": [], "val_loss": [], "best_epoch": None}
    best_val = np.inf
    best_params = None
    stale = 0
    for epoch in range(train_config.max_epochs):
        if best_params is model.params:
            # Adam writes into the parameters: copy the best epoch's only
            # when training goes on after it.
            best_params = {name: value.copy() for name, value in best_params.items()}
        epoch_rng = root.split(epoch + 1)
        order = epoch_rng.permutation(n)
        epoch_nll = 0.0
        epoch_tokens = 0
        for start, stop in batch_slices(n, train_config.batch_size):
            batch = [samples[j] for j in order[start:stop]]
            loss, grads, n_tokens = model.batch_loss(
                batch, mode="train", rng=epoch_rng
            )
            clip_gradients(grads, train_config.clip_norm)
            adam_step(model.params, grads, adam)
            del grads  # not alive while the next batch's are built
            epoch_nll += loss * n_tokens
            epoch_tokens += n_tokens
        history["train_loss"].append(epoch_nll / epoch_tokens)
        if val_samples is not None:
            val_loss = model.batch_nll(val_samples)
            history["val_loss"].append(val_loss)
            if val_loss < best_val:
                best_val = val_loss
                best_params = model.params
                history["best_epoch"] = epoch
                stale = 0
            else:
                stale += 1
                if stale >= train_config.patience:
                    break
    if best_params is not None:
        model.params = best_params
    elif history["train_loss"]:
        history["best_epoch"] = len(history["train_loss"]) - 1
    return model, history


# --------------------------------------------------------------------------
# Decoding
# --------------------------------------------------------------------------


def ensemble_beam_search_block(models, features, d, beam_width=5, max_len=20):
    """Beam-search decoding of a block of images under the mean of the
    members' distributions; returns one :class:`CaptionSequence` per row
    of ``features`` (N, feature_dim) and ``d`` (N, A).

    Hypotheses are scored by the sum of ``log(mean_k p_k(token))`` over
    their steps, the order-invariant ensemble mean making a one-member
    ensemble bitwise identical to plain single-model decoding. At each
    step every live hypothesis proposes its ``beam_width`` best
    non-BOS continuations, each image's pooled candidates are cut back
    to the best ``beam_width`` (ties broken toward smaller token ids,
    then shorter sequences), and candidates that just produced EOS
    retire to the image's finished pool while still occupying their
    slot in the cut.

    An image's result is its best finished hypothesis; if ``max_len``
    steps pass without any of its hypotheses finishing, its best live
    hypothesis is terminated with EOS (which is scored like any other
    step, so the reported ``log_prob`` is the true model score of the
    returned sequence).

    Images do not interact: only the rounding of the shared matrix
    products depends on which images share a block.
    """
    if beam_width < 1:
        raise ParameterError(f"beam width must be positive, got {beam_width}")
    if max_len < 1:
        raise ParameterError(f"max length must be positive, got {max_len}")
    if not models:
        raise ParameterError("decoding needs at least one model")
    features = np.asarray(features, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if features.ndim != 2 or d.ndim != 2 or len(features) != len(d):
        raise DimensionError(
            f"need one attribute row per feature row, got shapes "
            f"{features.shape} and {d.shape}"
        )
    n_images = len(features)
    if not n_images:
        return []
    z = [features @ m.params["Cv"].T for m in models]
    d_terms = [m.attribute_terms(d) for m in models]
    # Member k's next-token distributions over a step's rows go to
    # ``probs[k, :rows]``: one buffer for the whole block, allocated here,
    # as the pool's contract asks.
    probs = np.empty((len(models), n_images * beam_width, models[0].config.vocab_size))
    pool = nncore.worker_pool()

    def step(image, last_ids, h, c, first_step):
        """Log of the ensemble mean of the next-token distributions of
        the given rows, each member's new ``(h, c)`` rows, and the
        :func:`_best_continuations` of the rows.

        The members run at once on the worker pool. Then the rows are
        cut into at most one slab per worker, and each slab's mean, log
        and ranking run at once: all three are row-local, so the result
        is the same for any cut. The mean and its log are computed in
        place in the buffer, so the log probabilities are a view of
        ``probs[0, :rows]``: valid only until the next call."""
        n_rows = len(image)
        rows = probs[:, :n_rows]
        d_rows = d[image]

        def advance(k):
            a1, b1 = d_terms[k]
            _, h_k, c_k = models[k].step_probs(
                last_ids, h[k], c[k], d_rows, z=z[k][image] if first_step else None,
                d_terms=(a1[image], b1[image]), out=rows[k])
            return h_k, c_k

        def reduce(slab):
            lo, hi = slab
            mean = nncore.ensemble_mean(rows[:, lo:hi])
            np.log(mean, out=mean)
            row, token = _best_continuations(mean, beam_width)
            return row + lo, token

        states = pool.map(advance, range(len(models)))
        with np.errstate(divide="ignore"):
            ranked = pool.map(reduce, batch_slices(n_rows, -(-n_rows // pool.workers)))
        return rows[0], states, tuple(map(np.concatenate, zip(*ranked)))

    # Live rows, grouped by image in ascending order and best first
    # within an image: image index, score, token history from BOS, and
    # each member's h and c.
    image = np.arange(n_images)
    scores = np.zeros(n_images)
    tokens = np.full((n_images, 1), BOS_ID, dtype=np.int64)
    h = [np.zeros((n_images, m.config.hidden_dim)) for m in models]
    c = [np.zeros_like(h_k) for h_k in h]
    best = [None] * n_images  # (-log_prob, tokens) of each image's best finished

    for t in range(1, max_len + 1):
        log_probs, states, (row, token) = step(image, tokens[:, -1], h, c,
                                               first_step=(t == 1))
        score = scores[row] + log_probs[row, token]
        # Cut each image's pool by (image, -log p, token tuple); every
        # candidate has the same length, so the tuple order is the
        # column order of its token history.
        order = np.lexsort((token, *tokens[row].T[::-1], -score, image[row]))
        order = order[_leading(image[row[order]], beam_width)]
        row, token, score = row[order], token[order], score[order]
        done = token == EOS_ID
        for r, s in zip(row[done], score[done]):
            key = (-float(s), tuple(tokens[r].tolist()) + (EOS_ID,))
            i = image[r]
            best[i] = key if best[i] is None else min(best[i], key)
        row, token, scores = row[~done], token[~done], score[~done]
        image = image[row]
        tokens = np.column_stack((tokens[row], token))
        h = [h_k[row] for h_k, _ in states]
        c = [c_k[row] for _, c_k in states]
        if not len(row):
            break

    # Images with nothing finished within the length budget: one more
    # step scores EOS after each one's best live row, its first. The
    # forced step is always past step one, so no image term is added.
    forced = [i for i in range(n_images) if best[i] is None]
    if forced:
        rows = np.searchsorted(image, forced)
        log_probs, _, _ = step(image[rows], tokens[rows, -1], [h_k[rows] for h_k in h],
                               [c_k[rows] for c_k in c], first_step=False)
        for i, r, eos in zip(forced, rows, log_probs[:, EOS_ID]):
            best[i] = (-float(scores[r] + eos), tuple(tokens[r].tolist()) + (EOS_ID,))
    return [CaptionSequence(tokens=ids, log_prob=-cost) for cost, ids in best]


def _best_continuations(log_probs, beam_width):
    """``(rows, tokens)`` of each row's ``beam_width`` best non-BOS
    tokens, by descending log probability with ties toward the smaller
    token id.

    BOS (token 0) is sliced off, not masked: -inf is a real score when
    a probability underflows, so a masked BOS could tie with real
    tokens and win on its id. A partition finds each row's
    ``beam_width``-th best score; every token reaching it survives, so
    ties straddling the cut are settled by a stable sort of the
    survivors alone. ``~(cost > cut)`` keeps NaN scores too, which sort
    last, as in a full sort.
    """
    cost = -log_probs[:, BOS_ID + 1:]
    k = min(beam_width, cost.shape[1])
    cut = np.partition(cost, k - 1, axis=1)[:, k - 1:k]
    rows, cols = np.nonzero(~(cost > cut))
    order = np.lexsort((cost[rows, cols], rows))
    order = order[_leading(rows[order], beam_width)]
    return rows[order], cols[order] + BOS_ID + 1


def _leading(groups, n):
    """Mask of the first ``n`` entries of each run of equal values in
    the sorted array ``groups``."""
    return np.arange(len(groups)) - np.searchsorted(groups, groups) < n


def ensemble_beam_search(models, feature, d, beam_width=5, max_len=20):
    """Beam search for one image: :func:`ensemble_beam_search_block`
    over a block of one."""
    return ensemble_beam_search_block(
        models, np.reshape(feature, (1, -1)), np.reshape(d, (1, -1)),
        beam_width, max_len)[0]


def beam_search(model, feature, d, beam_width=5, max_len=20):
    """Single-model beam search (a one-member ensemble)."""
    return ensemble_beam_search([model], feature, d, beam_width, max_len)


# --------------------------------------------------------------------------
# Checkpoint formats
# --------------------------------------------------------------------------


def save_captioner(path, model, vocab, extra_meta=None):
    """Store one decoder as an ensemble of one."""
    save_captioner_ensemble(path, [model], vocab, extra_meta)


def save_captioner_ensemble(path, models, vocab, extra_meta=None):
    """Store all decoder members and the vocabulary in one checkpoint."""
    with ensemble_writer(path, ScnLstm, models[0].config, len(models), extra_meta,
                         vocab_words=vocab.words) as writer:
        for model in models:
            writer.add(model.tensors())


def load_captioner_ensemble(path):
    """``(members, vocab)`` of a captioner checkpoint."""
    models, config = load_ensemble(path, ScnLstm)
    words = config.get("vocab_words")
    size = models[0].config.vocab_size
    if not (isinstance(words, list) and len(words) == size
            and all(isinstance(word, str) for word in words)):
        raise FormatError(f"{path}: vocab_words must list {size} token strings")
    return models, CaptionVocab(words=words)
