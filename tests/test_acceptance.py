"""Release acceptance gates.

One test per gate, numbered so a verbose run reads as a checklist:

 1. attribute vectors match an independent naive recomputation
 2. stemmer reproduces its reference vectors exactly
 3. nonzero attribute vectors are unit-norm with entries in [0, 1]
 4. vocabularies nest as the threshold grows
 5. finite-difference gradient checks for both networks
 6. eight-image overfit round trip through the whole model stack
 7. beam search is exact at full width and monotone in width
 8. frozen metric fixture values
 9. ensembles of identical members equal the single model bitwise
10. pipeline reruns produce byte-identical artifacts
11. dataset-scale vocabulary counts (optional, needs a local captions file)
"""

import itertools
import json
import math
import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

from attrcap import storage
from attrcap.attrnet import (
    AttrNet,
    AttrNetConfig,
    AttrTrainConfig,
    mse_loss,
    predict_ensemble,
    train_attrnet,
)
from attrcap.cli import main
from attrcap.corpus import build_documents, parse_caption_file, stem, tokenize
from attrcap.metrics import attribute_f1, bleu, cider_d, rouge_l
from attrcap.nncore import Rng
from attrcap.scnlstm import (
    BOS_ID,
    EOS_ID,
    CaptionTrainConfig,
    CaptionVocab,
    ScnLstm,
    ScnLstmConfig,
    beam_search,
    ensemble_beam_search,
    train_captioner,
)
from attrcap.semantics import (
    build_vocabulary,
    ground_truth_matrix,
    vocabulary_report,
)

from gradcheck import gradient_check

# ---------------------------------------------------------------------------
# Naive TF-IDF oracle: plain loops and ``math`` only, sharing no code with
# the package beyond the tokenizer that built the documents.
# ---------------------------------------------------------------------------


def oracle_idf(documents):
    n_docs = len(documents)
    words = set()
    for doc in documents:
        for caption in doc.captions:
            words.update(caption)
    idf = {}
    for word in words:
        df = sum(
            1 for doc in documents
            if any(word in caption for caption in doc.captions)
        )
        idf[word] = math.log10((n_docs + 1) / (df + 1)) + 1.0
    return idf


def oracle_vocab_words(idf, threshold):
    kept = [word for word, value in idf.items() if value < threshold]
    return sorted(kept, key=lambda word: (idf[word], word))


def oracle_ground_truth(doc, idf, vocab_words):
    raw = []
    for word in vocab_words:
        count = sum(caption.count(word) for caption in doc.captions)
        raw.append(count / len(doc.captions) * idf[word])
    norm = math.sqrt(sum(value * value for value in raw))
    if norm == 0.0:
        return raw
    return [value / norm for value in raw]


def random_corpus(gen, max_docs=50):
    pool = [
        "cat", "dog", "bird", "horse", "tree", "car", "road", "sky",
        "water", "grass", "man", "woman", "child", "ball", "red",
        "green", "big", "small", "runs", "sleeps",
    ]
    n_docs = gen.randint(1, max_docs)
    pairs = []
    for image_id in range(n_docs):
        for _ in range(gen.randint(1, 5)):
            length = gen.randint(1, 8)
            pairs.append(
                (image_id, " ".join(gen.choice(pool) for _ in range(length)))
            )
    return build_documents(pairs, apply_stemming=False)


# ---------------------------------------------------------------------------
# 1. attribute extraction against the oracle
# ---------------------------------------------------------------------------


def test_criterion_01_attribute_vectors_match_naive_oracle(t1_documents):
    gen = random.Random(501)
    jobs = [(t1_documents, 1.4)]
    jobs += [
        (random_corpus(gen), gen.uniform(1.0, 2.5)) for _ in range(20)
    ]
    start = time.perf_counter()
    for documents, threshold in jobs:
        vocab = build_vocabulary(documents, threshold)
        idf = oracle_idf(documents)
        assert vocab.words == oracle_vocab_words(idf, threshold)
        matrix = ground_truth_matrix(documents, vocab)
        for row, doc in zip(matrix, documents):
            expected = oracle_ground_truth(doc, idf, vocab.words)
            for got, want in zip(row, expected):
                assert abs(got - want) < 1e-12
    elapsed = time.perf_counter() - start

    # Hand-derived anchor on the three-image fixture: "cat" for image 1.
    vocab = build_vocabulary(t1_documents, 1.4)
    matrix = ground_truth_matrix(t1_documents, vocab)
    assert abs(matrix[0][vocab.index["cat"]] - 0.721916188332691) < 1e-12
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. stemmer reference vectors
# ---------------------------------------------------------------------------


def test_criterion_02_stemmer_reference_vectors():
    vectors = {
        "looking": "look",
        "looks": "look",
        "apple": "appl",
        "vegetables": "veget",
        "microwave": "microwav",
        "horses": "hors",
        "carriage": "carriag",
        "baseball": "basebal",
    }
    for word, want in vectors.items():
        assert stem(word) == want


# ---------------------------------------------------------------------------
# 3. attribute-vector invariants
# ---------------------------------------------------------------------------


def test_criterion_03_attribute_vectors_are_unit_norm_in_range(t1_documents):
    gen = random.Random(907)
    corpora = [t1_documents]
    corpora += [random_corpus(gen, max_docs=30) for _ in range(10)]
    for documents in corpora:
        vocab = build_vocabulary(documents, gen.uniform(1.0, 2.5))
        matrix = ground_truth_matrix(documents, vocab)
        assert (matrix >= 0.0).all() and (matrix <= 1.0).all()
        for row in matrix:
            norm = math.sqrt(float((row * row).sum()))
            if norm > 0.0:
                assert abs(norm - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# 4. vocabulary nesting
# ---------------------------------------------------------------------------


def test_criterion_04_vocabularies_nest_as_threshold_grows():
    gen = random.Random(1109)
    for _ in range(10):
        documents = random_corpus(gen, max_docs=30)
        previous = set()
        for threshold in (1.0, 1.5, 2.0, 3.0):
            words = set(build_vocabulary(documents, threshold).words)
            assert previous <= words
            previous = words


# ---------------------------------------------------------------------------
# 5. gradient checks
# ---------------------------------------------------------------------------


def test_criterion_05_finite_difference_gradient_checks():
    start = time.perf_counter()

    # Attribute network with dropout off and batch norm on its frozen
    # running statistics.
    config = AttrNetConfig(n_words=4, feature_dim=5, hidden_dim=6,
                           dropout=0.0)
    net = AttrNet(config, seed=3)
    x = Rng(6).normal((5, 5))
    y = np.abs(Rng(7).normal((5, 4)))
    err = gradient_check(
        lambda p: AttrNet(config, params=p, stats=net.stats).loss(
            x, y, mode="inference"),
        net.params, eps=1e-5,
    )
    assert err < 1e-4

    # Full decoder loss over two-step sequences (one word plus the end
    # marker) at hidden = factor = 8 with six attribute words.
    cfg = ScnLstmConfig(vocab_size=6, n_words=6, feature_dim=7, embed_dim=4,
                        hidden_dim=8, factor_dim=8, dropout=0.0)
    model = ScnLstm(cfg, seed=16)
    rng = Rng(1016)
    samples = [
        (rng.normal((7,)), np.abs(rng.normal((6,))), [BOS_ID, w, EOS_ID])
        for w in (3, 4, 5)
    ]
    err = gradient_check(
        lambda p: ScnLstm(cfg, params=p).batch_loss(samples, mode="inference")[:2],
        model.params, eps=1e-5,
    )
    assert err < 1e-4
    assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# 6. overfit round trip
# ---------------------------------------------------------------------------

OVERFIT_CAPTIONS = [
    (1, "the cat chases the ball"),
    (2, "that dog carries my ball"),
    (3, "the cat watches the dog"),
    (4, "one dog finds one ball"),
    (5, "this cat likes that ball"),
    (6, "some dog sees some cat"),
    (7, "every cat wants every ball"),
    (8, "each dog guards each ball"),
]


def test_criterion_06_eight_image_overfit_round_trip():
    start = time.perf_counter()
    documents = build_documents(OVERFIT_CAPTIONS, apply_stemming=False)
    vocabulary = build_vocabulary(documents, 1.3)
    assert vocabulary.words == ["ball", "cat", "dog"]
    targets = ground_truth_matrix(documents, vocabulary)
    features = Rng(0).normal((8, 2048))

    net, _ = train_attrnet(
        features, targets,
        AttrNetConfig(n_words=3, feature_dim=2048, hidden_dim=128,
                      dropout=0.0, bn_on_output=True),
        AttrTrainConfig(learning_rate=1e-2, batch_size=4, epochs=1500,
                        seed=6),
    )
    predicted = net.predict(features)
    assert mse_loss(predicted, targets)[0] < 1e-3

    token_lists = [tokenize(text) for _, text in OVERFIT_CAPTIONS]
    assert all(4 <= len(tokens) <= 6 for tokens in token_lists)
    vocab = CaptionVocab.from_token_lists(token_lists, min_count=1)
    samples = [
        (features[i], predicted[i], vocab.encode(token_lists[i]))
        for i in range(len(token_lists))
    ]
    model, _ = train_captioner(
        samples,
        ScnLstmConfig(vocab_size=len(vocab), n_words=3, feature_dim=2048,
                      embed_dim=32, hidden_dim=64, factor_dim=64,
                      dropout=0.0),
        CaptionTrainConfig(learning_rate=1e-2, batch_size=8, max_epochs=200,
                           clip_norm=5.0, seed=9),
    )
    assert model.batch_nll(samples) < 0.05

    for (feature, attrs, _), tokens in zip(samples, token_lists):
        seq = beam_search(model, feature, attrs, beam_width=5, max_len=10)
        assert vocab.decode(seq.tokens) == tokens
    assert time.perf_counter() - start < 120.0


# ---------------------------------------------------------------------------
# 7. beam-search exactness and width monotonicity
# ---------------------------------------------------------------------------


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


def test_criterion_07_beam_search_exactness_and_width_monotonicity():
    # Full-vocab width equals exhaustive enumeration on small decoders.
    # (An empirical-regime property, not a theorem: a beam keeps the
    # best-scoring prefixes, and rare sharp models hide the optimum
    # behind a weak prefix. Unscaled random models never did that in a
    # 250-toy sweep; the x5-sharpened models did so twice in 300.)
    for seed in range(50):
        vocab_size = 3 + seed % 3
        max_len = 2 + seed % 3
        cfg = ScnLstmConfig(vocab_size=vocab_size, n_words=2, feature_dim=3,
                            embed_dim=3, hidden_dim=4, factor_dim=4,
                            dropout=0.0)
        model = ScnLstm(cfg, seed=seed)
        if seed % 2:
            model.params = {k: v * 5.0 for k, v in model.params.items()}
        rng = Rng(1000 + seed)
        feature = rng.normal((3,))
        d = np.abs(rng.normal((2,)))
        want_tokens, want_lp = exhaustive_best(model, feature, d, max_len)
        seq = beam_search(model, feature, d, beam_width=vocab_size,
                          max_len=max_len)
        assert seq.tokens == want_tokens
        assert abs(seq.log_prob - want_lp) < 1e-9

    # Wider beams never score worse while decodes finish inside the length
    # budget; a mild end-marker bias keeps the models in that regime.
    cfg = ScnLstmConfig(vocab_size=5, n_words=2, feature_dim=3, embed_dim=3,
                        hidden_dim=4, factor_dim=4, dropout=0.0)
    for seed in range(50):
        model = ScnLstm(cfg, seed=300 + seed)
        model.params["bout"] = model.params["bout"].copy()
        model.params["bout"][EOS_ID] += 1.0
        rng = Rng(400 + seed)
        feature = rng.normal((3,))
        d = np.abs(rng.normal((2,)))
        scores = []
        for width in (1, 2, 3, 5):
            seq = beam_search(model, feature, d, beam_width=width,
                              max_len=10)
            assert seq.length <= 10
            scores.append(seq.log_prob)
        assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))


# ---------------------------------------------------------------------------
# 8. metric fixtures
# ---------------------------------------------------------------------------


def test_criterion_08_metric_fixture_values():
    tokens = ["a", "grey", "cat", "sits", "outside"]
    assert bleu([tokens], [[tokens]])["bleu"] == 1.0

    clipped = bleu([["the"] * 7],
                   [[["the", "cat", "is", "on", "the", "mat"]]])
    assert abs(clipped["precisions"][0] - 2.0 / 7.0) <= 1e-12

    short = bleu([["a", "b", "c"]], [[["a", "b", "c", "d", "e", "f"]]],
                 max_n=1)
    assert abs(short["brevity_penalty"] - math.exp(-1.0)) <= 1e-12
    assert abs(short["bleu"] - math.exp(-1.0)) <= 1e-12

    # Precision and recall are both 3/4 here, so the weighted harmonic mean
    # is 3/4 regardless of beta; asserted at beta=1 and at the default.
    cands, refs = [["a", "b", "c", "d"]], [[["a", "c", "d", "e"]]]
    assert abs(rouge_l(cands, refs, beta=1.0)["rouge_l"] - 0.75) <= 1e-12
    assert abs(rouge_l(cands, refs)["rouge_l"] - 0.75) <= 1e-12

    # Two images with disjoint single references: a candidate equal to its
    # own reference scores the full 10. (A one-image corpus is degenerate:
    # every n-gram then appears in every document and all weights vanish.)
    cands = [["a", "b", "c", "d"], ["e", "f", "g", "h"]]
    refs = [[cands[0]], [cands[1]]]
    result = cider_d(cands, refs)
    assert abs(result["cider_d"] - 10.0) <= 1e-6
    for score in result["per_image"]:
        assert abs(score - 10.0) <= 1e-6

    target = np.array([[0.1, 0.4, 0.0], [0.9, 0.0, 0.6]])
    perfect = attribute_f1(target, target)
    assert perfect["macro_f1"] == 1.0
    assert perfect["micro_f1"] == 1.0


# ---------------------------------------------------------------------------
# 9. ensemble identities
# ---------------------------------------------------------------------------


def test_criterion_09_ensemble_identities_are_bitwise():
    # Attribute prediction.
    config = AttrNetConfig(n_words=3, feature_dim=6, hidden_dim=8,
                           dropout=0.3)
    net = AttrNet(config, seed=11)
    x = Rng(12).normal((5, 6))
    single = net.predict(x)
    for k in (1, 4):
        assert np.array_equal(predict_ensemble([net] * k, x), single)

    # Caption decoding.
    cfg = ScnLstmConfig(vocab_size=5, n_words=2, feature_dim=3, embed_dim=3,
                        hidden_dim=4, factor_dim=4, dropout=0.0)
    model = ScnLstm(cfg, seed=25)
    model.params = {k: v * 2.0 for k, v in model.params.items()}
    rng = Rng(26)
    feature = rng.normal((3,))
    d = np.abs(rng.normal((2,)))
    single_seq = beam_search(model, feature, d, beam_width=3, max_len=5)
    for k in (1, 3):
        ens = ensemble_beam_search([model] * k, feature, d, beam_width=3,
                                   max_len=5)
        assert ens.tokens == single_seq.tokens
        assert ens.log_prob == single_seq.log_prob


# ---------------------------------------------------------------------------
# 10. pipeline determinism
# ---------------------------------------------------------------------------

PIPELINE_FEATURE_DIM = 12

PIPELINE_CAPTIONS = {
    "info": {"description": "miniature fixture"},
    "annotations": [
        {"image_id": 1, "id": 10, "caption": "A red bird sits on a branch"},
        {"image_id": 1, "id": 11, "caption": "The red bird rests quietly"},
        {"image_id": 2, "id": 20, "caption": "A yellow dog runs on grass"},
        {"image_id": 2, "id": 21, "caption": "The dog chases a ball"},
        {"image_id": 3, "id": 30, "caption": "A red ball lies on the grass"},
        {"image_id": 3, "id": 31, "caption": "The ball is red"},
        {"image_id": 4, "id": 40, "caption": "A bird and a dog play"},
        {"image_id": 4, "id": 41, "caption": "The dog watches the bird"},
    ],
}

PIPELINE = [
    ["extract", "--captions", "captions.json", "--stem",
     "--idf-threshold", "1.3", "--out-vocab", "vocab.json",
     "--out-attrs", "gt.jsonl", "--seed", "3"],
    ["vocab-report", "--captions", "captions.json", "--stem",
     "--thresholds", "1.0,1.3,2.0", "--out", "sizes.json"],
    ["train-attr", "--features", "feats.daef", "--attrs", "gt.jsonl",
     "--out-model", "attr.daec", "--hidden", "16", "--epochs", "40",
     "--batch-size", "2", "--learning-rate", "0.003", "--ensemble", "2",
     "--seed", "5"],
    ["predict-attr", "--features", "feats.daef", "--model", "attr.daec",
     "--out-attrs", "pred.jsonl", "--seed", "5"],
    ["train-captioner", "--captions", "captions.json", "--features",
     "feats.daef", "--attrs", "pred.jsonl", "--out-model", "cap.daec",
     "--min-count", "1", "--embed-dim", "6", "--hidden", "8", "--factor",
     "8", "--dropout", "0.0", "--learning-rate", "0.01", "--batch-size",
     "4", "--epochs", "8", "--val-fraction", "0.25", "--patience", "4",
     "--ensemble", "2", "--init-embeddings", "vectors.txt", "--seed", "7"],
    ["caption", "--features", "feats.daef", "--attrs", "pred.jsonl",
     "--model", "cap.daec", "--beam", "3", "--max-len", "8",
     "--out", "decoded.jsonl", "--seed", "7"],
    ["eval-attr", "--pred", "pred.jsonl", "--gt", "gt.jsonl",
     "--out", "f1.json"],
    ["eval-captions", "--candidates", "decoded.jsonl", "--references",
     "captions.json", "--out", "scores.json"],
]

PIPELINE_ARTIFACTS = ["vocab.json", "gt.jsonl", "sizes.json", "attr.daec",
                      "pred.jsonl", "cap.daec", "decoded.jsonl", "f1.json",
                      "scores.json"]


def write_pipeline_inputs(root):
    (root / "captions.json").write_text(json.dumps(PIPELINE_CAPTIONS))
    features = Rng(50).normal((4, PIPELINE_FEATURE_DIM))
    storage.write_features(root / "feats.daef", [1, 2, 3, 4], features)
    dims = 6
    rows = ["2 {}".format(dims),
            "red " + " ".join(str(0.125 * (i + 1)) for i in range(dims)),
            "dog " + " ".join(str(-0.25) for _ in range(dims))]
    (root / "vectors.txt").write_text("\n".join(rows) + "\n")


def test_criterion_10_pipeline_reruns_are_byte_identical(
        tmp_path, monkeypatch, capsys):
    snapshots = []
    for run in ("first", "second"):
        root = tmp_path / run
        root.mkdir()
        monkeypatch.chdir(root)
        write_pipeline_inputs(root)
        for argv in PIPELINE:
            code = main(list(argv))
            captured = capsys.readouterr()
            assert code == 0, f"{argv[0]} failed: {captured.err}"
        snapshots.append({name: (root / name).read_bytes()
                          for name in PIPELINE_ARTIFACTS})
    for name in PIPELINE_ARTIFACTS:
        assert snapshots[0][name] == snapshots[1][name], name


# ---------------------------------------------------------------------------
# 11. dataset-scale vocabulary counts (optional)
# ---------------------------------------------------------------------------

COCO_CAPTIONS_ENV = "ATTRCAP_COCO_CAPTIONS"


@pytest.mark.skipif(COCO_CAPTIONS_ENV not in os.environ,
                    reason="set ATTRCAP_COCO_CAPTIONS to a local COCO 2014 "
                           "captions JSON to run the dataset-scale check")
def test_criterion_11_dataset_scale_vocabulary_report():
    """Stemmed vocabulary sizes over a full captions dataset land within
    10% of the reference counts for that dataset."""
    path = Path(os.environ[COCO_CAPTIONS_ENV])
    start = time.perf_counter()
    pairs = parse_caption_file(path)
    documents = build_documents(pairs, apply_stemming=True)
    report = vocabulary_report(documents, [5.0, 7.0])
    elapsed = time.perf_counter() - start
    checks = [
        (report["sizes"][repr(5.0)], 276),
        (report["sizes"][repr(7.0)], 938),
        (report["total_words"], 5663),
    ]
    for got, want in checks:
        assert abs(got - want) <= 0.10 * want, (got, want)
    assert elapsed < 120.0
