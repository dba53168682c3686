"""TF-IDF attribute extraction tests against a naive independent oracle.

The oracle below recomputes every quantity with plain Python loops and
``math`` only, so any agreement with the module is meaningful: the two
sides share no code beyond the corpus tokenizer.
"""

import math
import random

import numpy as np
import pytest

from attrcap.corpus import Document, build_documents
from attrcap.semantics import (
    averaged_term_frequencies,
    build_vocabulary,
    compute_idf,
    corpus_idf,
    ground_truth_attributes,
    ground_truth_matrix,
    select_vocabulary,
    vocabulary_report,
)

IDF_DF2_OF_3 = math.log10(4 / 3) + 1  # word in 2 of the 3 fixture documents
IDF_DF1_OF_3 = math.log10(4 / 2) + 1  # word in 1 of the 3 fixture documents


# ---------------------------------------------------------------------------
# Independent naive oracle
# ---------------------------------------------------------------------------


def oracle_idf(documents):
    n_docs = len(documents)
    words = set()
    for doc in documents:
        for caption in doc.captions:
            words.update(caption)
    idf = {}
    for word in words:
        df = 0
        for doc in documents:
            if any(word in caption for caption in doc.captions):
                df += 1
        idf[word] = math.log10((n_docs + 1) / (df + 1)) + 1.0
    return idf


def oracle_vocab_words(documents, threshold):
    idf = oracle_idf(documents)
    kept = [word for word, value in idf.items() if value < threshold]
    return sorted(kept, key=lambda word: (idf[word], word))


def oracle_ground_truth(doc, documents, vocab_words):
    idf = oracle_idf(documents)
    raw = []
    for word in vocab_words:
        count = sum(caption.count(word) for caption in doc.captions)
        tf_av = count / len(doc.captions)
        raw.append(tf_av * idf[word])
    norm = math.sqrt(sum(value * value for value in raw))
    if norm == 0.0:
        return raw
    return [value / norm for value in raw]


def random_corpus(rng, max_docs=50):
    pool = [
        "cat", "dog", "bird", "horse", "tree", "car", "road", "sky",
        "water", "grass", "man", "woman", "child", "ball", "red",
        "green", "big", "small", "runs", "sleeps",
    ]
    n_docs = rng.randint(1, max_docs)
    pairs = []
    for image_id in range(n_docs):
        for _ in range(rng.randint(1, 5)):
            length = rng.randint(1, 8)
            caption = " ".join(rng.choice(pool) for _ in range(length))
            pairs.append((image_id, caption))
    return build_documents(pairs, apply_stemming=False)


# ---------------------------------------------------------------------------
# term frequency
# ---------------------------------------------------------------------------


def test_tf_av_word_in_three_of_five_captions():
    doc = Document(image_id=1, captions=[
        ["surfboard", "wave"], ["surfboard"], ["big", "surfboard"],
        ["wave", "splash"], ["sunny", "beach"],
    ])
    tf = averaged_term_frequencies(doc).get("surfboard", 0.0)
    assert tf == pytest.approx(0.6, abs=1e-15)


def test_tf_av_absent_word_is_zero():
    doc = Document(image_id=1, captions=[["cat"]])
    assert averaged_term_frequencies(doc).get("zebra", 0.0) == 0.0


def test_tf_av_fixture_document(t1_documents):
    assert averaged_term_frequencies(t1_documents[0]).get("cat", 0.0) == 1.0
    assert averaged_term_frequencies(t1_documents[0]).get("the", 0.0) == 0.5


def test_tf_av_requires_captions():
    with pytest.raises(ValueError, match="no captions"):
        averaged_term_frequencies(Document(image_id=1))


# ---------------------------------------------------------------------------
# IDF
# ---------------------------------------------------------------------------


def test_idf_word_in_every_document():
    assert compute_idf(5, 5) == 1.0
    assert compute_idf(9, 9) == 1.0


def test_idf_absent_word():
    assert compute_idf(0, 9) == 2.0


def test_idf_rejects_bad_counts():
    with pytest.raises(ValueError):
        compute_idf(3, 0)
    with pytest.raises(ValueError):
        compute_idf(6, 5)
    with pytest.raises(ValueError):
        compute_idf(-1, 5)


def test_idf_threshold_five_means_one_in_ten_thousand():
    # idf < 5 is equivalent to df+1 > (n_docs+1)/10^4, i.e. the word
    # appears in more than about one ten-thousandth of the documents.
    n_docs = 82783
    cut = (n_docs + 1) / 10_000
    for df in [0, 3, 7, 8, 9, 100, n_docs]:
        assert (compute_idf(df, n_docs) < 5.0) == (df + 1 > cut)


def test_corpus_idf_matches_oracle(t1_documents):
    idf = corpus_idf(t1_documents)
    assert idf == pytest.approx(oracle_idf(t1_documents), abs=1e-15)
    assert idf["cat"] == pytest.approx(IDF_DF2_OF_3, abs=1e-15)
    assert idf["barks"] == pytest.approx(IDF_DF1_OF_3, abs=1e-15)


# ---------------------------------------------------------------------------
# vocabulary selection
# ---------------------------------------------------------------------------


def test_vocabulary_keeps_only_low_idf_words(t1_documents):
    vocab = build_vocabulary(t1_documents, 1.2)
    assert vocab.words == ["cat", "dog", "the"]
    assert vocab.idf == pytest.approx([IDF_DF2_OF_3] * 3, abs=1e-15)


def test_vocabulary_ordering_ascending_idf_then_lexicographic(t1_documents):
    vocab = build_vocabulary(t1_documents, 1.4)
    assert vocab.words == [
        "cat", "dog", "the", "and", "barks", "runs", "sits", "sleeps",
    ]


def test_vocabulary_tie_at_threshold_excluded(t1_documents):
    vocab = build_vocabulary(t1_documents, IDF_DF1_OF_3)
    assert vocab.words == ["cat", "dog", "the"]


def test_vocabulary_huge_threshold_admits_all_stems(t1_documents):
    vocab = build_vocabulary(t1_documents, 1e9)
    assert len(vocab) == 8


def test_vocabulary_invariants_on_random_corpora():
    rng = random.Random(4)
    for _ in range(10):
        documents = random_corpus(rng, max_docs=20)
        vocab = build_vocabulary(documents, rng.uniform(1.0, 2.0))
        assert len(set(vocab.words)) == len(vocab.words)
        assert all(value > 0 for value in vocab.idf)
        assert all(value < vocab.threshold for value in vocab.idf)
        assert vocab.words == oracle_vocab_words(documents, vocab.threshold)


def test_vocabulary_nesting_in_threshold():
    rng = random.Random(11)
    for _ in range(10):
        documents = random_corpus(rng, max_docs=20)
        previous = set()
        for threshold in [1.0, 1.5, 2.0, 3.0]:
            words = set(build_vocabulary(documents, threshold).words)
            assert previous <= words
            previous = words


def test_vocabulary_index_inverts_words(t1_documents):
    vocab = build_vocabulary(t1_documents, 1.4)
    assert all(vocab.words[i] == w for w, i in vocab.index.items())
    assert len(vocab.index) == len(vocab)


# ---------------------------------------------------------------------------
# ground-truth attribute vectors
# ---------------------------------------------------------------------------


def test_ground_truth_fixture_value(t1_documents):
    vocab = build_vocabulary(t1_documents, 1.4)
    values = ground_truth_attributes(t1_documents[0], vocab)
    assert values[vocab.index["cat"]] == pytest.approx(0.72191, abs=5e-5)
    oracle = oracle_ground_truth(t1_documents[0], t1_documents, vocab.words)
    for got, want in zip(values, oracle):
        assert got == pytest.approx(want, abs=1e-12)


def test_ground_truth_no_shared_word_is_zero_vector(t1_documents):
    vocab = build_vocabulary(t1_documents, 1.4)
    stranger = Document(image_id=99, captions=[["zebra", "stripes"]])
    assert not ground_truth_attributes(stranger, vocab).any()


def test_ground_truth_single_vocab_word_is_exactly_one(t1_documents):
    vocab = build_vocabulary(t1_documents, 1.2)
    doc = Document(image_id=99, captions=[["the", "zebra"], ["zebra"]])
    values = ground_truth_attributes(doc, vocab)
    assert values[vocab.index["the"]] == 1.0
    assert values.sum() == 1.0


def test_ground_truth_norm_and_range_on_random_corpora():
    rng = random.Random(21)
    for _ in range(10):
        documents = random_corpus(rng, max_docs=20)
        vocab = build_vocabulary(documents, rng.uniform(1.0, 2.5))
        for doc in documents:
            values = ground_truth_attributes(doc, vocab)
            assert (values >= 0.0).all() and (values <= 1.0).all()
            norm = math.sqrt(float((values * values).sum()))
            if norm > 0.0:
                assert norm == pytest.approx(1.0, abs=1e-9)


def test_ground_truth_matches_oracle_on_random_corpora():
    rng = random.Random(33)
    for _ in range(20):
        documents = random_corpus(rng)
        vocab = build_vocabulary(documents, rng.uniform(1.0, 2.5))
        matrix = ground_truth_matrix(documents, vocab)
        assert matrix.shape == (len(documents), len(vocab))
        for row, doc in enumerate(documents):
            oracle = oracle_ground_truth(doc, documents, vocab.words)
            for got, want in zip(matrix[row], oracle):
                assert abs(got - want) < 1e-12


def test_ground_truth_scale_invariance(t1_documents):
    # Normalization removes any positive scaling of the raw TF-IDF vector.
    vocab = build_vocabulary(t1_documents, 1.4)
    idf = corpus_idf(t1_documents)
    for doc in t1_documents:
        tf = averaged_term_frequencies(doc)
        for scale in [1.0, 3.7, 1e-6, 1e6]:
            raw = [scale * tf.get(w, 0.0) * idf[w] for w in vocab.words]
            norm = math.sqrt(sum(v * v for v in raw))
            scaled = [v / norm for v in raw] if norm else raw
            values = ground_truth_attributes(doc, vocab)
            for got, want in zip(values, scaled):
                assert abs(got - want) < 1e-12


def test_ground_truth_independent_of_document_order(t1_documents):
    vocab = build_vocabulary(t1_documents, 1.4)
    for doc in t1_documents:
        reference = ground_truth_attributes(doc, vocab)
        shuffled = list(reversed(t1_documents))
        vocab2 = build_vocabulary(shuffled, 1.4)
        assert vocab2.words == vocab.words
        again = ground_truth_attributes(doc, vocab2)
        assert (reference == again).all()


def reference_ground_truth_attributes(document, vocabulary):
    """The per-vocabulary-word loop ``ground_truth_attributes`` once ran."""
    tf = averaged_term_frequencies(document)
    values = np.zeros(len(vocabulary.words), dtype=np.float64)
    for position, (word, word_idf) in enumerate(
        zip(vocabulary.words, vocabulary.idf)
    ):
        freq = tf.get(word)
        if freq is not None:
            values[position] = freq * word_idf
    norm = float(np.linalg.norm(values))
    if norm > 0.0:
        values /= norm
    return values


def test_ground_truth_is_byte_equal_to_the_per_vocabulary_loop(t1_documents):
    rng = random.Random(47)
    cases = [(t1_documents, build_vocabulary(t1_documents, 1.4))]
    for _ in range(25):
        documents = random_corpus(rng)
        cases.append((documents, build_vocabulary(documents, rng.uniform(1.0, 2.5))))
    for documents, vocab in cases:
        # A document with no vocabulary word keeps the all-zero row.
        documents = documents + [Document(image_id=-1, captions=[["zebra"]])]
        matrix = ground_truth_matrix(documents, vocab)
        want = np.array([reference_ground_truth_attributes(doc, vocab)
                         for doc in documents]).reshape(matrix.shape)
        assert matrix.dtype == want.dtype and matrix.tobytes() == want.tobytes()
        for row, doc in enumerate(documents):
            got = ground_truth_attributes(doc, vocab)
            assert got.tobytes() == want[row].tobytes()
        assert not matrix[-1].any()


# ---------------------------------------------------------------------------
# vocabulary report
# ---------------------------------------------------------------------------


def test_report_sizes_non_decreasing(t1_documents):
    report = vocabulary_report(t1_documents, [1.0, 1.2, 3.0])
    sizes = [report["sizes"][repr(t)] for t in [1.0, 1.2, 3.0]]
    assert sizes == sorted(sizes)
    assert sizes[-1] == report["total_words"] == 8
    assert sizes[1] == 3


def test_report_single_document_corpus():
    documents = build_documents(
        [(1, "red bird sings"), (1, "small red bird")], apply_stemming=False
    )
    report = vocabulary_report(documents, [1.0, 1.0001, 2.0])
    # Every word is in the single document: IDF = log10(2/2) + 1 = 1.
    assert report["sizes"][repr(1.0)] == 0
    assert report["sizes"][repr(1.0001)] == report["total_words"]
    assert report["sizes"][repr(2.0)] == report["total_words"]


def test_select_vocabulary_shares_idf_map(t1_documents):
    idf = corpus_idf(t1_documents)
    direct = build_vocabulary(t1_documents, 1.4)
    via_map = select_vocabulary(idf, 1.4)
    assert via_map.words == direct.words
    assert via_map.idf == direct.idf
