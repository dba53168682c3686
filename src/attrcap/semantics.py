"""Distinctive-attribute extraction over caption documents.

Given the documents built by :mod:`attrcap.corpus`, this module computes
averaged term frequencies, smoothed inverse document frequencies, the
frequency-restricted attribute vocabulary, and the normalized TF-IDF
ground-truth attribute vector of each document.

Definitions (w a word, d a document, N_d the number of documents):

* ``TF_av(w, d)`` is the raw count of ``w`` in ``d`` divided by the
  number of captions merged into ``d``.
* ``IDF(w) = log10((N_d + 1) / (DF(w) + 1)) + 1`` where ``DF(w)`` is the
  number of documents containing ``w``. Base-10 logarithms are part of
  the contract; callers compare IDF values against decimal thresholds.
* The vocabulary at threshold ``t`` keeps exactly the words with
  ``IDF(w) < t`` (strictly below: frequent words have low IDF, so the
  threshold caps how rare an admitted word may be). Words are ordered
  by ascending IDF, ties broken lexicographically.
* The ground-truth attribute vector lists ``TF_av * IDF`` over the
  vocabulary words and is L2-normalized.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Vocabulary",
    "averaged_term_frequencies",
    "build_vocabulary",
    "compute_idf",
    "corpus_idf",
    "ground_truth_attributes",
    "ground_truth_matrix",
    "select_vocabulary",
    "vocabulary_report",
]


def averaged_term_frequencies(document):
    """Averaged term frequency of every word in one document.

    Returns a dict mapping word to ``count / n_captions``. A document
    that claims zero captions has no well-defined average.
    """
    if document.n_captions < 1:
        raise ValueError(
            f"document {document.image_id} has no captions; "
            "averaged term frequency is undefined"
        )
    counts = Counter(document.tokens)
    scale = 1.0 / document.n_captions
    return {word: count * scale for word, count in counts.items()}


def compute_idf(df, n_docs):
    """Smoothed inverse document frequency for one document count.

    ``IDF = log10((n_docs + 1) / (df + 1)) + 1``; the add-one terms keep
    the ratio finite and positive even for words present in every
    document.
    """
    if n_docs < 1:
        raise ValueError("IDF needs at least one document")
    if not 0 <= df <= n_docs:
        raise ValueError(f"document frequency {df} outside [0, {n_docs}]")
    return math.log10((n_docs + 1) / (df + 1)) + 1.0


def corpus_idf(documents):
    """Smoothed inverse document frequency of every word in the corpus."""
    n_docs = len(documents)
    doc_freq = Counter()
    for document in documents:
        doc_freq.update(set(document.tokens))
    return {word: compute_idf(df, n_docs) for word, df in doc_freq.items()}


@dataclass
class Vocabulary:
    """Attribute vocabulary: the words admitted below an IDF threshold.

    ``words`` is sorted by ascending IDF with lexicographic tie-breaks,
    ``idf`` is aligned with ``words``, and ``index`` inverts ``words``.
    ``stemmed`` records whether the source corpus was stemmed, purely
    as provenance for artifact files.
    """

    threshold: float
    stemmed: bool
    words: list[str]
    idf: list[float]
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.index = {word: i for i, word in enumerate(self.words)}

    def __len__(self):
        return len(self.words)


def select_vocabulary(idf, threshold, stemmed=False):
    """Select words with IDF strictly below ``threshold`` from an IDF map.

    Ties at the threshold are excluded, so vocabularies built at
    increasing thresholds are nested: every word admitted at ``t1`` is
    admitted at any ``t2 > t1``.
    """
    admitted = sorted(
        (word for word, value in idf.items() if value < threshold),
        key=lambda word: (idf[word], word),
    )
    return Vocabulary(
        threshold=float(threshold),
        stemmed=stemmed,
        words=admitted,
        idf=[idf[word] for word in admitted],
    )


def build_vocabulary(documents, threshold, stemmed=False):
    """Build the attribute vocabulary of a document corpus.

    Computes per-word IDF over ``documents`` and keeps the words whose
    IDF lies strictly below ``threshold``.
    """
    return select_vocabulary(corpus_idf(documents), threshold, stemmed)


def ground_truth_attributes(document, vocabulary):
    """Normalized TF-IDF attribute vector of one document.

    The vector has one entry per vocabulary word, equal to
    ``TF_av(w, d) * IDF(w)`` and then L2-normalized. A document that
    contains no vocabulary word keeps the all-zero vector (there is
    nothing to normalize). Entries are always in ``[0, 1]``: products
    are non-negative and no entry can exceed the vector's own norm.
    """
    values = np.zeros(len(vocabulary.words), dtype=np.float64)
    for word, freq in averaged_term_frequencies(document).items():
        position = vocabulary.index.get(word)
        if position is not None:
            values[position] = freq * vocabulary.idf[position]
    norm = float(np.linalg.norm(values))
    if norm > 0.0:
        values /= norm
    return values


def ground_truth_matrix(documents, vocabulary):
    """Stack per-document attribute vectors into an (N_d, N_w) matrix."""
    matrix = np.zeros((len(documents), len(vocabulary.words)), dtype=np.float64)
    for row, document in enumerate(documents):
        matrix[row] = ground_truth_attributes(document, vocabulary)
    return matrix


def vocabulary_report(documents, thresholds, stemmed=False):
    """Vocabulary sizes at several IDF thresholds.

    Returns a dict with the total number of distinct words in the
    corpus and, per threshold, the size of the vocabulary it admits.
    The sizes are non-decreasing in the threshold.
    """
    idf = corpus_idf(documents)
    return {
        "stemmed": bool(stemmed),
        "total_words": len(idf),
        "sizes": {
            repr(float(threshold)): len(select_vocabulary(idf, threshold, stemmed))
            for threshold in thresholds
        },
    }
