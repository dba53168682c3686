"""Evaluation metrics for attribute vectors and captions.

Attribute quality is measured with a binned F1: attribute values in
``(0, 1]`` fall into four quarter-width bins (upper edges inclusive),
exact zeros are excluded, and per-bin one-vs-rest counts yield macro
and micro averages. Ground-truth zeros are skipped entirely, since the
overwhelmingly zero entries of a sparse target would otherwise swamp
the scores.

Caption quality uses corpus-level BLEU with the standard brevity
penalty, ROUGE-L as the best per-reference LCS F-score, and CIDEr-D
(TF-IDF weighted, count-clipped cosine per n-gram order with a Gaussian
length penalty, scaled by ten). All caption metrics take pre-tokenized
token lists so callers control tokenization.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .nncore import DimensionError, ParameterError

__all__ = [
    "attribute_f1",
    "bin_of",
    "bleu",
    "cider_d",
    "evaluate_captions",
    "lcs_length",
    "rouge_l",
]

_BIN_EDGES = (0.25, 0.5, 0.75, 1.0)


def _bins(values):
    """Array of :func:`bin_of`, with 0 for an exact zero. A value outside
    ``[0, 1]``, NaN included, is a ParameterError."""
    values = np.asarray(values, dtype=np.float64)
    valid = (values >= 0.0) & (values <= 1.0)
    if not valid.all():
        bad = float(values.flat[int(np.argmin(valid))])
        raise ParameterError(f"attribute value {bad} outside [0, 1]")
    return np.where(values == 0.0, 0, np.searchsorted(_BIN_EDGES, values) + 1)


def bin_of(value):
    """Quarter-width bin of an attribute value in [0, 1].

    Returns 1 for ``(0, 0.25]``, 2 for ``(0.25, 0.5]``, 3 for
    ``(0.5, 0.75]``, 4 for ``(0.75, 1]`` and ``None`` for an exact zero
    (excluded from scoring). Values outside ``[0, 1]`` are rejected.
    """
    return int(_bins(float(value))) or None


def _f1(tp, fp, fn):
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return precision, recall, 0.0
    return precision, recall, 2.0 * precision * recall / (precision + recall)


def attribute_f1(pred, target):
    """Binned macro/micro F1 of predicted attribute vectors.

    Only elements whose ground truth is nonzero are scored. Predictions
    are clamped into ``[0, 1]`` before binning; a prediction that lands
    in no bin (exact zero) counts as a miss for the target's bin. The
    macro score averages per-bin F1 over the bins that actually occur
    in the ground truth; the micro score pools the counts.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DimensionError(
            f"prediction shape {pred.shape} does not match target {target.shape}"
        )
    t_bins = _bins(target).ravel()
    scored = t_bins > 0
    t_bins = t_bins[scored]
    p_bins = _bins(np.clip(pred.ravel()[scored], 0.0, 1.0))
    hit = p_bins == t_bins
    # Counts indexed by bin; a miss predicted as zero lands in fp[0], unread.
    tp, fn, fp = (np.bincount(bins, minlength=5).tolist()
                  for bins in (t_bins[hit], t_bins[~hit], p_bins[~hit]))
    per_bin = {}
    macro_scores = []
    for bin_id in (1, 2, 3, 4):
        support = tp[bin_id] + fn[bin_id]
        precision, recall, f1 = _f1(tp[bin_id], fp[bin_id], fn[bin_id])
        per_bin[bin_id] = {
            "precision": precision,
            "recall": recall,
            "f1": f1,
            "support": support,
        }
        if support:
            macro_scores.append(f1)
    total_tp, total_fn, total_fp = sum(tp), sum(fn), sum(fp[1:])
    micro_precision, micro_recall, micro_f1 = _f1(total_tp, total_fp, total_fn)
    return {
        "macro_f1": float(np.mean(macro_scores)) if macro_scores else 0.0,
        "micro_f1": micro_f1,
        "micro_precision": micro_precision,
        "micro_recall": micro_recall,
        "per_bin": per_bin,
        "n_scored": total_tp + total_fn,
    }


# --------------------------------------------------------------------------
# BLEU
# --------------------------------------------------------------------------


def _ngram_counts(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _check_caption_tables(candidates, references):
    if len(candidates) != len(references):
        raise DimensionError(
            f"{len(candidates)} candidates but {len(references)} reference sets"
        )
    if not candidates:
        raise ParameterError("caption metrics need at least one candidate")
    for refs in references:
        if not refs:
            raise ParameterError("every candidate needs at least one reference")


def bleu(candidates, references, max_n=4):
    """Corpus-level BLEU of tokenized candidates.

    ``candidates[i]`` is a token list and ``references[i]`` a list of
    token lists. Modified n-gram precision clips each candidate n-gram
    count at its maximum count over the references and pools counts over
    the corpus. The brevity penalty is ``exp(1 - r / c)`` when the total
    candidate length ``c`` falls short of ``r``, the sum of closest
    reference lengths (ties toward the shorter reference).

    Returns the geometric-mean score over orders ``1..max_n`` (zero if
    any pooled precision is zero) along with the per-order precisions
    and the brevity penalty.
    """
    _check_caption_tables(candidates, references)
    matched = [0] * max_n
    total = [0] * max_n
    candidate_length = 0
    reference_length = 0
    for tokens, refs in zip(candidates, references):
        candidate_length += len(tokens)
        reference_length += min(
            (ref_len for ref_len in (len(r) for r in refs)),
            key=lambda ref_len: (abs(ref_len - len(tokens)), ref_len),
        )
        for n in range(1, max_n + 1):
            counts = _ngram_counts(tokens, n)
            if not counts:
                continue
            ceiling = Counter()
            for ref in refs:
                for gram, count in _ngram_counts(ref, n).items():
                    ceiling[gram] = max(ceiling[gram], count)
            matched[n - 1] += sum(
                min(count, ceiling[gram]) for gram, count in counts.items()
            )
            total[n - 1] += sum(counts.values())
    precisions = [
        matched[n] / total[n] if total[n] else 0.0 for n in range(max_n)
    ]
    if candidate_length == 0:
        brevity = 0.0
    elif candidate_length < reference_length:
        brevity = math.exp(1.0 - reference_length / candidate_length)
    else:
        brevity = 1.0
    if all(p > 0.0 for p in precisions):
        score = brevity * math.exp(
            sum(math.log(p) for p in precisions) / max_n
        )
    else:
        score = 0.0
    return {
        "bleu": score,
        "precisions": precisions,
        "brevity_penalty": brevity,
        "candidate_length": candidate_length,
        "reference_length": reference_length,
    }


# --------------------------------------------------------------------------
# ROUGE-L
# --------------------------------------------------------------------------


def lcs_length(a, b):
    """Length of the longest common subsequence of two token lists."""
    if not a or not b:
        return 0
    previous = [0] * (len(b) + 1)
    for token_a in a:
        current = [0]
        for j, token_b in enumerate(b, start=1):
            if token_a == token_b:
                current.append(previous[j - 1] + 1)
            else:
                current.append(max(previous[j], current[j - 1]))
        previous = current
    return previous[len(b)]


def rouge_l(candidates, references, beta=1.2):
    """Corpus ROUGE-L: per image the best LCS F-score over references.

    For each reference, precision is LCS/|candidate| and recall is
    LCS/|reference|; the F-score is the beta-weighted harmonic
    combination ``(1 + beta^2) P R / (R + beta^2 P)``. The image score
    is the maximum over its references and the corpus score is the mean
    over images.
    """
    _check_caption_tables(candidates, references)
    image_scores = []
    for tokens, refs in zip(candidates, references):
        best = 0.0
        for ref in refs:
            lcs = lcs_length(tokens, ref)
            if lcs == 0:  # also when either side is empty
                continue
            precision = lcs / len(tokens)
            recall = lcs / len(ref)
            # A NaN score (NaN or infinite beta) leaves ``best`` as it is.
            score = (1.0 + beta * beta) * precision * recall / (recall + beta * beta * precision)
            best = max(best, score)
        image_scores.append(best)
    return {"rouge_l": float(np.mean(image_scores)), "per_image": image_scores}


# --------------------------------------------------------------------------
# CIDEr-D
# --------------------------------------------------------------------------


def cider_d(candidates, references, max_n=4, sigma=6.0):
    """Consensus-based caption score with TF-IDF n-gram weighting.

    Document frequency of an n-gram is the number of *images* whose
    reference set contains it, taken over the evaluation corpus itself;
    its weight is ``log(N) - log(max(df, 1))`` with N the number of
    images. Candidate and reference n-gram count vectors are scaled by
    these weights; per order the similarity is the count-clipped cosine
    ``sum(min(h_g, r_g) * r_g) / (|h| |r|)``, damped by a Gaussian
    penalty ``exp(-delta^2 / (2 sigma^2))`` on the token-length
    difference ``delta``. Image scores average the per-reference
    similarity vectors over references and orders and are scaled by
    ten; the corpus score is the mean over images.
    """
    _check_caption_tables(candidates, references)
    n_images = len(candidates)

    def counts(tokens):
        return [_ngram_counts(tokens, n) for n in range(1, max_n + 1)]

    # Each reference's n-grams are counted once: the same counts give
    # the document frequencies and, below, its weighted vectors.
    reference_counts = [[counts(ref) for ref in refs] for refs in references]
    document_frequency = Counter()
    for refs in reference_counts:
        seen = set()
        for ref in refs:
            for order in ref:
                seen.update(order)
        document_frequency.update(seen)
    log_images = math.log(n_images)

    def weighted(order_counts):
        vectors = [{} for _ in range(max_n)]
        norms = [0.0] * max_n
        for n, order in enumerate(order_counts):
            for gram, count in order.items():
                weight = log_images - math.log(max(document_frequency[gram], 1))
                value = count * weight
                vectors[n][gram] = value
                norms[n] += value * value
        return vectors, [math.sqrt(v) for v in norms]

    image_scores = []
    for tokens, refs, ref_counts in zip(candidates, references, reference_counts):
        cand_vectors, cand_norms = weighted(counts(tokens))
        per_order = np.zeros(max_n, dtype=np.float64)
        for ref, order_counts in zip(refs, ref_counts):
            ref_vectors, ref_norms = weighted(order_counts)
            delta = float(len(tokens) - len(ref))
            penalty = math.exp(-(delta * delta) / (2.0 * sigma * sigma))
            for n in range(max_n):
                overlap = 0.0
                for gram, value in cand_vectors[n].items():
                    ref_value = ref_vectors[n].get(gram)
                    if ref_value is not None:
                        overlap += min(value, ref_value) * ref_value
                if cand_norms[n] != 0.0 and ref_norms[n] != 0.0:
                    overlap /= cand_norms[n] * ref_norms[n]
                per_order[n] += overlap * penalty
        score = float(per_order.mean()) / len(refs) * 10.0
        image_scores.append(score)
    return {"cider_d": float(np.mean(image_scores)), "per_image": image_scores}


def evaluate_captions(candidates, references, rouge_beta=1.2):
    """All caption metrics over parallel candidate/reference tables."""
    bleu_result = bleu(candidates, references)
    rouge_result = rouge_l(candidates, references, beta=rouge_beta)
    cider_result = cider_d(candidates, references)
    return {
        "bleu_4": bleu_result["bleu"],
        "bleu_precisions": bleu_result["precisions"],
        "brevity_penalty": bleu_result["brevity_penalty"],
        "rouge_l": rouge_result["rouge_l"],
        "cider_d": cider_result["cider_d"],
        "n_images": len(candidates),
    }
