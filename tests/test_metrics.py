"""Tests for attribute F1 binning and caption quality metrics."""

import json
import math
import random
from collections import Counter

import numpy as np
import pytest

from attrcap.metrics import (
    attribute_f1,
    bin_of,
    bleu,
    cider_d,
    evaluate_captions,
    lcs_length,
    rouge_l,
)
from attrcap.nncore import DimensionError, ParameterError

# ---------------------------------------------------------------------------
# Score binning
# ---------------------------------------------------------------------------


def test_bins_are_quarter_width_and_upper_inclusive():
    assert bin_of(0.25) == 1
    assert bin_of(0.251) == 2
    assert bin_of(0.5) == 2
    assert bin_of(0.75) == 3
    assert bin_of(1.0) == 4
    assert bin_of(1e-12) == 1
    assert bin_of(0.76) == 4


def test_exact_zero_is_excluded_from_binning():
    assert bin_of(0.0) is None


def test_bin_rejects_values_outside_unit_interval():
    with pytest.raises(ParameterError):
        bin_of(-0.1)
    with pytest.raises(ParameterError):
        bin_of(1.1)


# ---------------------------------------------------------------------------
# Binned F1
# ---------------------------------------------------------------------------


def test_perfect_predictions_score_one():
    target = np.array([[0.1, 0.4, 0.0], [0.9, 0.0, 0.6]])
    result = attribute_f1(target, target)
    assert result["macro_f1"] == 1.0
    assert result["micro_f1"] == 1.0
    assert result["n_scored"] == 4  # the two exact zeros are skipped


def test_zero_targets_are_excluded_even_when_predicted_nonzero():
    result = attribute_f1(np.array([0.9, 0.3, 0.7]), np.array([0.8, 0.3, 0.0]))
    assert result["macro_f1"] == 1.0
    assert result["micro_f1"] == 1.0
    assert result["n_scored"] == 2
    assert result["per_bin"][3]["support"] == 0  # 0.7 lands nowhere scored


def test_predictions_one_bin_off_score_zero():
    result = attribute_f1(np.array([0.4, 0.8]), np.array([0.2, 0.6]))
    assert result["macro_f1"] == 0.0
    assert result["micro_f1"] == 0.0


def test_out_of_range_predictions_are_clamped():
    result = attribute_f1(np.array([1.7, -0.3]), np.array([0.9, 0.9]))
    # First element clamps to 1.0 and hits bin 4; the second clamps to an
    # excluded zero and is a pure miss for bin 4.
    bin4 = result["per_bin"][4]
    assert bin4["precision"] == 1.0
    assert bin4["recall"] == 0.5
    assert result["micro_f1"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert result["macro_f1"] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_invalid_targets_and_shapes_are_rejected():
    with pytest.raises(ParameterError):
        attribute_f1(np.array([0.5]), np.array([1.5]))
    with pytest.raises(DimensionError):
        attribute_f1(np.zeros((2, 3)), np.zeros((3, 2)))


def test_f1_is_invariant_under_consistent_permutations():
    gen = random.Random(5)
    for _ in range(10):
        rows, cols = gen.randint(2, 6), gen.randint(2, 6)
        target = np.array([[gen.choice([0.0, 0.1, 0.3, 0.6, 0.9])
                            for _ in range(cols)] for _ in range(rows)])
        pred = np.array([[gen.random() for _ in range(cols)]
                         for _ in range(rows)])
        base = attribute_f1(pred, target)
        row_order = gen.sample(range(rows), rows)
        col_order = gen.sample(range(cols), cols)
        shuffled = attribute_f1(pred[np.ix_(row_order, col_order)],
                                target[np.ix_(row_order, col_order)])
        assert shuffled["macro_f1"] == base["macro_f1"]
        assert shuffled["micro_f1"] == base["micro_f1"]


# ---------------------------------------------------------------------------
# Pins: the array binning against the per-element loop it replaced
# ---------------------------------------------------------------------------


def reference_bin_of(value):
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ParameterError(f"attribute value {value} outside [0, 1]")
    if value == 0.0:
        return None
    for bin_id, edge in enumerate((0.25, 0.5, 0.75, 1.0), start=1):
        if value <= edge:
            return bin_id
    raise AssertionError("unreachable")


def reference_attribute_f1(pred, target):
    """The per-element loop ``attribute_f1`` once ran, with ``_f1`` inlined."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    clamped = np.clip(pred, 0.0, 1.0)
    tp, fp, fn = Counter(), Counter(), Counter()
    for t_value, p_value in zip(target.ravel(), clamped.ravel()):
        t_bin = reference_bin_of(t_value)
        if t_bin is None:
            continue
        p_bin = reference_bin_of(p_value)
        if p_bin == t_bin:
            tp[t_bin] += 1
        else:
            fn[t_bin] += 1
            if p_bin is not None:
                fp[p_bin] += 1
    per_bin, macro_scores = {}, []
    for bin_id in (1, 2, 3, 4):
        support = tp[bin_id] + fn[bin_id]
        precision = tp[bin_id] / (tp[bin_id] + fp[bin_id]) if tp[bin_id] + fp[bin_id] else 0.0
        recall = tp[bin_id] / support if support else 0.0
        f1 = (0.0 if precision + recall == 0.0
              else 2.0 * precision * recall / (precision + recall))
        per_bin[bin_id] = {"precision": precision, "recall": recall, "f1": f1,
                           "support": support}
        if support:
            macro_scores.append(f1)
    total_tp, total_fp, total_fn = sum(tp.values()), sum(fp.values()), sum(fn.values())
    micro_p = total_tp / (total_tp + total_fp) if total_tp + total_fp else 0.0
    micro_r = total_tp / (total_tp + total_fn) if total_tp + total_fn else 0.0
    micro_f1 = (0.0 if micro_p + micro_r == 0.0
                else 2.0 * micro_p * micro_r / (micro_p + micro_r))
    return {"macro_f1": float(np.mean(macro_scores)) if macro_scores else 0.0,
            "micro_f1": micro_f1, "micro_precision": micro_p,
            "micro_recall": micro_r, "per_bin": per_bin,
            "n_scored": total_tp + total_fn}


EDGE_VALUES = np.array([0.0, -0.0, 5e-324, 0.25, np.nextafter(0.25, 1.0), 0.5,
                        np.nextafter(0.5, 0.0), 0.75, np.nextafter(0.75, 1.0), 1.0,
                        np.nextafter(1.0, 0.0)])


def test_bin_of_matches_the_loop_on_edges_and_random_values():
    values = np.concatenate([EDGE_VALUES, np.random.default_rng(3).random(1000)])
    assert [bin_of(v) for v in values] == [reference_bin_of(v) for v in values]
    assert all(type(bin_of(v)) is int for v in values if v != 0.0)


@pytest.mark.parametrize("shape", [(0,), (1,), (7,), (13, 29), (40, 61)])
def test_attribute_f1_report_is_byte_equal_to_the_per_element_loop(shape):
    rng = np.random.default_rng(sum(shape) + len(shape))
    for trial in range(6):
        # Targets: exact zeros, values on every bin edge, random values.
        target = rng.choice(EDGE_VALUES, size=shape)
        random_cells = rng.random(shape) < 0.4
        target[random_cells] = rng.random(shape)[random_cells]
        # Predictions: edges, in-range, far outside [0, 1], and infinities.
        pred = rng.choice(np.concatenate([EDGE_VALUES, [-0.3, 1.7, -np.inf, np.inf]]),
                          size=shape)
        noise = rng.random(shape) < 0.5
        pred[noise] = rng.uniform(-0.5, 1.5, shape)[noise]
        if trial == 5:
            pred = target.copy()
        got = json.dumps(attribute_f1(pred, target), sort_keys=True)
        want = json.dumps(reference_attribute_f1(pred, target), sort_keys=True)
        assert got == want


@pytest.mark.parametrize("pred, target", [
    ([0.5, 0.5, 0.5], [0.2, np.nan, 0.3]),
    ([0.5, 0.5, 0.5], [0.2, 1.5, np.nan]),
    ([0.5, 0.5], [-0.1, 0.4]),
    ([0.5, 0.5, np.nan, 0.5], [0.2, 0.4, 0.1, 0.9]),
    ([np.nan, 0.5], [0.0, 0.4]),          # NaN prediction on an unscored cell
    ([0.5, np.nan, 0.2], [0.2, 0.3, 0.0]),
])
def test_attribute_f1_errors_match_the_per_element_loop(pred, target):
    def outcome(function):
        try:
            return json.dumps(function(np.array(pred), np.array(target)), sort_keys=True)
        except ParameterError as exc:
            return f"ParameterError: {exc}"

    assert outcome(attribute_f1) == outcome(reference_attribute_f1)


def test_a_bad_target_is_reported_before_a_nan_prediction():
    # The loop reported whichever came first in row-major order; the
    # array rule checks every target before any prediction.
    with pytest.raises(ParameterError, match="value 1.000000000001 outside"):
        attribute_f1(np.array([0.5, np.nan, 0.5]), np.array([0.2, 0.4, 1.0 + 1e-12]))


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------


def test_bleu_is_one_for_identical_pairs():
    tokens = ["a", "striped", "cat", "sleeps", "outside"]
    result = bleu([tokens], [[tokens]])
    assert result["bleu"] == 1.0
    assert result["precisions"] == [1.0, 1.0, 1.0, 1.0]
    assert result["brevity_penalty"] == 1.0


def test_bleu_clips_repeated_unigrams_at_the_reference_count():
    result = bleu([["the"] * 7],
                  [[["the", "cat", "is", "on", "the", "mat"]]])
    assert result["precisions"][0] == pytest.approx(2.0 / 7.0, abs=1e-12)


def test_brevity_penalty_for_a_short_perfect_candidate():
    result = bleu([["a", "b", "c"]], [[["a", "b", "c", "d", "e", "f"]]],
                  max_n=1)
    assert result["precisions"][0] == 1.0
    assert result["brevity_penalty"] == pytest.approx(math.exp(-1.0),
                                                      abs=1e-12)
    assert result["bleu"] == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_closest_reference_length_ties_go_to_the_shorter():
    result = bleu([["w", "x", "y", "z"]],
                  [[["a", "b", "c"], ["a", "b", "c", "d", "e"]]])
    assert result["reference_length"] == 3
    longer = bleu([["w", "x", "y", "z"]],
                  [[["a", "b", "c", "d"], ["a", "b", "c", "d", "e", "f",
                                           "g", "h", "i"]]])
    assert longer["reference_length"] == 4


def test_bleu_is_invariant_under_corpus_duplication():
    gen = random.Random(11)
    vocab = list("abcdefghij")
    for _ in range(10):
        n = gen.randint(1, 4)
        candidates = [[gen.choice(vocab) for _ in range(gen.randint(1, 8))]
                      for _ in range(n)]
        references = [[[gen.choice(vocab) for _ in range(gen.randint(1, 8))]
                       for _ in range(gen.randint(1, 3))] for _ in range(n)]
        once = bleu(candidates, references)
        thrice = bleu(candidates * 3, references * 3)
        assert thrice["bleu"] == once["bleu"]
        assert thrice["precisions"] == once["precisions"]
        assert thrice["brevity_penalty"] == once["brevity_penalty"]


def test_caption_metrics_validate_their_tables():
    with pytest.raises(ParameterError):
        bleu([], [])
    with pytest.raises(DimensionError):
        bleu([["a"]], [])
    with pytest.raises(ParameterError):
        bleu([["a"]], [[]])
    with pytest.raises(ParameterError):
        rouge_l([], [])
    with pytest.raises(ParameterError):
        cider_d([["a"]], [[]])


# ---------------------------------------------------------------------------
# ROUGE-L
# ---------------------------------------------------------------------------


def test_lcs_length_basics():
    assert lcs_length(["a", "b", "c", "d"], ["a", "c", "d", "e"]) == 3
    assert lcs_length(["a", "b"], ["c", "d"]) == 0
    assert lcs_length([], ["a"]) == 0
    assert lcs_length(["x", "y", "z"], ["x", "y", "z"]) == 3


def test_rouge_is_one_for_identical_pairs_and_zero_for_disjoint():
    tokens = ["a", "quiet", "beach", "at", "dawn"]
    assert rouge_l([tokens], [[tokens]])["rouge_l"] == 1.0
    assert rouge_l([["p", "q"]], [[["x", "y"]]])["rouge_l"] == 0.0


def test_rouge_hand_case_is_three_quarters_for_any_beta():
    candidates = [["a", "b", "c", "d"]]
    references = [[["a", "c", "d", "e"]]]
    # Precision and recall are both 3/4, and the weighted harmonic mean
    # of two equal numbers is that number regardless of the weight.
    assert rouge_l(candidates, references,
                   beta=1.0)["rouge_l"] == pytest.approx(0.75, abs=1e-12)
    assert rouge_l(candidates, references)["rouge_l"] == pytest.approx(
        0.75, abs=1e-12)


def test_rouge_takes_the_best_reference_and_averages_images():
    candidates = [["a", "b", "c", "d"], ["p", "q"]]
    references = [[["x", "y", "z"], ["a", "b", "c", "d"]], [["p", "q"]]]
    result = rouge_l(candidates, references)
    assert result["per_image"] == [1.0, 1.0]
    assert result["rouge_l"] == 1.0
    mixed = rouge_l([["a", "b", "c", "d"], ["p", "q"]],
                    [[["a", "c", "d", "e"]], [["x", "y"]]], beta=1.0)
    assert mixed["per_image"][0] == pytest.approx(0.75, abs=1e-12)
    assert mixed["per_image"][1] == 0.0
    assert mixed["rouge_l"] == pytest.approx(0.375, abs=1e-12)


# ---------------------------------------------------------------------------
# CIDEr-D
# ---------------------------------------------------------------------------


def test_cider_scores_ten_for_identical_corpus_unique_captions():
    candidates = [["a", "b", "c", "d"], ["e", "f", "g", "h"]]
    references = [[candidates[0]], [candidates[1]]]
    result = cider_d(candidates, references)
    assert result["cider_d"] == pytest.approx(10.0, abs=1e-6)
    for score in result["per_image"]:
        assert score == pytest.approx(10.0, abs=1e-6)


def test_cider_is_zero_without_any_ngram_overlap():
    candidates = [["x", "y", "z", "w"], ["e", "f", "g", "h"]]
    references = [[["a", "b", "c", "d"]], [["e", "f", "g", "h"]]]
    result = cider_d(candidates, references)
    assert result["per_image"][0] == 0.0


def test_padding_a_perfect_caption_with_junk_strictly_lowers_cider():
    reference_sets = [[["a", "b", "c", "d"]], [["e", "f", "g", "h"]]]
    exact = cider_d([["a", "b", "c", "d"], ["e", "f", "g", "h"]],
                    reference_sets)
    padded = cider_d([["a", "b", "c", "d", "j", "k", "l", "m"],
                      ["e", "f", "g", "h"]], reference_sets)
    assert padded["per_image"][0] < exact["per_image"][0]


def test_caption_metrics_stay_in_range_and_are_deterministic():
    gen = random.Random(23)
    vocab = list("abcdefgh")
    for _ in range(8):
        n = gen.randint(2, 5)
        candidates = [[gen.choice(vocab) for _ in range(gen.randint(2, 8))]
                      for _ in range(n)]
        references = [[[gen.choice(vocab) for _ in range(gen.randint(2, 8))]
                       for _ in range(gen.randint(1, 3))] for _ in range(n)]
        b = bleu(candidates, references)
        r = rouge_l(candidates, references)
        c = cider_d(candidates, references)
        assert 0.0 <= b["bleu"] <= 1.0
        assert 0.0 <= r["rouge_l"] <= 1.0
        assert 0.0 <= c["cider_d"] <= 10.0
        assert bleu(candidates, references)["bleu"] == b["bleu"]
        assert rouge_l(candidates, references)["rouge_l"] == r["rouge_l"]
        assert cider_d(candidates, references)["cider_d"] == c["cider_d"]


def test_echoing_a_reference_is_never_beaten_by_an_edited_caption():
    references = [
        [["a", "red", "bird", "sits", "high"]],
        [["the", "old", "dog", "walks", "home"]],
        [["two", "kids", "play", "in", "sand"]],
    ]
    exact = [refs[0] for refs in references]
    edits = [
        ["a", "red", "bird", "sits"],            # dropped token
        ["the", "old", "cat", "walks", "home"],  # substituted token
        ["two", "kids", "play", "in", "sand", "today", "again"],  # padded
    ]
    top = evaluate_captions(exact, references)
    other = evaluate_captions(edits, references)
    assert other["bleu_4"] <= top["bleu_4"]
    assert other["rouge_l"] <= top["rouge_l"]
    assert other["cider_d"] <= top["cider_d"]
    assert top["bleu_4"] == 1.0
    assert top["rouge_l"] == 1.0


def test_evaluate_captions_combines_the_individual_metrics():
    candidates = [["a", "b", "c", "d"], ["e", "f", "g", "h"]]
    references = [[["a", "b", "c", "x"]], [["e", "f", "g", "h"]]]
    combined = evaluate_captions(candidates, references, rouge_beta=1.0)
    assert combined["bleu_4"] == bleu(candidates, references)["bleu"]
    assert combined["rouge_l"] == rouge_l(candidates, references,
                                          beta=1.0)["rouge_l"]
    assert combined["cider_d"] == cider_d(candidates, references)["cider_d"]
    assert combined["n_images"] == 2
