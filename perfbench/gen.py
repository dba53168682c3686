"""Seeded input generator for the benchmark workloads.

Every file is a pure function of the workload name and ``--seed``: the
same seed gives byte-identical files, another seed gives other files.
All draws come from the package's counter-based ``Rng``.

Usage: python3 perfbench/gen.py --workload NAME --seed N --out DIR
"""

import argparse
import json
import math
import sys
from pathlib import Path

import common

common.limit_blas_threads()
common.import_attrcap()

import numpy as np  # noqa: E402

from attrcap import corpus, scnlstm, storage  # noqa: E402
from attrcap.nncore import Rng  # noqa: E402

# Deployment shapes from the paper and the CLI defaults.
VOCAB_SIZE = 10000
FEATURE_DIM = 2048
ATTR_WORDS = 1000
ATTR_DENSITY = 0.01
CAPTION_LENGTHS = (8, 16)

# Input sizes, chosen so one repeat of each workload takes a few seconds
# on a 2-core machine (see perfbench/README.md).
SIZES = {
    "attributes": {"images": 350, "captions_per_image": 5},
    "caption_train": {"images": 7, "captions_per_image": 2, "val_images": 1},
    "caption_decode": {"images": 8, "captions_per_image": 5, "members": 2},
}

SPECIAL_WORDS = scnlstm.CaptionVocab.from_token_lists([]).words

# Every root carries three of these endings, so Porter stemming merges
# most word forms of a root into one stem.
_SUFFIXES = ("", "s", "ed", "ing", "er", "ly", "ness", "ment")
_FORMS_PER_ROOT = 3
_CONSONANTS = "bcdfghklmnprstvz"
_VOWELS = "aeiou"


def lexicon(size=VOCAB_SIZE - len(SPECIAL_WORDS)):
    """Fixed list of distinct CVCVC pseudo-words with stemmable endings."""
    radices = (len(_CONSONANTS), len(_VOWELS)) * 2 + (len(_CONSONANTS),)
    span = math.prod(radices)
    words = []
    for j in range(-(-size // _FORMS_PER_ROOT)):
        k = (j * 30011) % span  # 30011 is prime to span: roots stay distinct
        letters = []
        for position, radix in enumerate(radices):
            alphabet = _CONSONANTS if position % 2 == 0 else _VOWELS
            letters.append(alphabet[k % radix])
            k //= radix
        root = "".join(letters)
        for form in range(_FORMS_PER_ROOT):
            words.append(root + _SUFFIXES[(j + 3 * form) % len(_SUFFIXES)])
    return words[:size]


def caption_vocab():
    """The decoder vocabulary: specials followed by the whole lexicon."""
    return scnlstm.CaptionVocab(words=list(SPECIAL_WORDS) + lexicon())


def zipf_captions(rng, image_ids, per_image, words):
    """Captions of 8-16 tokens drawn from Zipf(1) over a seeded ranking.

    The lengths are spread evenly over 8-16 and shuffled, so the token
    total, and with it the work, depends on the caption count alone.
    Returns ``[(image_id, [word, ...]), ...]`` in image order.
    """
    ranking = rng.split(0).permutation(len(words))
    cdf = np.cumsum(1.0 / np.arange(1, len(words) + 1))
    cdf /= cdf[-1]
    low, high = CAPTION_LENGTHS
    n_captions = len(image_ids) * per_image
    spread = low + (np.arange(n_captions) * (high - low + 1)) // n_captions
    lengths = spread[rng.split(1).permutation(n_captions)]
    draws = rng.split(2).uniform((int(lengths.sum()),))
    ranks = np.minimum(np.searchsorted(cdf, draws, side="right"), len(words) - 1)
    picks = ranking[ranks]
    captions = []
    start = 0
    for c, length in enumerate(lengths):
        image_id = image_ids[c // per_image]
        captions.append((image_id, [words[w] for w in picks[start:start + length]]))
        start += length
    return captions


def write_captions(path, captions):
    annotations = [
        {"image_id": int(image_id), "id": n, "caption": " ".join(tokens)}
        for n, (image_id, tokens) in enumerate(captions)
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump({"annotations": annotations}, handle, sort_keys=True)
        handle.write("\n")


def sparse_attributes(rng, n_rows):
    """Unit-norm rows over ``ATTR_WORDS`` words with ``ATTR_DENSITY`` nonzeros."""
    per_row = max(1, round(ATTR_WORDS * ATTR_DENSITY))
    matrix = np.zeros((n_rows, ATTR_WORDS))
    for row in range(n_rows):
        row_rng = rng.split(row)
        columns = row_rng.permutation(ATTR_WORDS)[:per_row]
        matrix[row, columns] = 1.0 - row_rng.uniform((per_row,))  # in (0, 1]
        matrix[row] /= np.linalg.norm(matrix[row])
    return matrix


def idf_threshold(captions, n_images, target):
    """IDF threshold whose stemmed vocabulary size is closest to ``target``.

    Uses the smoothed IDF of ``attrcap.semantics`` on document
    frequencies of the stemmed tokens. The threshold sits halfway
    between two IDF levels, so no word lies on it.
    """
    stems = {}
    documents = {}
    for image_id, tokens in captions:
        bag = documents.setdefault(image_id, set())
        for token in tokens:
            if token not in stems:
                stems[token] = corpus.stem(token)
            bag.add(stems[token])
    df = {}
    for bag in documents.values():
        for word in bag:
            df[word] = df.get(word, 0) + 1
    levels = sorted(set(df.values()), reverse=True)
    admitted = np.cumsum([sum(1 for v in df.values() if v == level) for level in levels])
    cut = int(np.argmin(np.abs(admitted - target)))

    def idf(level):
        return math.log10((n_images + 1) / (level + 1)) + 1.0

    lower = levels[cut + 1] if cut + 1 < len(levels) else 0
    return (idf(levels[cut]) + idf(lower)) / 2.0, int(admitted[cut])


def generate_attributes(seed, out):
    size = SIZES["attributes"]
    rng = Rng(seed)
    image_ids = list(range(1, size["images"] + 1))
    captions = zipf_captions(rng.split(1), image_ids, size["captions_per_image"], lexicon())
    write_captions(out / "captions.json", captions)
    storage.write_features(
        out / "features.daef", image_ids, rng.split(2).normal((len(image_ids), FEATURE_DIM))
    )
    # Candidate captions for eval-captions: each image gets the first
    # caption of another image, a fixed seeded shift away.
    per_image = size["captions_per_image"]
    shift = 1 + int(rng.split(3).uniform() * (len(image_ids) - 1))
    candidates = []
    for i, image_id in enumerate(image_ids):
        tokens = captions[((i + shift) % len(image_ids)) * per_image][1]
        candidates.append({"image_id": image_id, "caption": " ".join(tokens),
                           "tokens": tokens, "log_prob": 0.0})
    storage.write_jsonl(out / "candidates.jsonl", candidates,
                        meta={"command": "perfbench gen", "seed": seed})
    threshold, n_words = idf_threshold(captions, len(image_ids), ATTR_WORDS)
    params = {
        "idf_threshold": threshold,
        "expected_words": n_words,
        "report_thresholds": [threshold + delta for delta in (-0.2, -0.1, 0.0, 0.1)],
    }
    with open(out / "params.json", "w", encoding="utf-8") as handle:
        json.dump(params, handle, sort_keys=True)
        handle.write("\n")


def generate_caption_train(seed, out):
    size = SIZES["caption_train"]
    rng = Rng(seed)
    image_ids = list(range(1, size["images"] + 1))
    # Training and held-out captions each get a fixed token total.
    split = len(image_ids) - size["val_images"]
    captions = [
        caption
        for tag, ids in ((1, image_ids[:split]), (5, image_ids[split:]))
        for caption in zipf_captions(rng.split(tag), ids, size["captions_per_image"],
                                     lexicon())
    ]
    write_captions(out / "captions.json", captions)
    storage.write_features(
        out / "features.daef", image_ids, rng.split(2).normal((len(image_ids), FEATURE_DIM))
    )
    storage.write_attributes(out / "attrs.jsonl", image_ids,
                             sparse_attributes(rng.split(4), len(image_ids)))


def generate_caption_decode(seed, out):
    size = SIZES["caption_decode"]
    rng = Rng(seed)
    image_ids = list(range(1, size["images"] + 1))
    captions = zipf_captions(rng.split(1), image_ids, size["captions_per_image"], lexicon())
    write_captions(out / "references.json", captions)
    storage.write_features(
        out / "features.daef", image_ids, rng.split(2).normal((len(image_ids), FEATURE_DIM))
    )
    storage.write_attributes(out / "attrs.jsonl", image_ids,
                             sparse_attributes(rng.split(4), len(image_ids)))
    # Untrained members from seeded initializations: no training cost in
    # set-up, and every beam runs the full --max-len.
    config = scnlstm.ScnLstmConfig(vocab_size=VOCAB_SIZE, n_words=ATTR_WORDS,
                                   feature_dim=FEATURE_DIM)
    members = [scnlstm.ScnLstm(config, seed=rng.split(10 + k).seed)
               for k in range(size["members"])]
    scnlstm.save_captioner_ensemble(out / "model.daec", members, caption_vocab())


GENERATORS = {
    "attributes": generate_attributes,
    "caption_train": generate_caption_train,
    "caption_decode": generate_caption_decode,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    GENERATORS[args.workload](args.seed, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
