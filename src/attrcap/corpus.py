"""Caption ingestion, tokenization, stemming, and document assembly.

A *document* is the concatenation of all reference captions for one image.
Documents are the unit over which attribute statistics are computed, so
this module is the single place where raw annotation files are turned
into token lists.

Stemming follows Porter's 1980 suffix-stripping algorithm exactly as
published: the five steps with their original rule lists, the longest
matching suffix tried within each step, and no post-1980 extensions
(no irregular-form lookup table, no short-word bypass, no extra rules).
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field

from .storage import _reading

__all__ = [
    "CorpusError",
    "Document",
    "PorterStemmer",
    "build_documents",
    "parse_caption_file",
    "stem",
    "tokenize",
]


class CorpusError(ValueError):
    """Raised when an annotation file violates the expected layout."""


# Tokens are maximal runs of at least two lowercase ASCII letters or
# digits; every other character (punctuation, whitespace, non-ASCII)
# separates tokens, and single-character runs are dropped.
_TOKEN_RE = re.compile(r"[a-z0-9]{2,}")


def tokenize(text):
    """Split raw caption text into normalized tokens.

    The text is lowercased first, so the output never depends on the
    input casing, and matches ``tokenize(text.lower())`` by construction.
    """
    return _TOKEN_RE.findall(text.lower())


class PorterStemmer:
    """Porter's 1980 suffix-stripping algorithm.

    Each step considers only the longest of its suffixes that matches
    the word; if that suffix's condition fails, the word leaves the
    step unchanged (shorter suffixes are not retried). Measure ``m``
    counts vowel-consonant transitions in the candidate stem, with
    ``y`` treated as a vowel when it follows a consonant.
    """

    _VOWELS = frozenset("aeiou")

    # (suffix, replacement) pairs; within a step only the longest
    # matching suffix is considered.
    _STEP2 = (
        ("ational", "ate"), ("tional", "tion"), ("enci", "ence"),
        ("anci", "ance"), ("izer", "ize"), ("abli", "able"),
        ("alli", "al"), ("entli", "ent"), ("eli", "e"),
        ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
        ("ator", "ate"), ("alism", "al"), ("iveness", "ive"),
        ("fulness", "ful"), ("ousness", "ous"), ("aliti", "al"),
        ("iviti", "ive"), ("biliti", "ble"),
    )
    _STEP3 = (
        ("icate", "ic"), ("ative", ""), ("alize", "al"),
        ("iciti", "ic"), ("ical", "ic"), ("ful", ""), ("ness", ""),
    )
    _STEP4 = tuple((suffix, "") for suffix in (
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant",
        "ement", "ment", "ent", "ion", "ou", "ism", "ate", "iti",
        "ous", "ive", "ize",
    ))

    def stem(self, word):
        """Return the stem of a lowercase token."""
        if not word:
            return word
        word = self._step1a(word)
        word = self._step1b(word)
        word = self._step1c(word)
        word = self._longest_map_rule(word, self._STEP2, 0)
        word = self._longest_map_rule(word, self._STEP3, 0)
        word = self._step4(word)
        word = self._step5a(word)
        word = self._step5b(word)
        return word

    # -- letter classification and measure ---------------------------------

    def _is_consonant(self, word, i):
        ch = word[i]
        if ch in self._VOWELS:
            return False
        if ch == "y":
            return i == 0 or not self._is_consonant(word, i - 1)
        return True

    def _measure(self, stem):
        pattern = "".join(
            "c" if self._is_consonant(stem, i) else "v"
            for i in range(len(stem))
        )
        return pattern.count("vc")

    def _contains_vowel(self, stem):
        return any(not self._is_consonant(stem, i) for i in range(len(stem)))

    def _ends_double_consonant(self, word):
        return (
            len(word) >= 2
            and word[-1] == word[-2]
            and self._is_consonant(word, len(word) - 1)
        )

    def _ends_cvc(self, stem):
        # Final three letters are consonant-vowel-consonant and the last
        # is not w, x or y (the *o condition).
        if len(stem) < 3:
            return False
        return (
            self._is_consonant(stem, len(stem) - 3)
            and not self._is_consonant(stem, len(stem) - 2)
            and self._is_consonant(stem, len(stem) - 1)
            and stem[-1] not in "wxy"
        )

    # -- the five steps -----------------------------------------------------

    def _step1a(self, word):
        if word.endswith("sses"):
            return word[:-2]
        if word.endswith("ies"):
            return word[:-2]
        if word.endswith("ss"):
            return word
        if word.endswith("s"):
            return word[:-1]
        return word

    def _step1b(self, word):
        if word.endswith("eed"):
            # Longest suffix of the ed/eed pair; if m == 0 the word is
            # left alone rather than falling through to the ed rule.
            if self._measure(word[:-3]) > 0:
                return word[:-1]
            return word
        if word.endswith("ed"):
            stem = word[:-2]
            if not self._contains_vowel(stem):
                return word
        elif word.endswith("ing"):
            stem = word[:-3]
            if not self._contains_vowel(stem):
                return word
        else:
            return word
        # Cleanup after a successful ed/ing removal: restore e on at/bl/iz
        # so later steps see the full suffix, undouble a final consonant
        # (except l, s, z), and give short stems their e back.
        if stem.endswith(("at", "bl", "iz")):
            return stem + "e"
        if self._ends_double_consonant(stem) and stem[-1] not in "lsz":
            return stem[:-1]
        if self._measure(stem) == 1 and self._ends_cvc(stem):
            return stem + "e"
        return stem

    def _step1c(self, word):
        if word.endswith("y") and self._contains_vowel(word[:-1]):
            return word[:-1] + "i"
        return word

    def _longest_map_rule(self, word, rules, min_measure):
        best = None
        for suffix, replacement in rules:
            if word.endswith(suffix) and (
                best is None or len(suffix) > len(best[0])
            ):
                best = (suffix, replacement)
        if best is None:
            return word
        suffix, replacement = best
        stem = word[: len(word) - len(suffix)]
        if self._measure(stem) > min_measure:
            return stem + replacement
        return word

    def _step4(self, word):
        # No other step-4 suffix ends in "ion", so a word ending in it has
        # -ion as its longest match, taken only after s or t.
        if word.endswith("ion") and not word[:-3].endswith(("s", "t")):
            return word
        return self._longest_map_rule(word, self._STEP4, 1)

    def _step5a(self, word):
        if not word.endswith("e"):
            return word
        stem = word[:-1]
        m = self._measure(stem)
        if m > 1 or (m == 1 and not self._ends_cvc(stem)):
            return stem
        return word

    def _step5b(self, word):
        if word.endswith("ll") and self._measure(word) > 1:
            return word[:-1]
        return word


_STEMMER = PorterStemmer()


@functools.lru_cache(maxsize=None)
def stem(token):
    """Stem a single token with the module-level Porter stemmer.

    Memoized per word: a caption corpus repeats a few thousand words
    over and over, and the stemmer is a pure function of its input.
    """
    return _STEMMER.stem(token)


@dataclass
class Document:
    """All reference captions of one image, tokenized.

    ``captions`` holds one token list per caption, in caption order; the
    flattened list ``tokens`` and the count ``n_captions`` derive from it.
    ``tokens`` is built at its first read and kept, so a document's
    captions must be complete before anything reads its tokens, as
    :func:`build_documents` leaves them.
    """

    image_id: int
    captions: list[list[str]] = field(default_factory=list)

    @property
    def n_captions(self):
        return len(self.captions)

    @functools.cached_property
    def tokens(self):
        flat = []
        for caption in self.captions:
            flat.extend(caption)
        return flat


def parse_caption_file(path):
    """Read a COCO-style caption annotation file.

    The file must be a JSON object with an ``annotations`` array whose
    entries carry integer ``image_id`` and non-empty string ``caption``
    fields. Returns a list of ``(image_id, caption)`` pairs in file
    order.

    Raises:
        CorpusError: if the file cannot be read, decoded or parsed as
            JSON, or an annotation is malformed (named by its index).
    """
    try:
        with _reading(path, "caption file", "r", CorpusError) as handle:
            payload = json.load(handle)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"invalid JSON in caption file {path}: {exc}") from exc

    if not isinstance(payload, dict) or "annotations" not in payload:
        raise CorpusError(
            f"caption file {path} must be an object with an 'annotations' array"
        )
    annotations = payload["annotations"]
    if not isinstance(annotations, list):
        raise CorpusError(f"'annotations' in {path} is not an array")

    pairs = []
    for index, entry in enumerate(annotations):
        if not isinstance(entry, dict):
            raise CorpusError(f"annotation {index} is not an object")
        image_id = entry.get("image_id")
        caption = entry.get("caption")
        if not isinstance(image_id, int) or isinstance(image_id, bool):
            raise CorpusError(f"annotation {index} has no integer image_id")
        if not isinstance(caption, str) or not caption.strip():
            raise CorpusError(f"annotation {index} has no non-empty caption")
        pairs.append((image_id, caption))
    return pairs


def build_documents(caption_pairs, apply_stemming):
    """Group captions by image and tokenize them into documents.

    Args:
        caption_pairs: iterable of ``(image_id, caption_text)``.
        apply_stemming: when true, every token is Porter-stemmed.

    Returns:
        List of :class:`Document`, one per distinct image id, in the
        order each image first appears in ``caption_pairs``. Captions
        whose text yields no tokens still count toward ``n_captions``;
        images whose captions all tokenize to nothing keep empty token
        lists.
    """
    grouped = {}
    for image_id, caption in caption_pairs:
        doc = grouped.get(image_id)
        if doc is None:
            doc = Document(image_id=image_id)
            grouped[image_id] = doc
        tokens = tokenize(caption)
        if apply_stemming:
            tokens = [stem(token) for token in tokens]
        doc.captions.append(tokens)
    return list(grouped.values())
