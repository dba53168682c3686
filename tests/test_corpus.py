"""Tokenizer, stemmer, caption parsing, and document assembly tests."""

import json

import pytest

from attrcap.corpus import (
    CorpusError,
    Document,
    build_documents,
    parse_caption_file,
    stem,
    tokenize,
)

# ---------------------------------------------------------------------------
# tokenize
# ---------------------------------------------------------------------------


def test_tokenize_drops_punctuation_and_short_runs():
    assert tokenize("A man, riding!") == ["man", "riding"]


def test_tokenize_hyphen_is_separator():
    assert tokenize("Wine-glass") == ["wine", "glass"]


def test_tokenize_empty_text():
    assert tokenize("") == []


def test_tokenize_lowercases():
    assert tokenize("ThE CaT") == tokenize("the cat") == ["the", "cat"]


def test_tokenize_keeps_digit_runs():
    assert tokenize("route 66 bus no7") == ["route", "66", "bus", "no7"]


def test_tokenize_single_characters_never_tokenize():
    assert tokenize("a I x 9 b") == []
    assert tokenize("a cat") == ["cat"]


def test_tokenize_non_ascii_separates():
    # Accented characters are separators, splitting the surrounding runs.
    assert tokenize("café au lait") == ["caf", "au", "lait"]
    assert tokenize("naïve") == ["na", "ve"]


def test_tokenize_idempotent_on_joined_output():
    for text in [
        "A man, riding a horse!",
        "Wine-glass on a 2-seat table",
        "THE QUICK (brown) fox?!",
    ]:
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens


# ---------------------------------------------------------------------------
# stem
# ---------------------------------------------------------------------------


def test_stem_attribute_table_vectors():
    expected = {
        "looking": "look",
        "looks": "look",
        "apple": "appl",
        "vegetables": "veget",
        "microwave": "microwav",
        "horses": "hors",
        "carriage": "carriag",
        "baseball": "basebal",
    }
    assert {word: stem(word) for word in expected} == expected


def test_stem_plural_rules():
    assert stem("caresses") == "caress"
    assert stem("ponies") == "poni"
    assert stem("ties") == "ti"
    assert stem("caress") == "caress"
    assert stem("cats") == "cat"


def test_stem_past_and_progressive_rules():
    # A matched "eed" suffix whose measure condition fails must leave the
    # word alone instead of retrying the shorter "ed" suffix.
    assert stem("feed") == "feed"
    assert stem("agreed") == "agre"
    assert stem("plastered") == "plaster"
    assert stem("bled") == "bled"
    assert stem("motoring") == "motor"
    assert stem("sing") == "sing"


def test_stem_cleanup_after_ed_ing_removal():
    assert stem("conflated") == "conflat"
    assert stem("troubled") == "troubl"
    assert stem("sized") == "size"
    assert stem("hopping") == "hop"
    assert stem("tanned") == "tan"
    assert stem("falling") == "fall"
    assert stem("hissing") == "hiss"
    assert stem("fizzed") == "fizz"
    assert stem("failing") == "fail"
    assert stem("filing") == "file"


def test_stem_y_to_i():
    assert stem("happy") == "happi"
    assert stem("sky") == "sky"


def test_stem_derivational_chains():
    assert stem("relational") == "relat"
    assert stem("rational") == "ration"
    assert stem("organization") == "organ"
    assert stem("generalization") == "gener"
    assert stem("oscillators") == "oscil"
    # Porter's (1980) step-4 examples, and its -ion rule both ways: the
    # suffix goes only after s or t.
    for word, want in [
        ("revival", "reviv"), ("allowance", "allow"), ("inference", "infer"),
        ("airliner", "airlin"), ("gyroscopic", "gyroscop"),
        ("adjustable", "adjust"), ("defensible", "defens"),
        ("irritant", "irrit"), ("replacement", "replac"),
        ("adjustment", "adjust"), ("dependent", "depend"),
        ("adoption", "adopt"), ("communism", "commun"), ("activate", "activ"),
        ("angulariti", "angular"), ("homologous", "homolog"),
        ("effective", "effect"), ("bowdlerize", "bowdler"),
        ("decision", "decis"), ("communion", "communion"),
        ("opinion", "opinion"), ("companion", "companion"),
    ]:
        assert stem(word) == want, word


def test_stem_fixed_points():
    for word in ["run", "cat", "dog", "the", "tree", "by"]:
        assert stem(word) == word


def test_stem_empty_token():
    assert stem("") == ""


def test_stem_idempotent_on_fixture_tokens(t1_pairs):
    tokens = {tok for _, caption in t1_pairs for tok in tokenize(caption)}
    stems = {stem(tok) for tok in tokens}
    assert {stem(s) for s in stems} == stems


# ---------------------------------------------------------------------------
# parse_caption_file
# ---------------------------------------------------------------------------


def test_parse_counts_and_order(t1_pairs):
    assert len(t1_pairs) == 5
    seen = list(dict.fromkeys(image_id for image_id, _ in t1_pairs))
    assert seen == [1, 2, 3]


def test_parse_round_trip_is_lossless(tmp_path):
    annotations = [
        {"image_id": 7, "caption": "two dogs play"},
        {"image_id": 9, "caption": "a dog rests"},
        {"image_id": 7, "caption": "dogs running"},
    ]
    path = tmp_path / "caps.json"
    path.write_text(json.dumps({"annotations": annotations}))
    pairs = parse_caption_file(path)
    assert pairs == [(7, "two dogs play"), (9, "a dog rests"), (7, "dogs running")]


def test_parse_empty_annotations(tmp_path):
    path = tmp_path / "caps.json"
    path.write_text(json.dumps({"annotations": []}))
    assert parse_caption_file(path) == []


def test_parse_missing_caption_names_index(tmp_path):
    path = tmp_path / "caps.json"
    path.write_text(json.dumps({"annotations": [
        {"image_id": 1, "caption": "fine"},
        {"image_id": 2},
    ]}))
    with pytest.raises(CorpusError, match="annotation 1"):
        parse_caption_file(path)


def test_parse_blank_caption_rejected(tmp_path):
    path = tmp_path / "caps.json"
    path.write_text(json.dumps({"annotations": [{"image_id": 1, "caption": "  "}]}))
    with pytest.raises(CorpusError, match="annotation 0"):
        parse_caption_file(path)


def test_parse_non_integer_image_id(tmp_path):
    for bad in ["7", 7.0, None, True]:
        path = tmp_path / "caps.json"
        path.write_text(json.dumps({"annotations": [
            {"image_id": bad, "caption": "x y"},
        ]}))
        with pytest.raises(CorpusError, match="annotation 0"):
            parse_caption_file(path)


def test_parse_rejects_invalid_json(tmp_path):
    path = tmp_path / "caps.json"
    path.write_text("{nope")
    with pytest.raises(CorpusError, match="invalid JSON"):
        parse_caption_file(path)


def test_parse_rejects_missing_annotations_key(tmp_path):
    path = tmp_path / "caps.json"
    path.write_text(json.dumps({"images": []}))
    with pytest.raises(CorpusError, match="annotations"):
        parse_caption_file(path)


def test_parse_missing_file():
    with pytest.raises(CorpusError, match="cannot read"):
        parse_caption_file("/nonexistent/captions.json")


def test_parse_undecodable_file_names_it(tmp_path):
    path = tmp_path / "caps.json"
    path.write_bytes(b"\x89PNG\r\n\x1a\n")  # a binary file; once a UnicodeDecodeError
    with pytest.raises(CorpusError, match="cannot read caption file .*'utf-8' codec") as info:
        parse_caption_file(path)
    assert str(path) in str(info.value)


# ---------------------------------------------------------------------------
# build_documents
# ---------------------------------------------------------------------------


def test_build_documents_groups_by_image(t1_pairs):
    documents = build_documents(t1_pairs, apply_stemming=False)
    assert [doc.image_id for doc in documents] == [1, 2, 3]
    assert [doc.n_captions for doc in documents] == [2, 2, 1]
    assert documents[0].captions == [["the", "cat", "sits"], ["cat", "sleeps"]]
    assert documents[0].tokens == ["the", "cat", "sits", "cat", "sleeps"]


def test_build_documents_preserves_first_seen_order():
    pairs = [(9, "dog naps"), (7, "cat naps"), (9, "dog digs"), (2, "owl")]
    documents = build_documents(pairs, apply_stemming=False)
    assert [doc.image_id for doc in documents] == [9, 7, 2]


def test_build_documents_count_matches_distinct_ids():
    pairs = [(i % 4, f"word{i} things") for i in range(12)]
    documents = build_documents(pairs, apply_stemming=False)
    assert len(documents) == 4


def test_build_documents_applies_stemming():
    documents = build_documents([(1, "two horses")], apply_stemming=True)
    assert documents[0].captions == [["two", "hors"]]


def test_build_documents_empty_caption_counts():
    documents = build_documents([(1, "a a a"), (1, "big cat")],
                                apply_stemming=False)
    assert documents[0].n_captions == 2
    assert documents[0].tokens == ["big", "cat"]


def test_document_derived_fields():
    doc = Document(image_id=5, captions=[["one", "two"], ["three"]])
    assert doc.n_captions == 2
    assert doc.tokens == ["one", "two", "three"]
