"""Malformed input files through the CLI contract.

Every malformed input must end the command with exit code 1, 2 or 3 and
exactly one ``error: <category>: <reason>`` line on stderr, never with a
traceback. The tests build tiny features, attributes, captions, caption
candidates and two-member checkpoints of both model families, damage
them, and run them through the commands that read them.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attrcap import storage
from attrcap.attrnet import AttrNet, AttrNetConfig, save_attrnet_ensemble
from attrcap.cli import main
from attrcap.nncore import Rng
from attrcap.scnlstm import (
    CaptionVocab,
    ScnLstm,
    ScnLstmConfig,
    save_captioner_ensemble,
)

FEATURE_DIM = 12
N_WORDS = 3


CAPTIONS = {"annotations": [
    {"image_id": 1, "caption": "a red dog"}, {"image_id": 2, "caption": "a dog"},
    {"image_id": 3, "caption": "red dog"}, {"image_id": 4, "caption": "a red"},
]}


def write_artifacts(root):
    """Features, attributes, captions, caption candidates and a
    two-member checkpoint of each family."""
    storage.write_features(root / "feats.daef", [1, 2, 3, 4],
                           Rng(50).normal((4, FEATURE_DIM)))
    storage.write_attributes(root / "attrs.jsonl", [1, 2, 3, 4],
                             np.full((4, N_WORDS), 0.5))
    (root / "captions.json").write_text(json.dumps(CAPTIONS))
    storage.write_jsonl(root / "cands.jsonl", [
        {"image_id": image_id, "caption": "a red dog", "tokens": ["a", "red", "dog"],
         "log_prob": -1.5} for image_id in (1, 2, 3, 4)], meta={"seed": 0})
    attr_config = AttrNetConfig(n_words=N_WORDS, feature_dim=FEATURE_DIM,
                                hidden_dim=4)
    save_attrnet_ensemble(root / "attr.daec",
                          [AttrNet(attr_config, seed=m) for m in range(2)])
    cap_config = ScnLstmConfig(vocab_size=5, n_words=N_WORDS,
                               feature_dim=FEATURE_DIM, embed_dim=4,
                               hidden_dim=6, factor_dim=6)
    save_captioner_ensemble(
        root / "cap.daec", [ScnLstm(cap_config, seed=m) for m in range(2)],
        CaptionVocab(words=["<bos>", "<eos>", "<unk>", "red", "dog"]))


def command(root, family, model):
    """The CLI command that loads ``model`` as a ``family`` checkpoint."""
    if family == "attr":
        return ["predict-attr", "--features", root / "feats.daef",
                "--model", model, "--out-attrs", root / "out.jsonl"]
    return ["caption", "--features", root / "feats.daef",
            "--attrs", root / "attrs.jsonl", "--model", model,
            "--beam", "2", "--max-len", "3", "--out", root / "out.jsonl"]


def feature_command(root, name):
    """A quick run of a command that reads ``root/feats.daef``; its
    outputs are named ``out.*``."""
    if name in ("attr", "cap"):
        return command(root, name, root / f"{name}.daec")
    common = ["--features", root / "feats.daef", "--attrs", root / "attrs.jsonl",
              "--out-model", root / "out.daec", "--epochs", "1", "--ensemble", "1"]
    if name == "train-attr":
        return ["train-attr", *common, "--hidden", "4", "--batch-size", "2"]
    return ["train-captioner", *common, "--captions", root / "captions.json",
            "--min-count", "1", "--embed-dim", "4", "--hidden", "6",
            "--factor", "6", "--batch-size", "2"]


def run(argv):
    """``(exit code, stderr lines)`` of one CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


def split_checkpoint(raw):
    """``(magic and version, header, tensor bytes)`` of a checkpoint."""
    length = int.from_bytes(raw[8:16], "little")
    return raw[:8], json.loads(raw[16:16 + length]), raw[16 + length:]


def join_checkpoint(lead, header, payload):
    body = json.dumps(header, sort_keys=True).encode("utf-8")
    return lead + len(body).to_bytes(8, "little") + body + payload


def edit_header(path, edit):
    """Rewrite a checkpoint with ``edit(header)`` applied to its header."""
    lead, header, payload = split_checkpoint(path.read_bytes())
    edit(header)
    path.write_bytes(join_checkpoint(lead, header, payload))


@pytest.fixture
def artifacts(tmp_path):
    write_artifacts(tmp_path)
    return tmp_path


def expect_data_error(root, edit):
    """Both families' checkpoints, edited, exit 2 with one data error."""
    for family in ("attr", "cap"):
        path = root / f"{family}.daec"
        edit_header(path, edit)
        code, lines = run(command(root, family, path))
        assert code == 2, (family, lines)
        assert len(lines) == 1 and lines[0].startswith("error: data: "), lines


def test_intact_checkpoints_load(artifacts):
    for family in ("attr", "cap"):
        assert run(command(artifacts, family, artifacts / f"{family}.daec")) == (0, [])


def test_tensor_entry_without_shape_is_a_data_error(artifacts):
    expect_data_error(artifacts, lambda header: header["tensors"][0].pop("shape"))


def test_unknown_net_field_is_a_data_error(artifacts):
    expect_data_error(artifacts, lambda header: header["config"]["net"].update(
        width_multiplier=2))


def test_out_of_range_dropout_in_a_checkpoint_is_a_data_error(artifacts):
    # Inference never applies dropout, but a rate outside [0, 1) is a
    # damaged file, not a usage error.
    edit_header(artifacts / "attr.daec",
                lambda header: header["config"]["net"].update(dropout=1.5))
    code, lines = run(command(artifacts, "attr", artifacts / "attr.daec"))
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: data: "), lines


def test_out_of_range_net_setting_in_either_checkpoint_is_a_data_error(artifacts):
    expect_data_error(artifacts, lambda header: header["config"]["net"].update(
        dropout=-0.5))


def test_missing_n_members_is_a_data_error(artifacts):
    expect_data_error(artifacts, lambda header: header["config"].pop("n_members"))


def test_n_members_beyond_stored_members_is_a_data_error(artifacts):
    expect_data_error(artifacts, lambda header: header["config"].update(n_members=3))


def test_out_of_range_attribute_value_is_a_data_error(artifacts):
    storage.write_attributes(artifacts / "gt.jsonl", [1, 2, 3, 4],
                             np.full((4, N_WORDS), 1.5))
    code, lines = run(["eval-attr", "--pred", artifacts / "attrs.jsonl",
                       "--gt", artifacts / "gt.jsonl"])
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: data: "), lines


@pytest.mark.parametrize("attrs", ["[[0, 0.5], [0, 0.25]]", "[[1, NaN]]"])
def test_repeated_or_non_finite_attribute_is_a_data_error(artifacts, attrs):
    (artifacts / "bad.jsonl").write_text(
        '{"_meta": {"n_words": 3}}\n'
        '{"image_id": 1, "attrs": ' + attrs + '}\n'
    )
    code, lines = run(["eval-attr", "--pred", artifacts / "bad.jsonl",
                       "--gt", artifacts / "bad.jsonl"])
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: data: "), lines


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("family, name", [("attr", "member0.fc2.w"),
                                          ("cap", "member1.Wout")])
def test_non_finite_checkpoint_value_is_a_data_error(artifacts, family, name, bad):
    # Rewritten through the checkpoint codec, so only the one value differs.
    path = artifacts / f"{family}.daec"
    tensors, config = storage.load_checkpoint(path)
    tensors[name].reshape(-1)[tensors[name].size // 2] = bad
    storage.save_checkpoint(path, tensors, config)
    code, lines = run(command(artifacts, family, path))
    assert code == 2
    assert lines == [f"error: data: {path}: non-finite value in tensor {name!r}"]
    assert not list(artifacts.glob("out.*"))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("family", ["attr", "cap", "train-attr", "train-captioner"])
def test_non_finite_features_are_a_numeric_error(artifacts, family, bad):
    # "attr" and "cap" are predict-attr and caption; every command that
    # reads features rejects them in storage.read_features.
    features = Rng(50).normal((4, FEATURE_DIM))
    features[2, 5] = bad
    features[3, 0] = np.nan
    storage.write_features(artifacts / "feats.daef", [1, 2, 3, 4], features)
    code, lines = run(feature_command(artifacts, family))
    assert code == 3
    assert len(lines) == 1 and lines[0].startswith("error: numeric: "), lines
    assert lines[0].endswith("non-finite feature value for image 3"), lines
    assert not list(artifacts.glob("out.*"))


def eval_command(root, name):
    """``eval-attr`` or ``eval-captions`` on the intact inputs."""
    if name == "eval-attr":
        return ["eval-attr", "--pred", root / "attrs.jsonl", "--gt", root / "attrs.jsonl"]
    return ["eval-captions", "--candidates", root / "cands.jsonl",
            "--references", root / "captions.json"]


def test_intact_inputs_run(artifacts):
    # The fuzz tests below damage these inputs; intact, every command
    # that reads them succeeds.
    for argv in (feature_command(artifacts, "train-attr"),
                 feature_command(artifacts, "train-captioner"),
                 eval_command(artifacts, "eval-attr"),
                 eval_command(artifacts, "eval-captions")):
        assert run(argv) == (0, []), argv


def expect_one_data_error(argv):
    code, lines = run(argv)
    assert code == 2, lines
    assert len(lines) == 1 and lines[0].startswith("error: data: "), lines
    return lines[0]


ATTR_RECORD = '{"image_id": 1, "attrs": [[0, 0.5]]}'


@pytest.mark.parametrize("meta, record", [
    ('{"n_words": 3}', '{"image_id": 1, "attrs": [[1e400, 0.5]]}'),
    ('{"n_words": 3}', '{"image_id": 1, "attrs": [[0.7, 0.5]]}'),
    ('{"n_words": 3}', '{"image_id": 1, "attrs": [[true, 0.5]]}'),
    ('{"n_words": 3}', '{"image_id": 1.5, "attrs": [[0, 0.5]]}'),
    ('{"n_words": 3}', '{"image_id": 1, "attrs": [[0, "0.5"]]}'),
    ('{"n_words": 1000000000000}', ATTR_RECORD),
    ('{"n_words": "3"}', ATTR_RECORD),
    ('{"n_words": 3.0}', ATTR_RECORD),
    ('{"n_words": true}', ATTR_RECORD),
], ids=["index-1e400", "index-0.7", "index-true", "image_id-1.5", "value-string",
        "n_words-1e12", "n_words-string", "n_words-3.0", "n_words-true"])
def test_attribute_records_need_json_ints(artifacts, meta, record):
    # Each of these was once truncated or coerced silently, or ended in
    # an OverflowError or MemoryError traceback.
    (artifacts / "bad.jsonl").write_text(f'{{"_meta": {meta}}}\n{record}\n')
    line = expect_one_data_error(["eval-attr", "--pred", artifacts / "bad.jsonl",
                                  "--gt", artifacts / "bad.jsonl"])
    if "n_words" in meta and "1000" in meta:
        assert "n_words 1000000000000" in line, line


@pytest.mark.parametrize("command, flag", [
    ("eval-attr", "--pred"), ("extract", "--captions"),
    ("eval-captions", "--candidates"), ("train-captioner", "--init-embeddings"),
])
def test_an_undecodable_text_input_is_one_data_error_naming_it(artifacts, command, flag):
    # The binary feature file where text is due: each was once a bare
    # UnicodeDecodeError that named neither of the command's inputs.
    argv = {"eval-attr": eval_command(artifacts, "eval-attr"),
            "extract": ["extract", "--captions", None, "--idf-threshold", "2",
                        "--out-vocab", artifacts / "out.json",
                        "--out-attrs", artifacts / "out.jsonl"],
            "eval-captions": eval_command(artifacts, "eval-captions"),
            "train-captioner": [*feature_command(artifacts, "train-captioner"),
                                "--init-embeddings", None]}[command]
    argv[argv.index(flag) + 1] = artifacts / "feats.daef"
    line = expect_one_data_error(argv)
    assert f"{artifacts / 'feats.daef'}: 'utf-8' codec can't decode" in line, line
    assert not list(artifacts.glob("out.*"))


@pytest.mark.parametrize("record", [
    '{"image_id": 1, "tokens": 5}',
    '{"image_id": null, "tokens": ["a"]}',
    '{"image_id": 1.5, "tokens": ["a"]}',
    '{"image_id": true, "tokens": ["a"]}',
    '{"image_id": 1, "tokens": "abc"}',
    '{"image_id": 1, "tokens": ["a", 7]}',
], ids=["tokens-5", "image_id-null", "image_id-1.5", "image_id-true", "tokens-string",
        "token-7"])
def test_caption_candidates_need_an_int_id_and_string_tokens(artifacts, record):
    # Each of these was once a TypeError traceback, or coerced silently
    # ("abc" scored as the tokens a b c).
    (artifacts / "bad.jsonl").write_text('{"_meta": {}}\n' + record + "\n")
    expect_one_data_error(["eval-captions", "--candidates", artifacts / "bad.jsonl",
                           "--references", artifacts / "captions.json"])


# ---------------------------------------------------------------------------
# fuzzing: truncations and header mutations
# ---------------------------------------------------------------------------

JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 2 ** 64), st.floats(),
    st.text(max_size=3), st.lists(st.integers(-1, 7), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2),
)


def header_paths(node, prefix=()):
    """Key paths of every value below the root of a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from header_paths(value, prefix + (key,))


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    write_artifacts(root)
    raw = {family: (root / f"{family}.daec").read_bytes() for family in ("attr", "cap")}
    paths = {family: sorted(header_paths(split_checkpoint(raw[family])[1]), key=repr)
             for family in raw}
    return root, raw, paths


def expect_contract(root, family, data, may_succeed):
    path = root / "mutated.daec"
    path.write_bytes(data)
    expect_run_contract(command(root, family, path), may_succeed)


def expect_run_contract(argv, may_succeed):
    code, lines = run(argv)
    if code == 0 and may_succeed:
        assert lines == []
        return
    assert code in (1, 2, 3), lines
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@FUZZ
@given(family=st.sampled_from(["attr", "cap"]), data=st.data())
def test_truncated_checkpoints_keep_the_contract(pristine, family, data):
    root, raw, _ = pristine
    cut = data.draw(st.integers(0, len(raw[family]) - 1), label="cut")
    expect_contract(root, family, raw[family][:cut], may_succeed=False)


@FUZZ
@given(family=st.sampled_from(["attr", "cap"]), data=st.data())
def test_mutated_checkpoint_headers_keep_the_contract(pristine, family, data):
    root, raw, paths = pristine
    lead, header, payload = split_checkpoint(raw[family])
    *parents, key = data.draw(st.sampled_from(paths[family]), label="path")
    node = header
    for step in parents:
        node = node[step]
    if data.draw(st.booleans(), label="drop"):
        del node[key]
    else:
        node[key] = data.draw(JUNK, label="value")
    # A mutation may leave a valid checkpoint (a new meta value, say);
    # such a file loads and the command succeeds.
    expect_contract(root, family, join_checkpoint(lead, header, payload),
                    may_succeed=True)


# ---------------------------------------------------------------------------
# fuzzing: features, attribute JSONL and caption candidate JSONL
# ---------------------------------------------------------------------------

# Replacement integers stay small: an n_words or index drawn from here
# never asks for more than a few MB.
SMALL_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 1000), st.floats(),
    st.text(max_size=3), st.lists(st.integers(-1, 7), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2),
)
FILE_FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150)
# (offset, size) of the feature header words: magic, version, dim, count.
FEATURE_WORDS = ((0, 4), (4, 4), (8, 4), (12, 8))


def reading(root, name, data, argv):
    """``argv`` with every ``root / name`` argument reading ``data``."""
    path = root / f"mutated-{name}"
    path.write_bytes(data)
    return [path if arg == root / name else arg for arg in argv]


def mutate_jsonl(raw, data):
    """JSON Lines ``raw`` with one value, or one whole line, dropped or
    replaced by a drawn value."""
    lines = [json.loads(line) for line in raw.splitlines()]
    *parents, key = data.draw(st.sampled_from(sorted(header_paths(lines), key=repr)),
                              label="path")
    node = lines
    for step in parents:
        node = node[step]
    if data.draw(st.booleans(), label="drop"):
        del node[key]
    else:
        node[key] = data.draw(SMALL_JUNK, label="value")
    return "".join(json.dumps(line) + "\n" for line in lines).encode("utf-8")


FEATURE_READERS = st.sampled_from(["attr", "cap", "train-attr", "train-captioner"])


@FILE_FUZZ
@given(family=FEATURE_READERS, data=st.data())
def test_truncated_feature_files_keep_the_contract(pristine, family, data):
    root = pristine[0]
    raw = (root / "feats.daef").read_bytes()
    cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
    expect_run_contract(reading(root, "feats.daef", raw[:cut],
                                feature_command(root, family)), may_succeed=False)


@FILE_FUZZ
@given(family=FEATURE_READERS, word=st.sampled_from(FEATURE_WORDS), data=st.data())
def test_mutated_feature_headers_keep_the_contract(pristine, family, word, data):
    root = pristine[0]
    raw = bytearray((root / "feats.daef").read_bytes())
    offset, size = word
    value = data.draw(st.one_of(st.integers(0, 1000), st.integers(0, 256 ** size - 1)),
                      label="value")
    raw[offset:offset + size] = value.to_bytes(size, "little")
    # The same word written back, or a dim and count that still fit the
    # payload, leave a readable file.
    expect_run_contract(reading(root, "feats.daef", bytes(raw),
                                feature_command(root, family)), may_succeed=True)


@FILE_FUZZ
@given(reader=st.sampled_from(["cap", "train-attr", "eval-attr"]), data=st.data())
def test_mutated_attribute_files_keep_the_contract(pristine, reader, data):
    root = pristine[0]
    argv = (eval_command(root, reader) if reader == "eval-attr"
            else feature_command(root, reader))
    mutated = mutate_jsonl((root / "attrs.jsonl").read_text(), data)
    expect_run_contract(reading(root, "attrs.jsonl", mutated, argv), may_succeed=True)


@FILE_FUZZ
@given(data=st.data())
def test_mutated_caption_candidates_keep_the_contract(pristine, data):
    root = pristine[0]
    mutated = mutate_jsonl((root / "cands.jsonl").read_text(), data)
    expect_run_contract(reading(root, "cands.jsonl", mutated,
                                eval_command(root, "eval-captions")), may_succeed=True)
