"""Malformed checkpoints and attribute files through the CLI contract.

Every malformed input must end the command with exit code 1, 2 or 3 and
exactly one ``error: <category>: <reason>`` line on stderr, never with a
traceback. The tests build tiny two-member checkpoints of both model
families, damage them, and run them through ``predict-attr`` and
``caption``.
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


def write_artifacts(root):
    """Features, attributes and a two-member checkpoint of each family."""
    storage.write_features(root / "feats.daef", [1, 2, 3, 4],
                           Rng(50).normal((4, FEATURE_DIM)))
    storage.write_attributes(root / "attrs.jsonl", [1, 2, 3, 4],
                             np.full((4, N_WORDS), 0.5))
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("family", ["attr", "cap"])
def test_non_finite_features_are_a_numeric_error(artifacts, family, bad):
    features = Rng(50).normal((4, FEATURE_DIM))
    features[2, 5] = bad
    features[3, 0] = np.nan
    storage.write_features(artifacts / "feats.daef", [1, 2, 3, 4], features)
    code, lines = run(command(artifacts, family, artifacts / f"{family}.daec"))
    assert code == 3
    assert len(lines) == 1 and lines[0].startswith("error: numeric: "), lines
    assert lines[0].endswith("non-finite feature value for image 3"), lines
    assert not (artifacts / "out.jsonl").exists()


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
    code, lines = run(command(root, family, path))
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
