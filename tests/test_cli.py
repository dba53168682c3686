"""End-to-end tests of the command line interface."""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import attrcap
from attrcap import attrnet, cli, scnlstm, storage
from attrcap.attrnet import AttrNetConfig, AttrTrainConfig, JoinError
from attrcap.cli import UsageError, main
from attrcap.corpus import CorpusError, tokenize
from attrcap.nncore import DimensionError, NumericError, ParameterError, Rng
from attrcap.scnlstm import CaptionTrainConfig, ScnLstmConfig

from conftest import save_members

FEATURE_DIM = 12

CAPTIONS = {
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


def write_inputs(root):
    (root / "captions.json").write_text(json.dumps(CAPTIONS))
    features = Rng(50).normal((4, FEATURE_DIM))
    storage.write_features(root / "feats.daef", [1, 2, 3, 4], features)


def write_embeddings(root):
    dims = 6
    rows = ["2 {}".format(dims),
            "red " + " ".join(str(0.125 * (i + 1)) for i in range(dims)),
            "dog " + " ".join(str(-0.25) for _ in range(dims))]
    (root / "vectors.txt").write_text("\n".join(rows) + "\n")


PIPELINE = [
    ["extract", "--captions", "captions.json", "--no-stem",
     "--idf-threshold", "1.3", "--out-vocab", "vocab.json",
     "--out-attrs", "gt.jsonl", "--seed", "3"],
    ["vocab-report", "--captions", "captions.json", "--no-stem",
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

ARTIFACTS = ["vocab.json", "gt.jsonl", "sizes.json", "attr.daec",
             "pred.jsonl", "cap.daec", "decoded.jsonl", "f1.json",
             "scores.json"]


def run_pipeline(capsys):
    outputs = []
    for argv in PIPELINE:
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 0, f"{argv[0]} failed: {captured.err}"
        assert captured.err == ""
        outputs.append(captured.out)
    return outputs


def test_full_pipeline_end_to_end(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    write_embeddings(tmp_path)
    outputs = run_pipeline(capsys)

    for name in ARTIFACTS:
        assert (tmp_path / name).exists(), name

    # The extract step reports the vocabulary it kept.
    assert "vocabulary:" in outputs[0]
    vocab = json.loads((tmp_path / "vocab.json").read_text())
    assert vocab["meta"]["seed"] == 3
    assert vocab["meta"]["command"].startswith("attrcap extract")
    assert len(vocab["words"]) >= 4

    # Ground-truth attributes: one record per image plus the meta line.
    lines = (tmp_path / "gt.jsonl").read_text().splitlines()
    meta = json.loads(lines[0])["_meta"]
    assert meta["seed"] == 3 and meta["command"].startswith("attrcap extract")
    records = [json.loads(line) for line in lines[1:]]
    assert [r["image_id"] for r in records] == [1, 2, 3, 4]

    # The embedding overlay reported both known words.
    assert "initialized 2 embedding rows" in outputs[4]

    # Decoded captions carry the fields downstream evaluation needs.
    decoded_lines = (tmp_path / "decoded.jsonl").read_text().splitlines()
    assert json.loads(decoded_lines[0])["_meta"]["command"].startswith(
        "attrcap caption")
    decoded = [json.loads(line) for line in decoded_lines[1:]]
    assert len(decoded) == 4
    for record in decoded:
        assert record["caption"] == " ".join(record["tokens"])
        assert record["log_prob"] <= 0.0
        assert "<bos>" not in record["tokens"]
        assert "<eos>" not in record["tokens"]

    # Metric reports are well-formed and in range.
    f1 = json.loads((tmp_path / "f1.json").read_text())
    assert 0.0 <= f1["macro_f1"] <= 1.0
    assert 0.0 <= f1["micro_f1"] <= 1.0
    assert f1["n_images"] == 4
    scores = json.loads((tmp_path / "scores.json").read_text())
    assert 0.0 <= scores["bleu_4"] <= 1.0
    assert 0.0 <= scores["rouge_l"] <= 1.0
    assert 0.0 <= scores["cider_d"] <= 10.0
    assert scores["n_images"] == 4
    assert scores["meta"]["command"].startswith("attrcap eval-captions")

    # Attributes evaluated against themselves are a perfect prediction.
    code = main(["eval-attr", "--pred", "gt.jsonl", "--gt", "gt.jsonl",
                 "--out", "self.json"])
    captured = capsys.readouterr()
    assert code == 0
    assert "macro_f1: 1.0" in captured.out
    assert json.loads((tmp_path / "self.json").read_text())["micro_f1"] == 1.0


def test_pipeline_reruns_are_byte_identical(tmp_path, monkeypatch, capsys):
    first = tmp_path / "first"
    second = tmp_path / "second"
    snapshots = []
    for root in (first, second):
        root.mkdir()
        monkeypatch.chdir(root)
        write_inputs(root)
        write_embeddings(root)
        run_pipeline(capsys)
        snapshots.append({name: (root / name).read_bytes()
                          for name in ARTIFACTS})
    assert snapshots[0].keys() == snapshots[1].keys()
    for name in snapshots[0]:
        assert snapshots[0][name] == snapshots[1][name], name


def expect_error(capsys, argv, code, category):
    actual = main(list(argv))
    captured = capsys.readouterr()
    assert actual == code, captured.err
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1, f"expected one error line, got {lines!r}"
    assert lines[0].startswith(f"error: {category}: ")
    return lines[0]


def test_usage_errors_exit_with_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    expect_error(capsys, [], 1, "usage")
    expect_error(capsys, ["no-such-command"], 1, "usage")
    expect_error(capsys, ["extract", "--captions", "captions.json"],
                 1, "usage")
    expect_error(capsys, ["vocab-report", "--captions", "captions.json",
                          "--thresholds", "one,two"], 1, "usage")
    expect_error(capsys, ["train-attr", "--features", "feats.daef",
                          "--attrs", "gt.jsonl", "--out-model", "m.daec",
                          "--ensemble", "0"], 1, "usage")

    # Degenerate widths and counts, non-finite floats, a negative
    # learning rate, and settings that would fail only later: a training
    # batch of one row for the batch-normalized attribute net, a clip norm
    # that is not above 0 (also when no epoch runs) and an IDF threshold
    # that admits no word.
    storage.write_attributes(tmp_path / "attrs.jsonl", [1, 2, 3, 4],
                             np.full((4, 3), 0.5))
    train_attr = ["train-attr", "--features", "feats.daef", "--attrs",
                  "attrs.jsonl", "--out-model", "m.daec", "--epochs", "1"]
    train_captioner = ["train-captioner", "--captions", "captions.json",
                       "--features", "feats.daef", "--attrs", "attrs.jsonl",
                       "--out-model", "c.daec", "--min-count", "1", "--embed-dim",
                       "4", "--hidden", "4", "--factor", "4", "--epochs", "1"]
    for argv in ([*train_attr, "--hidden", "0"], [*train_attr, "--hidden", "-1"],
                 [*train_attr, "--epochs", "-1"],
                 [*train_attr, "--learning-rate", "nan"],
                 [*train_attr, "--learning-rate", "-1"],
                 [*train_attr, "--dropout", "inf"],
                 [*train_captioner, "--embed-dim", "-1"],
                 [*train_captioner, "--factor", "-2"],
                 [*train_captioner, "--hidden", "0"],
                 [*train_captioner, "--embed-dim", "0"],
                 [*train_captioner, "--epochs", "-1"],
                 [*train_captioner, "--patience", "-1"],
                 [*train_captioner, "--clip-norm", "nan"],
                 [*train_attr, "--batch-size", "1"],
                 [*train_attr, "--epochs", "0", "--batch-size", "1"],
                 [*train_captioner, "--clip-norm", "0"],
                 [*train_captioner, "--epochs", "0", "--clip-norm", "-3"],
                 [*train_captioner, "--val-fraction", "nan"],
                 ["eval-captions", "--candidates", "d.jsonl", "--references",
                  "captions.json", "--rouge-beta", "nan"],
                 ["extract", "--captions", "captions.json", "--idf-threshold",
                  "nan", "--out-vocab", "v.json", "--out-attrs", "a.jsonl"],
                 ["vocab-report", "--captions", "captions.json",
                  "--thresholds", "nan,1"]):
        expect_error(capsys, argv, 1, "usage")
    # Every IDF is at least 1.
    assert "--idf-threshold" in expect_error(capsys, [
        "extract", "--captions", "captions.json", "--idf-threshold", "1.0",
        "--out-vocab", "v.json", "--out-attrs", "a.jsonl"], 1, "usage")
    assert not {"m.daec", "c.daec", "v.json", "a.jsonl"} & set(os.listdir(tmp_path))


def test_configs_refuse_settings_that_would_fail_later(tmp_path, monkeypatch):
    with pytest.raises(ParameterError, match="batch_size must be at least 2, got 1"):
        AttrTrainConfig(batch_size=1)
    for value in (0.0, -3.0, np.inf, np.nan):
        with pytest.raises(ParameterError, match="clip_norm must be finite and above 0"):
            CaptionTrainConfig(clip_norm=value)
    assert CaptionTrainConfig(clip_norm=5e-324).clip_norm > 0.0
    # The decoder has no batch normalization: a batch of one caption trains.
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    storage.write_attributes(tmp_path / "attrs.jsonl", [1, 2, 3, 4],
                             np.full((4, 3), 0.5))
    assert main(["train-captioner", "--captions", "captions.json", "--features",
                 "feats.daef", "--attrs", "attrs.jsonl", "--out-model", "c.daec",
                 "--min-count", "1", "--embed-dim", "4", "--hidden", "4",
                 "--factor", "4", "--epochs", "1", "--batch-size", "1"]) == 0
    assert (tmp_path / "c.daec").exists()


def test_data_errors_exit_with_two(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    expect_error(capsys, ["extract", "--captions", "missing.json",
                          "--idf-threshold", "2", "--out-vocab", "v.json",
                          "--out-attrs", "a.jsonl"], 2, "data")
    (tmp_path / "broken.json").write_text("{not json")
    expect_error(capsys, ["extract", "--captions", "broken.json",
                          "--idf-threshold", "2", "--out-vocab", "v.json",
                          "--out-attrs", "a.jsonl"], 2, "data")

    # A checkpoint of the wrong kind is a format error.
    storage.save_checkpoint(tmp_path / "foreign.daec",
                            {"w": np.ones((2, 2))}, {"kind": "other"})
    storage.write_attributes(tmp_path / "attrs.jsonl", [1, 2, 3, 4],
                             np.full((4, 3), 0.5))
    expect_error(capsys, ["caption", "--features", "feats.daef", "--attrs",
                          "attrs.jsonl", "--model", "foreign.daec",
                          "--out", "d.jsonl"], 2, "data")

    # Features and attributes that do not cover the same images.
    storage.write_attributes(tmp_path / "partial.jsonl", [1, 2],
                             np.full((2, 3), 0.5))
    expect_error(capsys, ["train-attr", "--features", "feats.daef",
                          "--attrs", "partial.jsonl", "--out-model",
                          "m.daec", "--hidden", "4", "--epochs", "1"],
                 2, "data")

    # An attribute file without words, as one can write by hand (extract
    # refuses a threshold that admits no word).
    storage.write_attributes(tmp_path / "empty.jsonl", [1, 2, 3, 4], np.zeros((4, 0)))
    expect_error(capsys, ["train-attr", "--features", "feats.daef",
                          "--attrs", "empty.jsonl", "--out-model",
                          "m.daec", "--hidden", "4", "--epochs", "1"],
                 2, "data")
    assert not (tmp_path / "m.daec").exists()


@pytest.mark.parametrize("command", ["train-attr", "train-captioner", "caption",
                                     "eval-attr"])
def test_a_join_mismatch_names_both_files(tmp_path, monkeypatch, capsys, command):
    # Each file is named, with the ids the other one holds and it lacks.
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    storage.write_attributes("four.jsonl", [1, 2, 3, 4], np.full((4, 3), 0.5))
    storage.write_attributes("other.jsonl", [3, 4, 5], np.full((3, 3), 0.5))
    vocab = scnlstm.CaptionVocab.from_token_lists([["a", "dog"]], min_count=1)
    scnlstm.save_captioner("cap.daec", scnlstm.ScnLstm(ScnLstmConfig(
        vocab_size=len(vocab), n_words=3, feature_dim=FEATURE_DIM, embed_dim=4,
        hidden_dim=4, factor_dim=4)), vocab)
    common = ["--features", "feats.daef", "--attrs", "other.jsonl"]
    argv = {"train-attr": ["train-attr", *common, "--out-model", "out.daec"],
            "train-captioner": ["train-captioner", *common, "--captions",
                                "captions.json", "--out-model", "out.daec",
                                "--min-count", "1"],
            "caption": ["caption", *common, "--model", "cap.daec", "--out", "out.jsonl"],
            "eval-attr": ["eval-attr", "--pred", "four.jsonl", "--gt", "other.jsonl",
                          "--out", "out.json"]}[command]
    first = "four.jsonl" if command == "eval-attr" else "feats.daef"
    assert expect_error(capsys, argv, 2, "data") == (
        f"error: data: {first} and other.jsonl do not cover the same images; "
        f"ids not in other.jsonl: [1, 2]; ids not in {first}: [5]")
    assert not list(tmp_path.glob("out.*"))


def test_eval_attr_of_files_of_different_widths_names_both(tmp_path, monkeypatch, capsys):
    # One line names each file with its width, before any scoring.
    monkeypatch.chdir(tmp_path)
    storage.write_attributes("pred.jsonl", [1, 2, 3], np.full((3, 4), 0.5))
    storage.write_attributes("gt.jsonl", [1, 2, 3], np.full((3, 3), 0.5))
    line = expect_error(capsys, ["eval-attr", "--pred", "pred.jsonl", "--gt", "gt.jsonl",
                                 "--out", "f1.json"], 2, "data")
    assert line == ("error: data: pred.jsonl holds 4 attributes per image "
                    "and gt.jsonl holds 3")
    assert not list(tmp_path.glob("f1.json*"))


def test_captions_of_images_without_features_name_the_three_files(tmp_path, monkeypatch,
                                                                   capsys):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    storage.write_features("three.daef", [1, 2, 3], Rng(50).normal((3, FEATURE_DIM)))
    storage.write_attributes("three.jsonl", [1, 2, 3], np.full((3, 3), 0.5))
    line = expect_error(capsys, ["train-captioner", "--captions", "captions.json",
                                 "--features", "three.daef", "--attrs", "three.jsonl",
                                 "--out-model", "out.daec", "--min-count", "1"], 2, "data")
    assert line == ("error: data: captions.json references images not in three.daef "
                    "and three.jsonl: [4]")
    assert not list(tmp_path.glob("out.*"))


@pytest.mark.parametrize("ids", [[7], []])
def test_train_attr_on_fewer_than_two_images_is_a_data_error(tmp_path, monkeypatch,
                                                              capsys, ids):
    # No flag is wrong: the files hold too few images to batch-normalize a
    # batch, and that is found before any member trains.
    monkeypatch.chdir(tmp_path)
    storage.write_features("few.daef", ids, np.ones((len(ids), 3)))
    storage.write_attributes("few.jsonl", ids, np.full((len(ids), 2), 0.5))
    monkeypatch.setattr(attrnet, "train_attrnet", lambda *args: pytest.fail("trained"))
    line = expect_error(capsys, ["train-attr", "--features", "few.daef", "--attrs",
                                 "few.jsonl", "--out-model", "out.daec"], 2, "data")
    assert line == ("error: data: few.daef: training needs at least 2 images "
                    f"(batch normalization), the file holds {len(ids)}")
    assert not list(tmp_path.glob("out.*"))


@pytest.mark.parametrize("command", ["train-attr", "train-captioner", "caption"])
def test_features_of_width_zero_are_a_data_error(tmp_path, monkeypatch, capsys, command):
    # No flag is wrong, so it is not a usage error; and ``caption`` must
    # name the file, not fail in a matrix product against its model.
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    storage.write_features("zero.daef", [1, 2, 3, 4], np.zeros((4, 0)))
    storage.write_attributes("attrs.jsonl", [1, 2, 3, 4], np.full((4, 3), 0.5))
    vocab = scnlstm.CaptionVocab.from_token_lists([["a", "dog"]], min_count=1)
    scnlstm.save_captioner("cap.daec", scnlstm.ScnLstm(ScnLstmConfig(
        vocab_size=len(vocab), n_words=3, feature_dim=FEATURE_DIM, embed_dim=4,
        hidden_dim=4, factor_dim=4)), vocab)
    common = ["--features", "zero.daef", "--attrs", "attrs.jsonl"]
    argv = {"train-attr": ["train-attr", *common, "--out-model", "out.daec"],
            "train-captioner": ["train-captioner", *common, "--captions",
                                "captions.json", "--out-model", "out.daec",
                                "--min-count", "1"],
            "caption": ["caption", *common, "--model", "cap.daec",
                        "--out", "out.jsonl"]}[command]
    line = expect_error(capsys, argv, 2, "data")
    assert line == "error: data: zero.daef: the vectors have width 0"
    assert not list(tmp_path.glob("out.*"))


@pytest.mark.parametrize("command, wide, message", [
    ("caption", "wide.daef", "wide.daef: the vectors have width 5, the model takes 3"),
    ("caption", "wide.jsonl", "wide.jsonl: the vectors have width 4, the model takes 3"),
    ("predict-attr", "wide.daef", "wide.daef: the vectors have width 5, the model takes 3"),
])
def test_input_widths_must_match_the_model(tmp_path, monkeypatch, capsys, command, wide,
                                           message):
    # Checked against the checkpoint before any work starts, so the error
    # names the file and both widths, not a matrix product's operands.
    monkeypatch.chdir(tmp_path)
    ids = [1, 2, 3, 4]
    storage.write_features("feats.daef", ids, np.ones((4, 3)))
    storage.write_features("wide.daef", ids, np.ones((4, 5)))
    storage.write_attributes("attrs.jsonl", ids, np.full((4, 3), 0.5))
    storage.write_attributes("wide.jsonl", ids, np.full((4, 4), 0.5))
    vocab = scnlstm.CaptionVocab.from_token_lists([["a", "dog"]], min_count=1)
    scnlstm.save_captioner("cap.daec", scnlstm.ScnLstm(ScnLstmConfig(
        vocab_size=len(vocab), n_words=3, feature_dim=3, embed_dim=4,
        hidden_dim=4, factor_dim=4)), vocab)
    save_members("attr.daec", [attrnet.AttrNet(
        AttrNetConfig(n_words=3, feature_dim=3, hidden_dim=4), seed=1)])
    features = wide if wide.endswith(".daef") else "feats.daef"
    attrs = wide if wide.endswith(".jsonl") else "attrs.jsonl"
    argv = {"caption": ["caption", "--features", features, "--attrs", attrs,
                        "--model", "cap.daec", "--out", "out.jsonl"],
            "predict-attr": ["predict-attr", "--features", features,
                             "--model", "attr.daec", "--out-attrs", "out.jsonl"]}[command]
    assert expect_error(capsys, argv, 2, "data") == f"error: data: {message}"
    assert not list(tmp_path.glob("out.*"))


@pytest.mark.parametrize("command, flag, value", [
    ("caption", "--beam", 10 ** 13),
    ("train-attr", "--hidden", 10 ** 14),
])
def test_arrays_beyond_memory_are_one_data_error(tmp_path, monkeypatch, capsys,
                                                 command, flag, value):
    # Each array is larger than 2**47 bytes, more than a process can
    # address, so its allocation fails at once whatever the overcommit.
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    storage.write_attributes("attrs.jsonl", [1, 2, 3, 4], np.full((4, 3), 0.5))
    vocab = scnlstm.CaptionVocab.from_token_lists([["a", "dog"]], min_count=1)
    scnlstm.save_captioner("cap.daec", scnlstm.ScnLstm(ScnLstmConfig(
        vocab_size=len(vocab), n_words=3, feature_dim=FEATURE_DIM, embed_dim=4,
        hidden_dim=4, factor_dim=4)), vocab)
    common = ["--features", "feats.daef", "--attrs", "attrs.jsonl", flag, str(value)]
    argv = {"caption": ["caption", *common, "--model", "cap.daec", "--out", "out.jsonl"],
            "train-attr": ["train-attr", *common, "--out-model", "out.daec",
                           "--epochs", "1", "--ensemble", "1"]}[command]
    assert "Unable to allocate" in expect_error(capsys, argv, 2, "data")
    assert not list(tmp_path.glob("out.*"))


@pytest.mark.parametrize("command", ["extract", "vocab-report", "train-captioner",
                                     "eval-captions"])
def test_a_caption_file_without_captions_is_a_data_error(tmp_path, monkeypatch, capsys,
                                                          command):
    # Reported before any other work: the missing embedding file is not
    # read, and no threshold, validation split or candidate is blamed.
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    storage.write_attributes("attrs.jsonl", [1, 2, 3, 4], np.full((4, 3), 0.5))
    storage.write_jsonl("cands.jsonl", [{"image_id": 1, "tokens": ["a", "bird"]}])
    (tmp_path / "none.json").write_text(json.dumps({"annotations": []}))
    argv = {"extract": ["extract", "--captions", "none.json", "--idf-threshold", "3.0",
                        "--out-vocab", "out.json", "--out-attrs", "out.jsonl"],
            "vocab-report": ["vocab-report", "--captions", "none.json",
                             "--thresholds", "2,3", "--out", "out.json"],
            "train-captioner": ["train-captioner", "--captions", "none.json",
                                "--features", "feats.daef", "--attrs", "attrs.jsonl",
                                "--out-model", "out.daec", "--embed-dim", "6",
                                "--init-embeddings", "missing.txt"],
            "eval-captions": ["eval-captions", "--candidates", "cands.jsonl",
                              "--references", "none.json", "--out", "out.json"]}[command]
    line = expect_error(capsys, argv, 2, "data")
    assert line == "error: data: none.json: the caption file holds no captions"
    assert not list(tmp_path.glob("out.*"))


@pytest.mark.parametrize("command, message", [
    ("caption", None),
    ("eval-attr", "none.jsonl: the attribute file holds no images"),
    ("eval-captions", "cands.jsonl: the candidate file holds no captions"),
])
def test_inputs_without_images(tmp_path, monkeypatch, capsys, command, message):
    # Each once failed in np.stack ("need at least one array to stack"),
    # or as a usage error for eval-captions. Decoding no image is not an
    # error, as predicting attributes for none is not; scoring none is.
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    storage.write_features("none.daef", [], np.zeros((0, FEATURE_DIM)))
    storage.write_attributes("none.jsonl", [], np.zeros((0, 3)))
    storage.write_jsonl("cands.jsonl", [], meta={"seed": 0})
    vocab = scnlstm.CaptionVocab.from_token_lists([["a", "dog"]], min_count=1)
    scnlstm.save_captioner("cap.daec", scnlstm.ScnLstm(ScnLstmConfig(
        vocab_size=len(vocab), n_words=3, feature_dim=FEATURE_DIM, embed_dim=4,
        hidden_dim=4, factor_dim=4)), vocab)
    argv = {"caption": ["caption", "--features", "none.daef", "--attrs", "none.jsonl",
                        "--model", "cap.daec", "--out", "out.jsonl"],
            "eval-attr": ["eval-attr", "--pred", "none.jsonl", "--gt", "none.jsonl",
                          "--out", "out.json"],
            "eval-captions": ["eval-captions", "--candidates", "cands.jsonl",
                              "--references", "captions.json", "--out", "out.json"]}[command]
    if message is None:
        assert main(argv) == 0
        assert capsys.readouterr().out == "decoded 0 captions (beam 5)\n"
        [line] = (tmp_path / "out.jsonl").read_text().splitlines()
        assert list(json.loads(line)) == ["_meta"]
    else:
        assert expect_error(capsys, argv, 2, "data") == f"error: data: {message}"
        assert not list(tmp_path.glob("out.*"))


class Captured(Exception):
    """Raised by a stub trainer once it holds the configs it was given."""


def captured_configs(monkeypatch, module, trainer, argv, positions):
    """The configs that ``argv`` hands ``module.trainer``, at the given
    argument positions; the stub trains nothing."""
    configs = []

    def stub(*args, **kwargs):
        configs.extend(args[i] for i in positions)
        raise Captured

    monkeypatch.setattr(module, trainer, stub)
    with pytest.raises(Captured):
        main(argv)
    return configs


# Flag, config field, value: every value differs from the field's default.
ATTR_FLAGS = [("--hidden", "hidden_dim", 7), ("--dropout", "dropout", 0.25),
              ("--learning-rate", "learning_rate", 0.5),
              ("--batch-size", "batch_size", 3), ("--epochs", "epochs", 9)]
CAPTIONER_FLAGS = [("--embed-dim", "embed_dim", 5), ("--hidden", "hidden_dim", 6),
                   ("--factor", "factor_dim", 7), ("--dropout", "dropout", 0.125),
                   ("--learning-rate", "learning_rate", 0.0625),
                   ("--batch-size", "batch_size", 3), ("--epochs", "max_epochs", 11),
                   ("--clip-norm", "clip_norm", 2.5), ("--patience", "patience", 4)]


def flag_argv(flags):
    return [text for flag, _, value in flags for text in (flag, str(value))]


def test_training_flags_fill_their_config_fields(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    storage.write_attributes(tmp_path / "attrs.jsonl", [1, 2, 3, 4],
                             np.full((4, 3), 0.5))
    member_seed = Rng(0).split(1).seed
    data = {"n_words": 3, "feature_dim": FEATURE_DIM}
    fields = [f.name for config in (AttrNetConfig, AttrTrainConfig)
              for f in dataclasses.fields(config)]
    assert sorted(fields) == sorted([*data, "seed", "bn_on_output",
                                     *(name for _, name, _ in ATTR_FLAGS)])
    attr = ["train-attr", "--features", "feats.daef", "--attrs", "attrs.jsonl",
            "--out-model", "m.daec"]
    net, train = captured_configs(monkeypatch, attrnet, "train_attrnet", attr, (2, 3))
    assert net == AttrNetConfig(**data)
    assert train == AttrTrainConfig(seed=member_seed)
    net, train = captured_configs(monkeypatch, attrnet, "train_attrnet",
                                  attr + flag_argv(ATTR_FLAGS) + ["--no-output-bn"],
                                  (2, 3))
    settings = {**dataclasses.asdict(net), **dataclasses.asdict(train)}
    assert settings == {**data, "seed": member_seed, "bn_on_output": False,
                        **{name: value for _, name, value in ATTR_FLAGS}}

    captioner = ["train-captioner", "--captions", "captions.json", "--features",
                 "feats.daef", "--attrs", "attrs.jsonl", "--out-model", "c.daec",
                 "--min-count", "1"]
    fields = [f.name for config in (ScnLstmConfig, CaptionTrainConfig)
              for f in dataclasses.fields(config)]
    assert sorted(fields) == sorted([*data, "vocab_size", "seed",
                                     *(name for _, name, _ in CAPTIONER_FLAGS)])
    net, train = captured_configs(monkeypatch, scnlstm, "train_captioner",
                                  captioner, (1, 2))
    data["vocab_size"] = net.vocab_size
    assert net == ScnLstmConfig(**data)
    assert train == CaptionTrainConfig(seed=member_seed)
    net, train = captured_configs(monkeypatch, scnlstm, "train_captioner",
                                  captioner + flag_argv(CAPTIONER_FLAGS), (1, 2))
    settings = {**dataclasses.asdict(net), **dataclasses.asdict(train)}
    assert settings == {**data, "seed": member_seed,
                        **{name: value for _, name, value in CAPTIONER_FLAGS}}
    assert not [name for name in os.listdir(tmp_path) if name.startswith(("m.", "c."))]


@pytest.mark.parametrize("value", ["inf", "nan", "1e400"])
def test_non_finite_embedding_is_a_data_error(tmp_path, monkeypatch, capsys, value):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    storage.write_attributes(tmp_path / "attrs.jsonl", [1, 2, 3, 4],
                             np.full((4, 3), 0.5))
    (tmp_path / "vectors.txt").write_text(f"red 0.5 0 0 0\ndog {value} 0 0 0\n")
    line = expect_error(capsys, [
        "train-captioner", "--captions", "captions.json", "--features", "feats.daef",
        "--attrs", "attrs.jsonl", "--out-model", "cap.daec", "--min-count", "1",
        "--embed-dim", "4", "--hidden", "4", "--factor", "4", "--epochs", "1",
        "--init-embeddings", "vectors.txt"], 2, "data")
    assert "vectors.txt:2:" in line and "'dog'" in line
    assert not (tmp_path / "cap.daec").exists()


@pytest.mark.parametrize("value", ["abc", ""])
def test_non_numeric_embedding_names_its_line(tmp_path, monkeypatch, capsys, value):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    storage.write_attributes(tmp_path / "attrs.jsonl", [1, 2, 3, 4],
                             np.full((4, 3), 0.5))
    (tmp_path / "vectors.txt").write_text(f"dog 0.5 0 0 0\nred 0.5 {value} 0 0\n")
    line = expect_error(capsys, [
        "train-captioner", "--captions", "captions.json", "--features", "feats.daef",
        "--attrs", "attrs.jsonl", "--out-model", "cap.daec", "--min-count", "1",
        "--embed-dim", "4", "--hidden", "4", "--factor", "4", "--epochs", "1",
        "--init-embeddings", "vectors.txt"], 2, "data")
    assert "vectors.txt:2:" in line and "'red'" in line
    assert not (tmp_path / "cap.daec").exists()


@pytest.mark.parametrize("dim, text, rows", [
    (1, "red 0.5\ndog 0.25\n", 2),  # no header: the first line is a vector
    (6, "red 0.5\ndog 0 0 0 0 0 0\n", None),  # not two integers: malformed
], ids=["headerless", "malformed"])
def test_embedding_header_is_two_integers(tmp_path, monkeypatch, capsys, dim, text, rows):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    storage.write_attributes(tmp_path / "attrs.jsonl", [1, 2, 3, 4],
                             np.full((4, 3), 0.5))
    (tmp_path / "vectors.txt").write_text(text)
    argv = ["train-captioner", "--captions", "captions.json", "--features", "feats.daef",
            "--attrs", "attrs.jsonl", "--out-model", "cap.daec", "--min-count", "1",
            "--embed-dim", str(dim), "--hidden", "4", "--factor", "4", "--epochs", "1",
            "--init-embeddings", "vectors.txt"]
    if rows is None:
        assert "vectors.txt:1:" in expect_error(capsys, argv, 2, "data")
        assert not (tmp_path / "cap.daec").exists()
    else:
        assert main(argv) == 0
        assert f"initialized {rows} embedding rows" in capsys.readouterr().out


def test_embedding_file_overlays_each_members_own_table(tmp_path, monkeypatch, capsys):
    # Every member draws its table from its own seed; the file replaces
    # only the rows of the words it names.
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    storage.write_attributes(tmp_path / "attrs.jsonl", [1, 2, 3, 4],
                             np.full((4, 3), 0.5))
    (tmp_path / "none.txt").write_text("zebra 0.5 0 0 0\n")
    (tmp_path / "some.txt").write_text("red 0.5 0 0 0\ndog 0 0.25 0 -1\n")
    argv = ["train-captioner", "--captions", "captions.json", "--features", "feats.daef",
            "--attrs", "attrs.jsonl", "--min-count", "1", "--embed-dim", "4",
            "--hidden", "4", "--factor", "4", "--epochs", "0", "--ensemble", "2"]
    assert main([*argv, "--out-model", "plain.daec"]) == 0
    assert main([*argv, "--out-model", "none.daec", "--init-embeddings", "none.txt"]) == 0
    assert main([*argv, "--out-model", "some.daec", "--init-embeddings", "some.txt"]) == 0
    assert "initialized 0 embedding rows" in capsys.readouterr().out
    plain, _ = storage.load_checkpoint("plain.daec")
    none, _ = storage.load_checkpoint("none.daec")
    assert plain.keys() == none.keys()
    for name in plain:
        assert plain[name].tobytes() == none[name].tobytes(), name

    models, vocab = scnlstm.load_captioner_ensemble("some.daec")
    given = {vocab.index["red"]: [0.5, 0, 0, 0], vocab.index["dog"]: [0, 0.25, 0, -1]}
    for model in models:
        for row, vector in given.items():
            assert model.params["embed"][row].tolist() == vector
    others = [row for row in range(len(vocab)) if row not in given]
    first, second = (model.params["embed"][others] for model in models)
    assert (first != second).any(axis=1).all()


def test_caption_samples_follow_image_ids_then_file_order(tmp_path, monkeypatch):
    # Captions interleave their images, the feature file lists the images
    # in reverse, and each image has a word of its own.
    monkeypatch.chdir(tmp_path)
    captions = [(3, "a cat naps"), (1, "a dog runs"), (4, "a cow eats"),
                (2, "a fox hides"), (1, "the dog barks"), (3, "the cat purrs"),
                (2, "the fox waits"), (4, "the cow moos")]
    (tmp_path / "captions.json").write_text(json.dumps({"annotations": [
        {"image_id": image_id, "id": j, "caption": text}
        for j, (image_id, text) in enumerate(captions)]}))
    storage.write_features("feats.daef", [4, 3, 2, 1], Rng(50).normal((4, FEATURE_DIM)))
    storage.write_attributes("attrs.jsonl", [1, 2, 3, 4], Rng(51).uniform((4, 3)))
    image_of = {feature.tobytes(): image_id
                for image_id, feature in zip(*storage.read_features("feats.daef"))}
    captured = []

    def stub(samples, net_config, train_config, val_samples=None, embeddings=None):
        captured.extend([samples, val_samples, net_config.vocab_size])
        raise Captured

    monkeypatch.setattr(scnlstm, "train_captioner", stub)
    with pytest.raises(Captured):
        main(["train-captioner", "--captions", "captions.json", "--features",
              "feats.daef", "--attrs", "attrs.jsonl", "--out-model", "c.daec",
              "--min-count", "1", "--val-fraction", "0.5"])
    train, val, vocab_size = captured

    def images(samples):
        return [image_of[feature.tobytes()] for feature, _, _ in samples]

    held_out = set(images(val))
    assert len(held_out) == 2 and not held_out & set(images(train))
    token_lists = [tokenize(text) for _, text in captions]
    vocab = scnlstm.CaptionVocab.from_token_lists(token_lists, min_count=1)
    assert vocab_size == len(vocab)
    ordered = sorted(range(len(captions)), key=lambda j: captions[j][0])
    for samples, side in ((train, False), (val, True)):
        expected = [j for j in ordered if (captions[j][0] in held_out) == side]
        assert images(samples) == [captions[j][0] for j in expected]
        assert [ids for _, _, ids in samples] == [
            vocab.encode(token_lists[j]) for j in expected]


@pytest.mark.parametrize("error, code, category", [
    (UsageError, 1, "usage"), (ParameterError, 1, "usage"),
    (CorpusError, 2, "data"), (storage.FormatError, 2, "data"),
    (JoinError, 2, "data"), (DimensionError, 2, "data"), (ValueError, 2, "data"),
    (FileNotFoundError, 2, "data"),
    (NumericError, 3, "numeric"), (FloatingPointError, 3, "numeric"),
])
def test_each_error_class_has_its_exit_code(monkeypatch, capsys, error, code, category):
    def fail(args, meta):
        raise error("injected failure")

    monkeypatch.setitem(cli._HANDLERS, "eval-attr", fail)
    line = expect_error(capsys, ["eval-attr", "--pred", "p.jsonl", "--gt", "g.jsonl"],
                        code, category)
    assert line == f"error: {category}: injected failure"


def test_per_gate_captioner_checkpoint_is_a_data_error(
        tmp_path, monkeypatch, capsys, per_gate_checkpoint):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    storage.write_attributes(tmp_path / "attrs.jsonl", [1, 2, 3, 4],
                             np.full((4, 3), 0.5))
    config = ScnLstmConfig(vocab_size=5, n_words=3, feature_dim=FEATURE_DIM,
                           embed_dim=4, hidden_dim=6, factor_dim=6)
    per_gate_checkpoint(tmp_path / "old.daec", config,
                        ["<bos>", "<eos>", "<unk>", "red", "dog"])
    expect_error(capsys, ["caption", "--features", "feats.daef", "--attrs",
                          "attrs.jsonl", "--model", "old.daec",
                          "--out", "d.jsonl"], 2, "data")
    assert not (tmp_path / "d.jsonl").exists()


def test_numeric_failures_exit_with_three(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    features = Rng(50).normal((4, 6))
    features[1, 2] = np.nan
    storage.write_features(tmp_path / "feats.daef", [1, 2, 3, 4], features)
    storage.write_attributes(tmp_path / "attrs.jsonl", [1, 2, 3, 4],
                             np.full((4, 3), 0.5))
    expect_error(capsys, ["train-attr", "--features", "feats.daef",
                          "--attrs", "attrs.jsonl", "--out-model", "m.daec",
                          "--hidden", "4", "--epochs", "2", "--batch-size",
                          "4", "--ensemble", "1"], 3, "numeric")


def test_diverging_run_prints_one_error_line_and_no_warning(tmp_path, monkeypatch):
    # The forward pass overflows and makes NaNs, which an explicit check
    # reports; NumPy's own warnings about them are silenced. Run in a
    # separate process, as pytest would capture the warnings in-process.
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    assert main(PIPELINE[0]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(attrcap.__file__).resolve().parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "attrcap.cli", "train-attr", "--features", "feats.daef",
         "--attrs", "gt.jsonl", "--out-model", "diverged.daec", "--hidden", "16",
         "--epochs", "40", "--batch-size", "2", "--learning-rate", "1e300",
         "--ensemble", "2", "--seed", "5"],
        capture_output=True, text=True, env=env, check=False)
    assert run.returncode == 3
    lines = run.stderr.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("error: numeric: non-finite gradient for ")
    assert not list(tmp_path.glob("diverged.daec*"))


# ---------------------------------------------------------------------------
# Ensemble training writes each member as it finishes
# ---------------------------------------------------------------------------


def member_sets(argv, model):
    """Peak ``tracemalloc`` bytes of one successful CLI run, in sets of
    member 0's tensors as the run saved them in ``model``."""
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    tensors, _ = storage.load_checkpoint(model)
    return peak / sum(value.nbytes for name, value in tensors.items()
                      if name.startswith("member0."))


def test_train_attr_holds_one_member_at_a_time(tmp_path, monkeypatch, capsys):
    # The one-member budget of training: parameters and two Adam moments,
    # plus the gradients of one layer (a quarter of a set here, where the
    # four weight matrices are alike) and a quarter set of slack. Each
    # finished member is written and dropped before the next trains, so
    # three members fit it too; keeping them until the end costs a set
    # per finished member.
    monkeypatch.chdir(tmp_path)
    rng = Rng(47)
    storage.write_features("feats.daef", list(range(24)), rng.normal((24, 512)))
    storage.write_attributes("attrs.jsonl", list(range(24)),
                             np.abs(rng.normal((24, 512))))
    capsys.readouterr()
    sets = member_sets(["train-attr", "--features", "feats.daef", "--attrs",
                        "attrs.jsonl", "--out-model", "attr.daec", "--hidden", "512",
                        "--epochs", "1", "--batch-size", "8", "--ensemble", "3"],
                       "attr.daec")
    assert 3.25 <= sets < 3.5
    assert len(storage.load_ensemble("attr.daec", attrnet.AttrNet)[0]) == 3


def test_train_captioner_holds_one_member_at_a_time(tmp_path, monkeypatch, capsys):
    # The budget is a whole set of gradients, as global-norm clipping
    # needs them all before any update, plus half a set of slack. Wide
    # features and attribute vectors make Cv, Wb and Ub, whose gradients
    # are single products, dominate the parameters.
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    storage.write_features("feats.daef", [1, 2, 3, 4], Rng(50).normal((4, 4096)))
    storage.write_attributes("attrs.jsonl", [1, 2, 3, 4],
                             np.abs(Rng(48).normal((4, 2048))))
    sets = member_sets(["train-captioner", "--captions", "captions.json",
                        "--features", "feats.daef", "--attrs", "attrs.jsonl",
                        "--out-model", "cap.daec", "--min-count", "1",
                        "--embed-dim", "32", "--hidden", "64", "--factor", "64",
                        "--epochs", "1", "--batch-size", "4", "--ensemble", "3"],
                       "cap.daec")
    assert 4 <= sets < 4.5
    assert len(scnlstm.load_captioner_ensemble("cap.daec")[0]) == 3


def fail_at_second_call(module, name, monkeypatch):
    """Make ``module.name`` raise a NumericError on its second call."""
    function, calls = getattr(module, name), []

    def second_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise NumericError("member 1 diverged")
        return function(*args, **kwargs)

    monkeypatch.setattr(module, name, second_fails)


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("family", ["train-attr", "train-captioner"])
def test_a_failing_member_leaves_no_checkpoint_and_no_temporary(
        tmp_path, monkeypatch, capsys, family, existing):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    storage.write_attributes("attrs.jsonl", [1, 2, 3, 4], np.full((4, 3), 0.5))
    if existing:
        (tmp_path / "out.daec").write_bytes(b"an earlier checkpoint")
    before = sorted(tmp_path.iterdir())
    common = ["--features", "feats.daef", "--attrs", "attrs.jsonl",
              "--out-model", "out.daec", "--epochs", "1", "--batch-size", "2",
              "--ensemble", "3"]
    if family == "train-attr":
        fail_at_second_call(attrnet, "train_attrnet", monkeypatch)
        argv = ["train-attr", *common, "--hidden", "4"]
    else:
        fail_at_second_call(scnlstm, "train_captioner", monkeypatch)
        argv = ["train-captioner", *common, "--captions", "captions.json",
                "--min-count", "1", "--embed-dim", "4", "--hidden", "4",
                "--factor", "4"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.splitlines() == ["error: numeric: member 1 diverged"]
    # Member 0 finished and reported before member 1 failed.
    assert captured.out.startswith("member 0: final training ")
    assert sorted(tmp_path.iterdir()) == before
    if existing:
        assert (tmp_path / "out.daec").read_bytes() == b"an earlier checkpoint"
