"""Artifact format tests: binary round trips, corruption detection, JSON."""

import json
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attrcap import storage
from attrcap.nncore import _CHUNK, Rng
from attrcap.semantics import Vocabulary
from attrcap.storage import (
    FEATURE_MAGIC,
    CheckpointWriter,
    FormatError,
    ensemble_writer,
    load_attributes,
    load_checkpoint,
    load_vocabulary,
    read_features,
    read_jsonl,
    save_checkpoint,
    save_vocabulary,
    write_attributes,
    write_features,
    write_json,
    write_jsonl,
)

# ---------------------------------------------------------------------------
# feature files
# ---------------------------------------------------------------------------


def test_features_round_trip(tmp_path):
    path = tmp_path / "f.bin"
    ids = [3, 1, 99]
    features = Rng(1).normal((3, 8)).astype(np.float32)
    write_features(path, ids, features)
    got_ids, got = read_features(path)
    assert got_ids == ids
    # The rows come back as stored, read-only.
    assert got.dtype == np.float32 and not got.flags.writeable
    assert np.array_equal(got, features)


def test_features_empty_file_round_trip(tmp_path):
    path = tmp_path / "f.bin"
    write_features(path, [], np.zeros((0, 5)))
    ids, features = read_features(path)
    assert ids == [] and features.shape == (0, 5)


def read_features_per_record(path):
    """Record-at-a-time decoding of a checked DAEF file: the loop that
    the structured-dtype view replaced."""
    payload = path.read_bytes()
    dim = int(np.frombuffer(payload, "<u4", count=1, offset=8)[0])
    count = int(np.frombuffer(payload, "<u8", count=1, offset=12)[0])
    record = 8 + 4 * dim
    ids, features = [], np.empty((count, dim), dtype=np.float32)
    for i in range(count):
        start = 20 + i * record
        ids.append(int(np.frombuffer(payload, "<u8", count=1, offset=start)[0]))
        features[i] = np.frombuffer(payload, "<f4", count=dim, offset=start + 8)
    return ids, features


def test_features_match_the_per_record_reader(tmp_path):
    ids = [2**64 - 1, 0, 17, 2**40 + 3, 5]
    cases = {"multi.daef": (ids, Rng(3).normal((5, 7)) * 1e3),
             "empty.daef": ([], np.zeros((0, 7)))}
    for name, (case_ids, features) in cases.items():
        write_features(tmp_path / name, case_ids, features)
        got_ids, got = read_features(tmp_path / name)
        ref_ids, ref = read_features_per_record(tmp_path / name)
        assert got_ids == ref_ids == case_ids
        assert all(type(image_id) is int for image_id in got_ids)
        # Rows of the records' view: one record, an id and 7 values, apart.
        assert got.dtype == np.float32 and got.strides == (8 + 4 * 7, 4)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_features_layout_is_little_endian(tmp_path):
    path = tmp_path / "f.bin"
    write_features(path, [7], np.array([[1.0, 2.0]]))
    raw = path.read_bytes()
    assert raw[:4] == FEATURE_MAGIC
    assert raw[4:8] == (1).to_bytes(4, "little")      # version
    assert raw[8:12] == (2).to_bytes(4, "little")     # dim
    assert raw[12:20] == (1).to_bytes(8, "little")    # count
    assert raw[20:28] == (7).to_bytes(8, "little")    # image id
    assert np.frombuffer(raw[28:36], "<f4").tolist() == [1.0, 2.0]


@pytest.mark.parametrize("image_id", [-1, 2**64])
def test_features_reject_ids_outside_u64(tmp_path, image_id):
    with pytest.raises(OverflowError):
        write_features(tmp_path / "f.bin", [1, image_id], np.zeros((2, 3)))
    assert not (tmp_path / "f.bin").exists()


def test_features_bad_magic(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError, match="bad magic"):
        read_features(path)


def test_features_truncation_detected(tmp_path):
    path = tmp_path / "f.bin"
    write_features(path, [1, 2], Rng(2).normal((2, 4)))
    raw = path.read_bytes()
    for cut in [2, 6, 10, 18, len(raw) - 3]:
        path.write_bytes(raw[:cut])
        with pytest.raises(FormatError):
            read_features(path)


def test_features_trailing_bytes_detected(tmp_path):
    path = tmp_path / "f.bin"
    write_features(path, [1], Rng(2).normal((1, 4)))
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(FormatError, match="record bytes"):
        read_features(path)


def test_features_missing_file():
    with pytest.raises(FormatError, match="cannot read"):
        read_features("/nonexistent/features.bin")


def test_features_id_row_mismatch(tmp_path):
    with pytest.raises(FormatError, match="one image_id per feature row"):
        write_features(tmp_path / "f.bin", [1, 2], np.zeros((3, 4)))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_bitwise(tmp_path):
    path = tmp_path / "model.ckpt"
    rng = Rng(3)
    tensors = {
        "w": rng.normal((4, 5)),
        "b": rng.normal((5,)),
        "scalarish": rng.normal((1,)),
    }
    config = {"kind": "test", "net": {"hidden": 5}}
    save_checkpoint(path, tensors, config)
    loaded, got_config = load_checkpoint(path)
    assert got_config == config
    assert set(loaded) == set(tensors)
    for name in tensors:
        assert loaded[name].dtype == np.float64
        assert np.array_equal(loaded[name], tensors[name])


def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    tensors = {"w": Rng(4).normal((3, 3))}
    save_checkpoint(a, tensors, {"k": 1})
    loaded, config = load_checkpoint(a)
    save_checkpoint(b, loaded, config)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_zero_size_and_0d_tensors_round_trip(tmp_path):
    path = tmp_path / "model.ckpt"
    tensors = {"empty": np.zeros((0, 3)), "inner_empty": np.zeros((2, 0, 4)),
               "scalar": np.array(2.5), "w": Rng(6).normal((3, 4))}
    save_checkpoint(path, tensors, {})
    loaded, _ = load_checkpoint(path)
    for name, tensor in tensors.items():
        assert loaded[name].shape == tensor.shape
        assert loaded[name].tobytes() == tensor.tobytes()


def test_checkpoint_tensors_are_writable_arrays_owning_their_memory(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": Rng(7).normal((3, 4)), "b": np.zeros(0),
                           "s": np.array(1.0)}, {})
    loaded, _ = load_checkpoint(path)
    for tensor in loaded.values():
        assert tensor.dtype == np.float64 and tensor.dtype.isnative
        assert tensor.flags.writeable and tensor.flags.c_contiguous
        assert tensor.flags.owndata


def test_checkpoint_short_read_mid_tensor_detected(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"b": np.ones(2), "w": Rng(5).normal((8, 8))}, {})
    # The file shrinks after its size was taken, so a read comes up short
    # in the middle of ``w``.
    stat = os.stat(path)
    monkeypatch.setattr(storage, "os", SimpleNamespace(fstat=lambda fd: stat))
    path.write_bytes(path.read_bytes()[:-100])
    with pytest.raises(FormatError, match="truncated while reading tensor 'w'"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_non_finite_value_names_its_tensor(tmp_path, bad):
    # One bad value past the first read slice of a tensor.
    path = tmp_path / "model.ckpt"
    w = Rng(5).normal((3, _CHUNK))
    w[2, 7] = bad
    save_checkpoint(path, {"b": np.ones(2), "w": w}, {})
    with pytest.raises(FormatError, match=f"{path}: non-finite value in tensor 'w'"):
        load_checkpoint(path)


def assorted_tensors():
    """More tensors than workers, of every size: several read slices,
    one slice, empty, 0-d and a partial last slice."""
    rng = Rng(8)
    return {"big": rng.normal((3, _CHUNK + 5)),
            "scalar": np.array(-2.5), "empty": np.zeros((0, 4)),
            "w": rng.normal((7, 9)), "slice": rng.normal((_CHUNK,)),
            "b": rng.normal((5,))}


@pytest.mark.parametrize("workers", [2, 3, 8])
def test_checkpoint_tensors_are_bitwise_the_same_for_any_worker_count(
        tmp_path, pool_of, workers):
    path = tmp_path / "model.ckpt"
    tensors = assorted_tensors()
    save_checkpoint(path, tensors, {"k": 1})
    loads = []
    interval = sys.getswitchinterval()
    for n in (1, workers):
        pool_of(n)
        # More workers than cores, switching threads as often as possible.
        sys.setswitchinterval(1e-6)
        try:
            loaded, config = load_checkpoint(path)
        finally:
            sys.setswitchinterval(interval)
        assert config == {"k": 1}
        assert list(loaded) == list(tensors)  # header order
        for tensor in loaded.values():
            assert tensor.dtype == np.float64 and tensor.flags.owndata
            assert tensor.flags.writeable and tensor.flags.c_contiguous
        loads.append([(name, t.shape, t.tobytes()) for name, t in loaded.items()])
    assert loads[0] == loads[1]
    assert loads[0] == [(name, t.shape, t.tobytes()) for name, t in tensors.items()]


@pytest.mark.parametrize("first_bad, later_bad", [("big", "w"), ("scalar", "slice")])
def test_checkpoint_names_the_earlier_bad_tensor_whichever_worker_reads_it(
        tmp_path, pool_of, first_bad, later_bad):
    # Two workers deal the six tensors round-robin: "big", "empty" and
    # "slice" go to worker 0, "scalar", "w" and "b" to worker 1, so each
    # pair of bad tensors is read by different workers. The bad value in
    # "big" is in its last read slice, so worker 1 may well find "w"
    # first.
    pool_of(2)
    path = tmp_path / "model.ckpt"
    tensors = assorted_tensors()
    for name in (first_bad, later_bad):
        tensors[name].reshape(-1)[-1] = np.nan if name == later_bad else np.inf
    save_checkpoint(path, tensors, {})
    for _ in range(5):
        with pytest.raises(FormatError, match=f"non-finite value in tensor '{first_bad}'"):
            load_checkpoint(path)


@pytest.mark.parametrize("bad_slice", [True, False])
def test_checkpoint_short_read_is_reported_after_an_earlier_bad_tensor(
        tmp_path, pool_of, monkeypatch, bad_slice):
    pool_of(2)
    path = tmp_path / "model.ckpt"
    tensors = assorted_tensors()
    if bad_slice:
        tensors["slice"][0] = np.nan
    save_checkpoint(path, tensors, {})
    # The file shrinks after its size was taken, so "b", the last tensor
    # (worker 1's), comes up short; "slice" (worker 0's) comes before it.
    stat = os.stat(path)
    monkeypatch.setattr(storage, "os", SimpleNamespace(fstat=lambda fd: stat))
    path.write_bytes(path.read_bytes()[:-16])
    message = "non-finite value in tensor 'slice'" if bad_slice else (
        "truncated while reading tensor 'b'")
    with pytest.raises(FormatError, match=message):
        load_checkpoint(path)


def two_members(m):
    """Member ``m`` of a two-tensor ensemble."""
    return {"w": Rng(m).normal((3, 4)), "b": Rng(10 + m).normal((4,))}


def test_ensemble_writer_is_one_checkpoint_of_prefixed_tensors(tmp_path):
    # Members streamed one by one give the bytes of one checkpoint of
    # every member's tensors, named member{m}.<name>.
    streamed, flat = tmp_path / "streamed.daec", tmp_path / "flat.daec"
    with ensemble_writer(streamed, "toy", 3, {"net": {"w": 4}}, meta={"seed": 1}) as writer:
        for m in range(3):
            writer.add(two_members(m))
    save_checkpoint(flat, {f"member{m}.{name}": value for m in range(3)
                           for name, value in two_members(m).items()},
                    {"net": {"w": 4}, "kind": "toy_ensemble", "n_members": 3,
                     "meta": {"seed": 1}})
    assert streamed.read_bytes() == flat.read_bytes()
    assert sorted(tmp_path.iterdir()) == [flat, streamed]


@pytest.mark.parametrize("second", [
    {"w": np.zeros((3, 5)), "b": np.zeros(4)},
    {"b": np.zeros(4), "w": np.zeros((3, 4))},
    {"w": np.zeros((3, 4)), "c": np.zeros(4)},
    {"w": np.zeros((3, 4))},
])
def test_checkpoint_writer_rejects_a_member_unlike_member_0(tmp_path, second):
    path = tmp_path / "model.daec"
    path.write_bytes(b"an earlier checkpoint")
    with pytest.raises(FormatError, match="member 1 differs from member 0"):
        with ensemble_writer(path, "toy", 2, {}) as writer:
            writer.add(two_members(0))
            writer.add(second)
    assert path.read_bytes() == b"an earlier checkpoint"
    assert sorted(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("added", [0, 1, 3])
def test_checkpoint_writer_needs_exactly_its_member_count(tmp_path, added):
    path = tmp_path / "model.daec"
    with pytest.raises(FormatError, match="members"):
        with CheckpointWriter(path, {}, 2, "member{m}.{name}") as writer:
            for m in range(added):
                writer.add(two_members(m))
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_writer_failure_leaves_the_old_file(tmp_path):
    path = tmp_path / "model.daec"
    save_checkpoint(path, two_members(0), {})
    before = path.read_bytes()
    with pytest.raises(KeyboardInterrupt):
        with CheckpointWriter(path, {}) as writer:
            writer.add(two_members(1))
            raise KeyboardInterrupt
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
    # An unwritable directory fails before any member is trained.
    with pytest.raises(FormatError, match="cannot write checkpoint"):
        with CheckpointWriter(tmp_path / "missing" / "model.daec", {}):
            pass


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(FormatError, match="bad magic"):
        load_checkpoint(path)


def test_checkpoint_truncation_detected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": Rng(5).normal((8, 8))}, {})
    raw = path.read_bytes()
    for cut in [3, 7, 12, 40, len(raw) - 5]:
        path.write_bytes(raw[:cut])
        with pytest.raises(FormatError):
            load_checkpoint(path)


def test_checkpoint_trailing_bytes_detected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": Rng(5).normal((2, 2))}, {})
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        load_checkpoint(path)


def test_checkpoint_corrupt_header_detected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.zeros((2, 2))}, {})
    raw = bytearray(path.read_bytes())
    raw[16] = ord("!")  # first header byte: breaks the JSON
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="header"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", [
    lambda h: h["tensors"][0].pop("shape"),
    lambda h: h["tensors"][0].pop("name"),
    lambda h: h["tensors"][0].update(shape=[2, -2]),
    lambda h: h["tensors"][0].update(shape=[2, 2.0]),
    lambda h: h["tensors"][0].update(shape=[True, 2]),
    lambda h: h["tensors"][0].update(name=7),
    lambda h: h["tensors"].__setitem__(0, "w"),
    lambda h: h["tensors"].append(dict(h["tensors"][0])),
    lambda h: h.update(config=[]),
    lambda h: h.update(tensors={}),
])
def test_checkpoint_header_schema_violations(tmp_path, edit):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.zeros((2, 2))}, {})
    raw = path.read_bytes()
    length = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:16 + length])
    edit(header)
    body = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:8] + len(body).to_bytes(8, "little") + body
                     + raw[16 + length:])
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_header_length_beyond_file(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.zeros((2, 2))}, {})
    raw = bytearray(path.read_bytes())
    raw[8:16] = (2 ** 62).to_bytes(8, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# JSON / JSONL
# ---------------------------------------------------------------------------


def test_write_json_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    payload = {"zeta": 1, "alpha": [1.5, 2.25], "nested": {"y": 1, "x": 2}}
    write_json(a, payload)
    write_json(b, json.loads(a.read_text()))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")


def test_jsonl_round_trip_with_meta(tmp_path):
    path = tmp_path / "rows.jsonl"
    records = [{"id": 1, "v": [1, 2]}, {"id": 2, "v": []}]
    write_jsonl(path, records, meta={"command": "test", "seed": 7})
    got, meta = read_jsonl(path)
    assert got == records
    assert meta == {"command": "test", "seed": 7}
    assert path.read_text().splitlines()[0].startswith('{"_meta"')


def test_jsonl_without_meta(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [{"id": 1}])
    got, meta = read_jsonl(path)
    assert got == [{"id": 1}] and meta == {}


def test_jsonl_meta_must_be_an_object(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"_meta": [1]}\n{"ok": 1}\n')
    with pytest.raises(FormatError, match="_meta"):
        read_jsonl(path)


def test_jsonl_invalid_line_reports_position(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"ok": 1}\nnot json\n')
    with pytest.raises(FormatError, match=":2"):
        read_jsonl(path)


# ---------------------------------------------------------------------------
# attribute files
# ---------------------------------------------------------------------------


def test_attributes_round_trip_exact(tmp_path):
    path = tmp_path / "attrs.jsonl"
    matrix = np.array([
        [0.0, 0.5, 0.0, 0.8660254037844386],
        [0.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
    ])
    write_attributes(path, [10, 20, 30], matrix, meta={"seed": 1})
    ids, got, meta = load_attributes(path)
    assert ids == [10, 20, 30]
    assert np.array_equal(got, matrix)  # repr round trip is exact
    assert meta["n_words"] == 4
    assert meta["seed"] == 1


def test_attributes_records_are_sparse_ascending(tmp_path):
    path = tmp_path / "attrs.jsonl"
    write_attributes(path, [5], np.array([[0.0, 0.25, 0.0, 0.125]]))
    record = json.loads(path.read_text().splitlines()[1])
    assert record == {"image_id": 5, "attrs": [[1, 0.25], [3, 0.125]]}


ATTRIBUTE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e308,
                     -1e308, 1.0, -0.1, 2.0 ** -1074, 1e16, 1e-7]),
    st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**63 - 1),
                          st.lists(ATTRIBUTE_VALUES, min_size=5, max_size=5)),
                max_size=6))
def test_attribute_lines_are_json_dumps_of_each_record(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("attrs") / "attrs.jsonl"
    ids = [image_id for image_id, _ in rows]
    matrix = np.array([values for _, values in rows]).reshape(len(rows), 5)
    write_attributes(path, ids, matrix, meta={"seed": 3})
    # The per-pair records that the writer used to pass to json.dumps.
    want = [json.dumps({"_meta": {"seed": 3, "n_words": 5}}, sort_keys=True)] + [
        json.dumps({"image_id": image_id, "attrs": [
            [index, value] for index, value in enumerate(row.tolist()) if value != 0.0]},
            sort_keys=True)
        for image_id, row in zip(ids, matrix)]
    assert path.read_text(encoding="utf-8").split("\n") == want + [""]


def test_attributes_zero_row_keeps_width(tmp_path):
    path = tmp_path / "attrs.jsonl"
    write_attributes(path, [1, 2], np.array([[0.0, 0.0], [0.0, 0.0]]))
    ids, matrix, meta = load_attributes(path)
    assert matrix.shape == (2, 2)
    assert not matrix.any()


def test_attributes_index_out_of_range(tmp_path):
    path = tmp_path / "attrs.jsonl"
    path.write_text(
        '{"_meta": {"n_words": 2}}\n'
        '{"image_id": 1, "attrs": [[5, 0.5]]}\n'
    )
    with pytest.raises(FormatError, match="out of range"):
        load_attributes(path)


@pytest.mark.parametrize("attrs", ["[[1, 0.5], [1, 0.25]]", "[[1, NaN]]",
                                   "[[0, Infinity]]"])
def test_attributes_repeated_index_or_non_finite_value(tmp_path, attrs):
    path = tmp_path / "attrs.jsonl"
    path.write_text(
        '{"_meta": {"n_words": 2}}\n'
        '{"image_id": 1, "attrs": ' + attrs + '}\n'
    )
    with pytest.raises(FormatError, match="repeated or its value"):
        load_attributes(path)


@pytest.mark.parametrize("records, message", [
    (['[[0, 0.5], [5, 0.25]]', '[[1, NaN]]'], "index 5 out of range"),
    (['[[0, 0.5], [1, NaN], [5, 0.25]]', '[[9, 1]]'], "image 0: attribute index 1 repeated"),
    (['[[1, 0.5]]', '[[0, 0.5], [1, 0.5], [0, 0.25], [7, 0.5]]'],
     "image 1: attribute index 0 repeated"),
    (['[[1, 0.5], [0, 0.5]]', '[[2, 0.5], [-1, 0.5]]', '[[0, 0.5], [0, 0.5]]'],
     "index -1 out of range"),
    # Each record is checked as it is read: a malformed record or an
    # invalid line after a bad pair does not hide the pair.
    (['[[0, 0.5], [5, 0.25]]', '5'], "index 5 out of range"),
    (['[[0, 0.5], [0, 0.5]]', '[[1, 0.5, 1]]'], "image 0: attribute index 0 repeated"),
    (['[[5, 0.5]]', '[[0, 0.5]] oops'], "index 5 out of range"),
    (['[[1, 0.5, 1]]'], "attribute record 0: needs an int image_id"),
])
def test_attributes_first_bad_pair_in_file_order_is_reported(tmp_path, records, message):
    path = tmp_path / "attrs.jsonl"
    path.write_text('{"_meta": {"n_words": 3}}\n' + "".join(
        f'{{"image_id": {row}, "attrs": {attrs}}}\n' for row, attrs in enumerate(records)))
    with pytest.raises(FormatError, match=message):
        load_attributes(path)


@pytest.mark.parametrize("record", ['{"image_id": 1, "attrs": 5}',
                                    '{"image_id": 1, "attrs": [[1, null]]}',
                                    '{"image_id": [1], "attrs": []}'])
def test_attributes_malformed_record(tmp_path, record):
    path = tmp_path / "attrs.jsonl"
    path.write_text('{"_meta": {"n_words": 2}}\n' + record + "\n")
    with pytest.raises(FormatError, match="attribute record 0"):
        load_attributes(path)


def test_attributes_meta_is_checked_before_any_record(tmp_path):
    path = tmp_path / "attrs.jsonl"
    path.write_text('{"_meta": {"n_words": "3"}}\n{"image_id": 1, "attrs": 5}\n')
    with pytest.raises(FormatError, match="n_words '3' is not a non-negative int"):
        load_attributes(path)


def test_attributes_missing_image_id(tmp_path):
    path = tmp_path / "attrs.jsonl"
    path.write_text('{"attrs": [[0, 0.5]]}\n')
    with pytest.raises(FormatError, match="image_id"):
        load_attributes(path)


def test_attributes_width_inferred_without_meta(tmp_path):
    path = tmp_path / "attrs.jsonl"
    path.write_text('{"image_id": 1, "attrs": [[3, 0.5]]}\n')
    ids, matrix, _ = load_attributes(path)
    assert matrix.shape == (1, 4)
    assert matrix[0, 3] == 0.5


# ---------------------------------------------------------------------------
# vocabulary files
# ---------------------------------------------------------------------------


def test_vocabulary_round_trip(tmp_path):
    path = tmp_path / "vocab.json"
    vocab = Vocabulary(
        threshold=1.4, stemmed=True,
        words=["cat", "dog"], idf=[1.1249387366083, 1.1249387366083],
    )
    save_vocabulary(path, vocab, meta={"command": "x", "seed": 0})
    loaded = load_vocabulary(path)
    assert loaded.words == vocab.words
    assert loaded.idf == vocab.idf
    assert loaded.threshold == vocab.threshold
    assert loaded.stemmed is True
    assert loaded.index == {"cat": 0, "dog": 1}


def test_vocabulary_missing_field(tmp_path):
    path = tmp_path / "vocab.json"
    write_json(path, {"stemmed": False, "threshold": 1.0, "words": []})
    with pytest.raises(FormatError, match="idf"):
        load_vocabulary(path)


def test_vocabulary_length_mismatch(tmp_path):
    path = tmp_path / "vocab.json"
    write_json(path, {
        "stemmed": False, "threshold": 1.0,
        "words": ["a", "b"], "idf": [1.0],
    })
    with pytest.raises(FormatError, match="differ in length"):
        load_vocabulary(path)


VOCABULARY = {"stemmed": False, "threshold": 1.0, "words": ["a", "b"], "idf": [0.5, 0.75]}


@pytest.mark.parametrize("payload, match", [
    (5, "not an object"),
    (dict(VOCABULARY, words=5), "list of strings"),
    (dict(VOCABULARY, words=["a", 7]), "list of strings"),
    (dict(VOCABULARY, idf=5), "finite numbers"),
    (dict(VOCABULARY, idf=[0.5, "x"]), "finite numbers"),
    (dict(VOCABULARY, idf=[0.5, float("nan")]), "finite numbers"),
    (dict(VOCABULARY, idf=[0.5, 10 ** 400]), "finite numbers"),
    (dict(VOCABULARY, idf=[0.5, True]), "finite numbers"),
    (dict(VOCABULARY, threshold="1"), "threshold"),
    (dict(VOCABULARY, stemmed=1), "stemmed"),
])
def test_vocabulary_values_of_the_wrong_type_are_format_errors(tmp_path, payload, match):
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(FormatError, match=match):
        load_vocabulary(path)


def test_vocabulary_invalid_json(tmp_path):
    path = tmp_path / "vocab.json"
    path.write_text("{broken")
    with pytest.raises(FormatError, match="invalid"):
        load_vocabulary(path)


@pytest.mark.parametrize("reader", [load_attributes, read_jsonl, load_vocabulary])
def test_an_undecodable_text_file_is_a_format_error_naming_it(tmp_path, reader):
    # A binary file where text is due: once a bare UnicodeDecodeError
    # that named no file.
    path = tmp_path / "feats.daef"
    write_features(path, [1, 2], Rng(3).normal((2, 4)))
    with pytest.raises(FormatError, match="cannot read .*'utf-8' codec can't decode") as info:
        reader(path)
    assert str(path) in str(info.value)
