"""Artifact file formats: features, checkpoints, attributes, vocabularies.

Two binary formats, both little-endian with a four-byte magic and a
version word so damaged or foreign files fail fast:

* feature files (magic ``DAEF``): u32 version, u32 dim, u64 count, then
  ``count`` records of (u64 image_id, ``dim`` float32 values), read as stored;
* checkpoint files (magic ``DAEC``): u32 version, u64 header length,
  a UTF-8 JSON header listing tensor names/shapes plus a config echo,
  then the tensors as float64 in header order. Checkpoints round-trip
  bit for bit, and only finite values load; the tensors load on the
  :func:`attrcap.nncore.worker_pool`, dealt round-robin to its workers,
  each reading through its own file handle. Models are stored as
  ensembles of K >= 1 members (:func:`ensemble_writer`,
  :func:`load_ensemble`). One writer, :class:`CheckpointWriter`, writes
  every checkpoint member by member, so a trained member can go to disk
  and be dropped before the next one trains; the file appears at its
  path, replacing any old one, only once it is complete.

Text artifacts are JSON or JSON Lines. Every file written by the CLI
embeds the producing command line and seed, either as a ``meta`` object
(JSON) or as a first-line ``_meta`` record (JSON Lines). Floats are
serialized with Python's shortest round-trip ``repr``, which preserves
the exact binary value (at least 9 significant digits survive).
Attribute lines are assembled from one ``json.dumps`` of each row's
values, byte for byte what ``json.dumps`` of the whole record gives.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import math
import os

import numpy as np

from .nncore import _CHUNK, NumericError, batch_slices, worker_pool
from .semantics import Vocabulary

__all__ = [
    "CheckpointWriter",
    "FormatError",
    "ensemble_writer",
    "load_attributes",
    "load_checkpoint",
    "load_ensemble",
    "load_vocabulary",
    "read_features",
    "read_jsonl",
    "save_checkpoint",
    "save_vocabulary",
    "write_attributes",
    "write_features",
    "write_json",
    "write_jsonl",
]

FEATURE_MAGIC = b"DAEF"
CHECKPOINT_MAGIC = b"DAEC"
FORMAT_VERSION = 1


class FormatError(ValueError):
    """Raised when an artifact file is malformed or truncated."""


@contextlib.contextmanager
def _reading(path, what, mode="rb", error=FormatError):
    """Input file ``path`` open in binary, or for ``mode="r"`` UTF-8 text;
    a failure to open, read or decode it is an ``error`` that names
    ``what`` and the path."""
    try:
        with open(path, mode, encoding=None if "b" in mode else "utf-8") as handle:
            yield handle
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def _read_exact(handle, count, path, what):
    data = handle.read(count)
    if len(data) != count:
        raise FormatError(f"{path}: truncated while reading {what}")
    return data


def _check_magic(handle, path, magic, kind):
    """Read and check the four-byte ``magic`` and the version word of a
    ``kind`` file."""
    found = _read_exact(handle, 4, path, "magic")
    if found != magic:
        raise FormatError(f"{path}: bad magic {found!r}, expected {magic!r}")
    version = int(np.frombuffer(_read_exact(handle, 4, path, "version"), "<u4")[0])
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported {kind} version {version}")


# --------------------------------------------------------------------------
# Feature files
# --------------------------------------------------------------------------


def _feature_record(dim):
    """One DAEF record: a u64 image id, then ``dim`` float32 values."""
    return np.dtype([("id", "<u8"), ("x", "<f4", (dim,))])


def write_features(path, image_ids, features):
    """Write per-image feature vectors as a DAEF file.

    ``features`` is an (N, dim) array; values are stored as float32.
    """
    features = np.asarray(features)
    if features.ndim != 2 or len(image_ids) != features.shape[0]:
        raise FormatError(
            f"need one image_id per feature row, got {len(image_ids)} ids "
            f"for array of shape {features.shape}"
        )
    count, dim = features.shape
    records = np.empty(count, _feature_record(dim))
    # Python ints, so an id outside [0, 2**64) raises OverflowError.
    records["id"] = np.array([int(image_id) for image_id in image_ids], "<u8")
    records["x"] = features
    with open(path, "wb") as handle:
        handle.write(FEATURE_MAGIC)
        handle.write(np.array([FORMAT_VERSION, dim], "<u4").tobytes())
        handle.write(np.array(count, "<u8").tobytes())
        handle.write(records.tobytes())


def read_features(path):
    """Read a DAEF file; returns ``(image_ids, features)``, the features
    as stored: read-only float32 rows, a strided view of the records,
    which each model widens a batch or block at a time. A NaN or infinite
    value is a :class:`NumericError` naming the first image that holds one.
    """
    with _reading(path, "feature file") as handle:
        _check_magic(handle, path, FEATURE_MAGIC, "feature")
        dim = int(np.frombuffer(_read_exact(handle, 4, path, "dim"), "<u4")[0])
        count = int(np.frombuffer(_read_exact(handle, 8, path, "count"), "<u8")[0])
        record = 8 + 4 * dim
        size = os.fstat(handle.fileno()).st_size - handle.tell()
        if size != record * count:
            raise FormatError(f"{path}: expected {record * count} record bytes, got {size}")
        payload = handle.read(size)
    records = np.frombuffer(payload, _feature_record(dim), count=count)
    finite = np.isfinite(records["x"]).all(axis=1)
    if not finite.all():
        raise NumericError(f"{path}: non-finite feature value for image "
                           f"{int(records['id'][np.argmin(finite)])}")
    return records["id"].tolist(), records["x"]


# --------------------------------------------------------------------------
# Checkpoints
# --------------------------------------------------------------------------


class CheckpointWriter:
    """A DAEC checkpoint written one member's tensors at a time.

    ``n_members`` dicts of named tensors go in through :meth:`add`, each
    with the names and shapes of the first, in the same order; member
    ``m``'s tensor ``name`` is stored as ``label.format(m=m, name=name)``.
    The header lists member 0's layout for every member and is written
    when member 0 arrives; each member goes to the file as it is added,
    and the writer keeps none of its tensors.

    Use it as a context manager. The file is written to a temporary
    next to ``path`` and moved onto ``path`` only after the last member;
    on any failure, a wrong member count included, the temporary is
    removed and a file already at ``path`` is left as it was.
    """

    def __init__(self, path, config, n_members=1, label="{name}"):
        self.path, self.config, self.n_members, self.label = path, config, n_members, label
        self.count = 0
        self._layout = None
        self._temporary = f"{path}.{os.getpid()}.tmp"
        self._handle = None

    def __enter__(self):
        try:
            self._handle = open(self._temporary, "xb")
        except OSError as exc:
            raise FormatError(f"cannot write checkpoint {self.path}: "
                              f"{exc.strerror}") from exc
        return self

    def add(self, tensors):
        """Append the next member's tensors (as float64)."""
        layout = [(name, np.shape(value)) for name, value in tensors.items()]
        if self._layout is None:
            self._layout = layout
            header_bytes = json.dumps({"config": self.config, "tensors": [
                {"name": self.label.format(m=m, name=name), "shape": list(shape)}
                for m in range(self.n_members) for name, shape in layout]},
                sort_keys=True).encode("utf-8")
            self._handle.write(CHECKPOINT_MAGIC)
            self._handle.write(np.array(FORMAT_VERSION, "<u4").tobytes())
            self._handle.write(np.array(len(header_bytes), "<u8").tobytes())
            self._handle.write(header_bytes)
        elif layout != self._layout:
            raise FormatError(f"{self.path}: member {self.count} differs from member 0 "
                              "in its tensor names or shapes")
        if self.count == self.n_members:
            raise FormatError(f"{self.path}: more than {self.n_members} members")
        for value in tensors.values():
            self._handle.write(np.ascontiguousarray(value, dtype="<f8"))
        self.count += 1

    def __exit__(self, exc_type, exc, traceback):
        replaced = False
        try:
            self._handle.close()
            if exc_type is None:
                if not 0 < self.count == self.n_members:
                    raise FormatError(f"{self.path}: {self.count} of "
                                      f"{self.n_members} members written")
                os.replace(self._temporary, self.path)
                replaced = True
        finally:
            if not replaced:
                os.unlink(self._temporary)


def save_checkpoint(path, tensors, config):
    """Write named float64 tensors plus a JSON-serializable config echo."""
    with CheckpointWriter(path, config) as writer:
        writer.add(tensors)


def load_checkpoint(path):
    """Read a DAEC checkpoint; returns ``(tensors, config)``.

    The header must list each tensor as an object with a unique string
    ``name`` and a ``shape`` of non-negative ints, and ``config`` must
    be an object; the tensor bytes must match the listed shapes exactly,
    and every value must be finite.

    Once the header and the file size check out, the tensors are dealt
    to the :func:`attrcap.nncore.worker_pool`
    (:meth:`attrcap.nncore.WorkerPool.deal`). Each worker reads its
    tensors through its own handle, straight into fresh arrays that the
    calling thread allocates, and checks each slice while it is in
    cache. A short read or a non-finite value is reported for the
    first such tensor in header order, whichever worker finds it.
    Tensors are native, writable, C-contiguous float64 arrays that own
    their memory.
    """
    with _reading(path, "checkpoint") as handle:
        _check_magic(handle, path, CHECKPOINT_MAGIC, "checkpoint")
        header_len = int(
            np.frombuffer(_read_exact(handle, 8, path, "header length"), "<u8")[0]
        )
        size = os.fstat(handle.fileno()).st_size
        if header_len > size - handle.tell():
            raise FormatError(f"{path}: truncated while reading header")
        header_bytes = handle.read(header_len)
        try:
            header = json.loads(header_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{path}: invalid checkpoint header: {exc}") from exc
        if not isinstance(header, dict) or not isinstance(header.get("tensors"), list):
            raise FormatError(f"{path}: checkpoint header lacks tensor table")
        config = header.get("config", {})
        if not isinstance(config, dict):
            raise FormatError(f"{path}: checkpoint config is not an object")
        entries = [(entry.get("name"), entry.get("shape")) if isinstance(entry, dict)
                   else (None, None) for entry in header["tensors"]]
        for name, shape in entries:
            if not (isinstance(name, str) and isinstance(shape, list)
                    and all(type(dim) is int and dim >= 0 for dim in shape)):
                raise FormatError(f"{path}: tensor entry {name!r} needs a string "
                                  "name and a shape of non-negative ints")
        if len(dict(entries)) < len(entries):
            raise FormatError(f"{path}: tensor names repeat in the header")
        # Where each tensor starts, and where the last one ends.
        offsets = list(itertools.accumulate(
            (8 * math.prod(shape) for _, shape in entries), initial=handle.tell()))
        if size != offsets[-1]:
            raise FormatError(f"{path}: header lists {offsets[-1] - offsets[0]} tensor "
                              f"bytes, file holds {size - offsets[0]} "
                              "(truncated or trailing bytes)")
    # Allocated here, as the pool's contract asks; the pages are first
    # touched by the reads.
    tensors = {name: np.empty(shape, "<f8") for name, shape in entries}

    def read(share):
        """Read the tensors at header positions ``share``; returns
        ``(position, message)`` of the first bad one, or ``None``."""
        with _reading(path, "checkpoint") as own:
            for k in share:
                name = entries[k][0]
                # Straight into the array, slice by slice (``_CHUNK``
                # floats), each slice checked while it is still in cache.
                flat = tensors[name].reshape(-1)
                own.seek(offsets[k])
                for start, stop in batch_slices(flat.size, _CHUNK):
                    piece = flat[start:stop]
                    if own.readinto(piece) != piece.nbytes:
                        return k, f"{path}: truncated while reading tensor {name!r}"
                    if not np.isfinite(piece).all():
                        return k, f"{path}: non-finite value in tensor {name!r}"
        return None

    bad = worker_pool().deal(read, range(len(entries)))
    if bad is not None:
        raise FormatError(bad[1])
    return {name: tensor.astype(np.float64, copy=False)
            for name, tensor in tensors.items()}, config


def ensemble_writer(path, kind, n_members, config, meta=None):
    """A :class:`CheckpointWriter` of a ``<kind>_ensemble`` checkpoint:
    each member's ``{name: tensor}`` dict goes in through ``add``, and
    member ``m``'s tensors are stored as ``member{m}.<name>``. The
    config gets ``kind``, ``n_members`` and any ``meta``."""
    config = {**config, "kind": f"{kind}_ensemble", "n_members": n_members}
    if meta:
        config["meta"] = meta
    return CheckpointWriter(path, config, n_members, "member{m}.{name}")


_FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool}


def load_ensemble(path, kind, config_type, build):
    """``(members, config)`` of a ``<kind>_ensemble`` checkpoint, or of a
    legacy single-model ``<kind>`` one as one member. The ``net`` config
    must fit the dataclass ``config_type`` field by field, and
    ``build(net_config, tensors)`` makes a member; any KeyError,
    TypeError or ValueError it raises becomes a FormatError."""
    tensors, config = load_checkpoint(path)
    found, n_members = config.get("kind"), config.get("n_members")
    if found == kind:
        groups = [tensors]
    elif found != f"{kind}_ensemble":
        raise FormatError(f"{path}: not an {kind} checkpoint (kind {found!r})")
    elif type(n_members) is not int or not 1 <= n_members <= len(tensors):
        raise FormatError(f"{path}: n_members {n_members!r} is not an int from 1 "
                          f"to the tensor count {len(tensors)}")
    else:
        prefixes = [f"member{m}." for m in range(n_members)]
        groups = [{name[len(prefix):]: value for name, value in tensors.items()
                   if name.startswith(prefix)} for prefix in prefixes]
        if not all(groups) or sum(map(len, groups)) != len(tensors):
            raise FormatError(f"{path}: tensors do not split into {n_members} "
                              "members by their member{m}. prefixes")
    net = config.get("net")
    fields = {f.name: _FIELD_TYPES.get(f.type, object)
              for f in dataclasses.fields(config_type)}
    if not isinstance(net, dict) or not all(
            name in fields and isinstance(value, fields[name])
            and isinstance(value, bool) == (fields[name] is bool)
            for name, value in net.items()):
        raise FormatError(f"{path}: net config does not fit {config_type.__name__}")
    try:
        return [build(config_type(**net), group) for group in groups], config
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed {kind} checkpoint: {exc}") from exc


# --------------------------------------------------------------------------
# JSON / JSON Lines artifacts
# --------------------------------------------------------------------------


def write_json(path, payload):
    """Write a JSON document with sorted keys and a trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def write_jsonl(path, records, meta=None):
    """Write JSON Lines; an optional ``_meta`` record goes first."""
    _write_lines(path, (json.dumps(record, sort_keys=True) for record in records), meta)


def _write_lines(path, lines, meta):
    """Write encoded JSON lines after an optional ``_meta`` record."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        if meta is not None:
            handle.write(json.dumps({"_meta": meta}, sort_keys=True))
            handle.write("\n")
        for line in lines:
            handle.write(line)
            handle.write("\n")


def _jsonl_items(path, what):
    """Yield the ``_meta`` object on the first line of ``path``, a JSON
    Lines ``what`` ({} when that line holds none; nothing for an empty
    file), then each other record, parsed as its line is read."""
    with _reading(path, what, "r") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            try:
                record = json.loads(line) if line else None
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}:{line_no}: invalid JSON: {exc}") from exc
            is_meta = line_no == 1 and isinstance(record, dict) and "_meta" in record
            if is_meta and not isinstance(record["_meta"], dict):
                raise FormatError(f"{path}:1: _meta record is not an object")
            if line_no == 1:
                yield record["_meta"] if is_meta else {}
            if line and not is_meta:
                yield record


def read_jsonl(path):
    """Read JSON Lines; returns ``(records, meta)`` with meta possibly {}."""
    items = _jsonl_items(path, "JSON Lines file")
    meta = next(items, {})
    return list(items), meta


def write_attributes(path, image_ids, matrix, meta=None):
    """Write per-image attribute vectors as sparse JSON Lines.

    Each record is ``{"image_id": id, "attrs": [[index, value], ...]}``
    listing the nonzero entries in index order. The meta record carries
    ``n_words`` so readers can restore the dense width even when every
    vector is sparse.

    Each line is the bytes ``json.dumps(record, sort_keys=True)`` writes,
    built without per-pair lists: one ``json.dumps`` of the row's nonzero
    values, split on ``", "`` (which no float's JSON form contains), and
    each piece joined with its index.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or len(image_ids) != matrix.shape[0]:
        raise FormatError(
            f"need one image_id per attribute row, got {len(image_ids)} ids "
            f"for array of shape {matrix.shape}"
        )
    meta = dict(meta or {})
    meta["n_words"] = int(matrix.shape[1])

    def lines():
        for image_id, row in zip(image_ids, matrix):
            nonzero = np.flatnonzero(row)
            values = json.dumps(row[nonzero].tolist())[1:-1].split(", ")
            pairs = ", ".join(f"[{index}, {value}]"
                              for index, value in zip(nonzero.tolist(), values))
            yield f'{{"attrs": [{pairs}], "image_id": {int(image_id)}}}'

    _write_lines(path, lines(), meta)


def load_attributes(path):
    """Read an attribute JSONL file; returns ``(image_ids, matrix, meta)``.
    Ids, indices and ``_meta.n_words`` must be JSON ints, values numbers.
    Each record is checked as it is read, and the first fault in file
    order is reported, ``_meta`` first: a malformed record, or a pair
    whose index is out of range or repeats in its record, or whose value
    is not finite. Without ``n_words``, the width is the largest index
    + 1. Beyond the matrix, the reader holds 16 bytes per stored pair."""
    items = _jsonl_items(path, "attribute file")
    meta = next(items, {})
    n_words = meta.get("n_words")
    if n_words is not None and (type(n_words) is not int or n_words < 0):
        raise FormatError(f"{path}: n_words {n_words!r} is not a non-negative int")
    # An inferred width must fit an int64, as the kept indices do.
    bound = 2 ** 63 - 1 if n_words is None else n_words
    image_ids, kept, width = [], [], 0
    for row, record in enumerate(items):
        pairs = record.get("attrs", []) if isinstance(record, dict) else None
        try:
            if not (isinstance(record, dict) and type(record.get("image_id")) is int
                    and isinstance(pairs, list)
                    and all(type(pair) is list and len(pair) == 2 and type(pair[0]) is int
                            and type(pair[1]) in (int, float) for pair in pairs)):
                raise TypeError("needs an int image_id and attrs as "
                                "[int index, number] pairs")
            index, value = zip(*pairs) if pairs else ((), ())
            values = np.array(value, dtype=np.float64)
        except (TypeError, OverflowError) as exc:
            raise FormatError(f"{path}: attribute record {row}: {exc}") from exc
        seen = set()
        for column, number in zip(index, values.tolist()):
            if not 0 <= column < bound:
                raise FormatError(f"{path}: attribute index {column} out of range for "
                                  + ("an inferred width" if n_words is None
                                     else f"width {n_words}"))
            if column in seen or not math.isfinite(number):
                raise FormatError(
                    f"{path}: image {record['image_id']}: attribute index {column} "
                    f"repeated or its value {number!r} not finite")
            seen.add(column)
        image_ids.append(record["image_id"])
        kept.append((np.array(index, dtype=np.int64), values))
        width = max(width, max(seen, default=-1) + 1)
    n_words = width if n_words is None else n_words
    try:
        matrix = np.zeros((len(kept), n_words), dtype=np.float64)
    except (MemoryError, ValueError) as exc:
        raise FormatError(f"{path}: cannot hold {len(kept)} attribute rows of "
                          f"n_words {n_words}: {exc}") from exc
    for row, (columns, values) in enumerate(kept):
        matrix[row, columns] = values
    return image_ids, matrix, meta


def save_vocabulary(path, vocabulary, meta=None):
    """Write a vocabulary as JSON with aligned words and IDF values."""
    payload = {
        "stemmed": bool(vocabulary.stemmed),
        "threshold": float(vocabulary.threshold),
        "words": list(vocabulary.words),
        "idf": [float(v) for v in vocabulary.idf],
    }
    if meta is not None:
        payload["meta"] = meta
    write_json(path, payload)


def load_vocabulary(path):
    """Read a vocabulary JSON file back into a :class:`Vocabulary`."""
    try:
        with _reading(path, "vocabulary", "r") as handle:
            payload = json.load(handle)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid vocabulary JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: the vocabulary JSON is not an object")
    for key in ("stemmed", "threshold", "words", "idf"):
        if key not in payload:
            raise FormatError(f"{path}: vocabulary JSON lacks field {key!r}")
    words, idf, threshold = payload["words"], payload["idf"], payload["threshold"]
    if not (isinstance(words, list) and all(isinstance(word, str) for word in words)):
        raise FormatError(f"{path}: vocabulary words must be a list of strings")
    if not (isinstance(idf, list) and all(_is_finite_number(value) for value in idf)):
        raise FormatError(f"{path}: vocabulary idf must be a list of finite numbers")
    if len(words) != len(idf):
        raise FormatError(f"{path}: words and idf arrays differ in length")
    if not (_is_finite_number(threshold) and isinstance(payload["stemmed"], bool)):
        raise FormatError(f"{path}: vocabulary threshold must be a finite number "
                          "and stemmed a boolean")
    return Vocabulary(threshold=float(threshold), stemmed=payload["stemmed"],
                      words=words, idf=[float(value) for value in idf])


def _is_finite_number(value):
    """Whether a JSON value is an int or float (not a boolean) that is a
    finite float."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False
