"""Command line interface.

Subcommands cover the full pipeline: ``extract`` (captions to
vocabulary and ground-truth attributes), ``vocab-report`` (vocabulary
sizes across IDF thresholds), ``train-attr`` / ``predict-attr`` (the
attribute predictor), ``train-captioner`` / ``caption`` (the decoder),
and ``eval-attr`` / ``eval-captions`` (metrics reports).

Contract: exit code 0 on success, 1 on usage errors, 2 on data or file
format errors, 3 on numeric failures. Errors print exactly one
machine-parsable line ``error: <category>: <reason>`` to stderr. All
randomness derives from ``--seed``, every artifact embeds the producing
command line and seed, and no output contains timestamps, so reruns
with identical inputs and flags are byte-identical. The training
commands write each ensemble member to the checkpoint as it finishes
and drop it; the checkpoint appears at its path only once complete.
"""

from __future__ import annotations

import argparse
import math
import shlex
import sys
from dataclasses import fields, replace

import numpy as np

from . import attrnet as attrnet_mod
from . import metrics as metrics_mod
from . import scnlstm as scnlstm_mod
from . import semantics, storage
from .corpus import build_documents, parse_caption_file, tokenize
from .nncore import NumericError, ParameterError, Rng, batch_slices, train_members

__all__ = ["entrypoint", "main"]

# Images per beam-search call in ``caption``: bounds the (images * beam,
# vocabulary) probability buffers of one decoding step.
_DECODE_BLOCK = 32


class UsageError(ValueError):
    """Raised for malformed flags or arguments."""


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as exceptions.

    argparse exits with status 2 on its own; this CLI reserves 2 for
    data errors, so usage problems must flow through :class:`UsageError`
    and exit with 1 instead.
    """

    def error(self, message):
        raise UsageError(message)


def _build_parser():
    parser = _Parser(
        prog="attrcap",
        description="Distinctive-attribute image captioning pipeline: "
                    "TF-IDF attribute extraction, attribute prediction, "
                    "factorized LSTM decoding, and caption metrics.",
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")

    def command(name, help_text):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--seed", type=int, default=0,
                         help="root seed for all randomness (default 0)")
        return sub

    sub = command("extract", "build vocabulary and ground-truth attributes")
    sub.add_argument("--captions", required=True, help="COCO-style caption JSON")
    sub.add_argument("--idf-threshold", type=_finite_float, required=True,
                     help="admit words with IDF strictly below this value")
    sub.add_argument("--stem", action=argparse.BooleanOptionalAction,
                     default=True, help="Porter-stem tokens (default on)")
    sub.add_argument("--out-vocab", required=True, help="vocabulary JSON output")
    sub.add_argument("--out-attrs", required=True,
                     help="ground-truth attribute JSONL output")

    sub = command("vocab-report", "vocabulary sizes across IDF thresholds")
    sub.add_argument("--captions", required=True, help="COCO-style caption JSON")
    sub.add_argument("--thresholds", type=_thresholds, required=True,
                     help="comma-separated IDF thresholds, e.g. 2,2.5,3")
    sub.add_argument("--stem", action=argparse.BooleanOptionalAction,
                     default=True, help="Porter-stem tokens (default on)")
    sub.add_argument("--out", help="optional JSON report output")

    sub = command("train-attr", "train the attribute predictor")
    sub.add_argument("--features", required=True, help="image feature file")
    sub.add_argument("--attrs", required=True, help="target attribute JSONL")
    sub.add_argument("--out-model", required=True, help="checkpoint output")
    sub.add_argument("--hidden", dest="hidden_dim", type=int)
    sub.add_argument("--dropout", type=_finite_float)
    sub.add_argument("--learning-rate", type=_finite_float)
    sub.add_argument("--batch-size", type=int)
    sub.add_argument("--epochs", type=int)
    sub.add_argument("--ensemble", type=int, default=5,
                     help="number of members to train (default 5)")
    sub.add_argument("--output-bn", dest="bn_on_output",
                     action=argparse.BooleanOptionalAction,
                     help="batch-normalize the output layer")

    sub = command("predict-attr", "predict attributes for image features")
    sub.add_argument("--features", required=True, help="image feature file")
    sub.add_argument("--model", required=True, help="attribute checkpoint")
    sub.add_argument("--out-attrs", required=True,
                     help="predicted attribute JSONL output")

    sub = command("train-captioner", "train the caption decoder")
    sub.add_argument("--captions", required=True, help="COCO-style caption JSON")
    sub.add_argument("--features", required=True, help="image feature file")
    sub.add_argument("--attrs", required=True,
                     help="attribute JSONL conditioning the decoder")
    sub.add_argument("--out-model", required=True, help="checkpoint output")
    sub.add_argument("--min-count", type=int, default=5,
                     help="minimum token count for the caption vocabulary")
    sub.add_argument("--embed-dim", type=int)
    sub.add_argument("--hidden", dest="hidden_dim", type=int)
    sub.add_argument("--factor", dest="factor_dim", type=int)
    sub.add_argument("--dropout", type=_finite_float)
    sub.add_argument("--learning-rate", type=_finite_float)
    sub.add_argument("--batch-size", type=int)
    sub.add_argument("--epochs", dest="max_epochs", type=int,
                     help="maximum number of epochs")
    sub.add_argument("--clip-norm", type=_finite_float)
    sub.add_argument("--patience", type=int,
                     help="epochs without validation improvement before stopping")
    sub.add_argument("--val-fraction", type=_finite_float, default=0.0,
                     help="fraction of images held out for early stopping "
                          "(0 disables early stopping)")
    sub.add_argument("--ensemble", type=int, default=1)
    sub.add_argument("--init-embeddings",
                     help="optional word2vec-format text file initializing "
                          "the word embeddings")

    sub = command("caption", "decode captions with beam search")
    sub.add_argument("--features", required=True, help="image feature file")
    sub.add_argument("--attrs", required=True,
                     help="attribute JSONL conditioning the decoder")
    sub.add_argument("--model", required=True, help="captioner checkpoint")
    sub.add_argument("--beam", type=int, default=5)
    sub.add_argument("--max-len", type=int, default=20)
    sub.add_argument("--out", required=True, help="caption JSONL output")

    sub = command("eval-attr", "binned F1 of predicted attributes")
    sub.add_argument("--pred", required=True, help="predicted attribute JSONL")
    sub.add_argument("--gt", required=True, help="ground-truth attribute JSONL")
    sub.add_argument("--out", help="optional JSON report output")

    sub = command("eval-captions", "BLEU, ROUGE-L and CIDEr-D of captions")
    sub.add_argument("--candidates", required=True,
                     help="caption JSONL produced by the caption command")
    sub.add_argument("--references", required=True,
                     help="COCO-style caption JSON with reference captions")
    sub.add_argument("--rouge-beta", type=_finite_float, default=1.2)
    sub.add_argument("--out", help="optional JSON report output")

    return parser


def _meta(argv, seed):
    command = "attrcap " + " ".join(shlex.quote(str(a)) for a in argv)
    return {"command": command, "seed": int(seed)}


def _finite_float(text):
    """Flag type: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _thresholds(text):
    """Flag type: a non-empty comma-separated list of finite floats."""
    values = [_finite_float(v) for v in text.split(",") if v.strip()]
    if not values:
        raise argparse.ArgumentTypeError("threshold list is empty")
    return values


def _config(config_type, args, **data):
    """``config_type`` of the data-derived fields ``data`` and of each
    field whose flag (its ``dest`` is the field's name) was given; every
    other field keeps the dataclass default."""
    given = {f.name: getattr(args, f.name) for f in fields(config_type)
             if getattr(args, f.name, None) is not None}
    return config_type(**data, **given)


def _caption_pairs(path):
    """The ``(image_id, caption)`` pairs of ``path``; a data error if none."""
    pairs = parse_caption_file(path)
    if not pairs:
        raise storage.FormatError(f"{path}: the caption file holds no captions")
    return pairs


def _check_width(path, rows, want=None):
    """A data error unless ``rows`` of ``path`` have a width, ``want`` if given."""
    width = rows.shape[1]
    if not width:
        raise storage.FormatError(f"{path}: the vectors have width 0")
    if want not in (None, width):
        raise storage.FormatError(f"{path}: the vectors have width {width}, "
                                  f"the model takes {want}")


def _joined_inputs(args, model=None):
    """``(image_ids, features, attributes)`` of ``--features`` and
    ``--attrs``, joined on image id in the feature file's order; with a
    ``model`` config, their widths must be its feature_dim and n_words."""
    feature_ids, features = storage.read_features(args.features)
    attr_ids, attrs, _ = storage.load_attributes(args.attrs)
    widths = (model.feature_dim, model.n_words) if model else (None, None)
    for path, rows, want in zip((args.features, args.attrs), (features, attrs), widths):
        _check_width(path, rows, want)
    return attrnet_mod.join_on_image_id(feature_ids, features, attr_ids, attrs,
                                        names=(args.features, args.attrs))


# --------------------------------------------------------------------------
# Subcommand implementations
# --------------------------------------------------------------------------


def _cmd_extract(args, meta):
    documents = build_documents(_caption_pairs(args.captions), apply_stemming=args.stem)
    vocabulary = semantics.build_vocabulary(
        documents, args.idf_threshold, stemmed=args.stem
    )
    if not vocabulary.words:
        raise UsageError(f"--idf-threshold {args.idf_threshold} admits no word of the "
                         "corpus: a word needs an IDF strictly below it")
    matrix = semantics.ground_truth_matrix(documents, vocabulary)
    storage.save_vocabulary(args.out_vocab, vocabulary, meta=meta)
    storage.write_attributes(
        args.out_attrs, [doc.image_id for doc in documents], matrix, meta=meta
    )
    print(f"vocabulary: {len(vocabulary)} words "
          f"(threshold {args.idf_threshold}, stemmed {args.stem})")
    print(f"documents: {len(documents)}")
    return 0


def _cmd_vocab_report(args, meta):
    documents = build_documents(_caption_pairs(args.captions), apply_stemming=args.stem)
    report = semantics.vocabulary_report(documents, args.thresholds, stemmed=args.stem)
    report["meta"] = meta
    for threshold in args.thresholds:
        size = report["sizes"][repr(float(threshold))]
        print(f"threshold {threshold}: {size} words")
    print(f"total distinct words: {report['total_words']}")
    if args.out:
        storage.write_json(args.out, report)
    return 0


def _cmd_train_attr(args, meta):
    if args.ensemble < 1:
        raise UsageError("--ensemble must be at least 1")
    train_config = _config(attrnet_mod.AttrTrainConfig, args)
    _, x, y = _joined_inputs(args)
    if len(x) < 2:
        raise storage.FormatError(f"{args.features}: training needs at least 2 images "
                                  f"(batch normalization), the file holds {len(x)}")
    net_config = _config(attrnet_mod.AttrNetConfig, args,
                         n_words=y.shape[1], feature_dim=x.shape[1])
    members = train_members(args.ensemble, args.seed, lambda seed: (
        attrnet_mod.train_attrnet(x, y, net_config, replace(train_config, seed=seed))))
    with attrnet_mod.attrnet_writer(args.out_model, net_config, args.ensemble,
                                    extra_meta=meta) as writer:
        for net, losses in members:
            if losses:
                print(f"member {writer.count}: final training mse: {losses[-1]!r}")
            writer.add(net.tensors())
            del net, losses  # not alive while the next member trains
    print(f"trained on {x.shape[0]} images")
    return 0


def _cmd_predict_attr(args, meta):
    feature_ids, features = storage.read_features(args.features)
    members = attrnet_mod.load_attrnet_ensemble(args.model)
    _check_width(args.features, features, members[0].config.feature_dim)
    predictions = attrnet_mod.predict_ensemble(members, features)
    storage.write_attributes(args.out_attrs, feature_ids, predictions, meta=meta)
    print(f"predicted attributes for {len(feature_ids)} images")
    return 0


def _load_word_embeddings(path, vocab, embed_dim):
    """``{row: vector}`` of the vocabulary words in a word2vec-format text
    file; a vocabulary word's values must be finite numbers."""
    rows = {}
    with storage._reading(path, "embeddings", "r") as handle:
        for line_no, line in enumerate(handle, start=1):
            parts = line.rstrip("\n").split(" ")
            if line_no == 1 and len(parts) == 2 and all(
                    part.strip().isdecimal() for part in parts):
                continue  # optional "count dim" header: two whole numbers
            if len(parts) != embed_dim + 1:
                raise storage.FormatError(
                    f"{path}:{line_no}: expected a word and {embed_dim} "
                    f"values, got {len(parts)} fields"
                )
            word = parts[0]
            position = vocab.index.get(word)
            if position is not None and position > scnlstm_mod.UNK_ID:
                try:
                    vector = np.array([float(v) for v in parts[1:]])
                except ValueError as exc:
                    raise storage.FormatError(
                        f"{path}:{line_no}: bad embedding value for {word!r}: {exc}"
                    ) from None
                if not np.isfinite(vector).all():
                    raise storage.FormatError(
                        f"{path}:{line_no}: non-finite embedding value for {word!r}")
                rows[position] = vector
    print(f"initialized {len(rows)} embedding rows from {path}")
    return rows


def _caption_samples(args):
    """``(vocab, train, val, n_words, feature_dim)``: the vocabulary of
    every caption and the ``(feature, d, ids)`` samples of the training
    and the held-out images, in image-id order, then file order. Whole
    images are held out, so no image contributes to both sides."""
    pairs = sorted(_caption_pairs(args.captions), key=lambda pair: pair[0])
    feature_ids, x, d = _joined_inputs(args)
    row_of = {image_id: row for row, image_id in enumerate(feature_ids)}
    image_ids = sorted({image_id for image_id, _ in pairs})
    missing = [image_id for image_id in image_ids if image_id not in row_of]
    if missing:
        raise attrnet_mod.JoinError(f"{args.captions} references images not in "
                                    f"{args.features} and {args.attrs}: {missing}")
    vocab = scnlstm_mod.CaptionVocab.from_token_lists(
        (tokenize(caption) for _, caption in pairs), min_count=args.min_count)
    n_val = int(len(image_ids) * args.val_fraction)
    val_ids = set()
    if n_val > 0:
        order = Rng(args.seed).split(9).permutation(len(image_ids))
        val_ids = {image_ids[j] for j in order[:n_val]}
    train, val = [], []
    for image_id, caption in pairs:
        row = row_of[image_id]
        (val if image_id in val_ids else train).append(
            (x[row], d[row], vocab.encode(tokenize(caption))))
    return vocab, train, val, d.shape[1], x.shape[1]


def _cmd_train_captioner(args, meta):
    if args.ensemble < 1:
        raise UsageError("--ensemble must be at least 1")
    if not 0.0 <= args.val_fraction < 1.0:
        raise UsageError("--val-fraction must be in [0, 1)")
    train_config = _config(scnlstm_mod.CaptionTrainConfig, args)
    vocab, train_samples, val_samples, n_words, feature_dim = _caption_samples(args)
    net_config = _config(scnlstm_mod.ScnLstmConfig, args, vocab_size=len(vocab),
                         n_words=n_words, feature_dim=feature_dim)
    if not train_samples:
        raise UsageError("validation split leaves no training captions")
    embeddings = None
    if args.init_embeddings:
        embeddings = _load_word_embeddings(args.init_embeddings, vocab,
                                           net_config.embed_dim)

    members = train_members(args.ensemble, args.seed, lambda seed: (
        scnlstm_mod.train_captioner(
            train_samples, net_config, replace(train_config, seed=seed),
            val_samples=val_samples or None, embeddings=embeddings)))
    with scnlstm_mod.captioner_writer(args.out_model, net_config, vocab, args.ensemble,
                                      extra_meta=meta) as writer:
        for model, history in members:
            if history["train_loss"]:
                print(f"member {writer.count}: final training loss: "
                      f"{history['train_loss'][-1]!r} nats/token")
            if history["val_loss"]:
                print(f"member {writer.count}: best validation loss: "
                      f"{min(history['val_loss'])!r} nats/token")
            writer.add(model.tensors())
            del model, history  # not alive while the next member trains
    print(f"trained on {len(train_samples)} captions "
          f"({len(val_samples)} held out), vocabulary {len(vocab)} tokens")
    return 0


def _cmd_caption(args, meta):
    models, vocab = scnlstm_mod.load_captioner_ensemble(args.model)
    feature_ids, x, d = _joined_inputs(args, models[0].config)
    sequences = []
    for start, stop in batch_slices(len(feature_ids), _DECODE_BLOCK):
        sequences.extend(scnlstm_mod.ensemble_beam_search_block(
            models, x[start:stop], d[start:stop], beam_width=args.beam,
            max_len=args.max_len))
    records = []
    for image_id, sequence in zip(feature_ids, sequences):
        words = vocab.decode(sequence.tokens)
        records.append({
            "image_id": int(image_id),
            "caption": " ".join(words),
            "tokens": words,
            "log_prob": sequence.log_prob,
        })
    storage.write_jsonl(args.out, records, meta=meta)
    print(f"decoded {len(records)} captions (beam {args.beam})")
    return 0


def _cmd_eval_attr(args, meta):
    pred_ids, pred, _ = storage.load_attributes(args.pred)
    if not pred_ids:
        raise storage.FormatError(f"{args.pred}: the attribute file holds no images")
    gt_ids, gt, _ = storage.load_attributes(args.gt)
    _, pred_matrix, gt_matrix = attrnet_mod.join_on_image_id(
        pred_ids, pred, gt_ids, gt, names=(args.pred, args.gt))
    if pred.shape[1] != gt.shape[1]:
        raise storage.FormatError(f"{args.pred} holds {pred.shape[1]} attributes per "
                                  f"image and {args.gt} holds {gt.shape[1]}")
    if ((gt_matrix < 0.0) | (gt_matrix > 1.0)).any():
        raise storage.FormatError(f"{args.gt}: attribute values must lie in [0, 1]")
    report = dict(metrics_mod.attribute_f1(pred_matrix, gt_matrix),
                  meta=meta, n_images=len(pred_ids))
    print(f"macro_f1: {report['macro_f1']!r}")
    print(f"micro_f1: {report['micro_f1']!r}")
    if args.out:
        storage.write_json(args.out, report)
    return 0


def _cmd_eval_captions(args, meta):
    records, _ = storage.read_jsonl(args.candidates)
    if not records:
        raise storage.FormatError(f"{args.candidates}: the candidate file holds no captions")
    references_by_image = {}
    for image_id, caption in _caption_pairs(args.references):
        references_by_image.setdefault(image_id, []).append(tokenize(caption))
    candidates = []
    references = []
    for record in records:
        if not (isinstance(record, dict) and type(record.get("image_id")) is int
                and isinstance(record.get("tokens"), list)
                and all(isinstance(token, str) for token in record["tokens"])):
            raise storage.FormatError(f"{args.candidates}: caption records need "
                                      "an int image_id and a list of string tokens")
        image_id = record["image_id"]
        refs = references_by_image.get(image_id)
        if not refs:
            raise storage.FormatError(
                f"no references for image {image_id} in {args.references}"
            )
        candidates.append(record["tokens"])
        references.append(refs)
    report = metrics_mod.evaluate_captions(
        candidates, references, rouge_beta=args.rouge_beta
    )
    report["meta"] = meta
    for key in ("bleu_4", "rouge_l", "cider_d"):
        print(f"{key}: {report[key]!r}")
    if args.out:
        storage.write_json(args.out, report)
    return 0


_HANDLERS = {
    "extract": _cmd_extract,
    "vocab-report": _cmd_vocab_report,
    "train-attr": _cmd_train_attr,
    "predict-attr": _cmd_predict_attr,
    "train-captioner": _cmd_train_captioner,
    "caption": _cmd_caption,
    "eval-attr": _cmd_eval_attr,
    "eval-captions": _cmd_eval_captions,
}


def main(argv=None):
    """Run the CLI; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    argv = [str(a) for a in argv]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("a subcommand is required (see --help)")
        handler = _HANDLERS[args.command]
        # Every non-finite result is checked explicitly and reported as
        # one ``error: numeric:`` line, so NumPy's warnings would only
        # add lines before it.
        with np.errstate(all="ignore"):
            return handler(args, _meta(argv, args.seed))
    except (UsageError, ParameterError) as exc:
        _report_error("usage", exc)
        return 1
    except (NumericError, FloatingPointError) as exc:
        _report_error("numeric", exc)
        return 3
    # Every other ValueError is a data error: CorpusError, FormatError,
    # JoinError and DimensionError among them; so are inputs or sizes
    # whose arrays the machine cannot hold.
    except (OSError, ValueError, MemoryError) as exc:
        _report_error("data", exc if str(exc) else "out of memory")
        return 2


def _report_error(category, exc):
    reason = " ".join(str(exc).split())
    print(f"error: {category}: {reason}", file=sys.stderr)


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
