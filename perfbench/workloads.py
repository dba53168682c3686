"""The three workloads: their timed operations and their output checks.

A repeat runs one workload's operations back to back in its own
directory (``rK/`` next to ``inputs/``), so every artifact embeds the
same relative command line and repeats must match byte for byte. Each
operation is a call through a public entry point: ``attrcap.cli.main``
in process, or ``attrcap.scnlstm`` where the CLI cannot reach the
deployment shapes.
"""

import io
import json
import math
import os
import sys
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import gen
from attrcap import cli, scnlstm, storage
from attrcap.corpus import parse_caption_file

INPUTS = "../inputs"


@contextmanager
def working_directory(path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


class Ledger:
    """Attempted operations and the problems found with each."""

    def __init__(self):
        self.ops = []  # [step, problems]

    def record(self, step, problems):
        self.ops.append([step, list(problems)])

    def fail(self, step, problem):
        """Fail the latest operation of ``step`` for a problem found later."""
        for op in reversed(self.ops):
            if op[0] == step:
                op[1].append(problem)
                return
        self.ops.append([step, [problem]])

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed(self):
        return sum(1 for _, problems in self.ops if problems)

    @property
    def failures(self):
        return [f"{step}: {problem}" for step, problems in self.ops for problem in problems]

    @property
    def failed_steps(self):
        return {step for step, problems in self.ops if problems}


def run_cli(argv):
    """Run one CLI command in process; returns ``(seconds, problems)``.

    Exit code 0 and no ``error:`` line on stderr count as success. The
    command's own output is captured so the benchmark's stays readable.
    """
    out, err = io.StringIO(), io.StringIO()
    problems = []
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # an uncaught exception is a failed operation
        code = None
        problems.append("uncaught exception")
        traceback.print_exc(file=sys.stderr)
    seconds = perf_counter() - start
    if code not in (0, None):
        problems.append(f"exit code {code}")
    problems.extend(line for line in err.getvalue().splitlines()
                    if line.startswith("error:"))
    return seconds, problems


def run_library(call):
    """Time one library call; an exception is a failed operation."""
    start = perf_counter()
    try:
        result = call()
        problems = []
    except Exception:  # reported and counted, never hidden
        result = None
        problems = ["uncaught exception"]
        traceback.print_exc(file=sys.stderr)
    return perf_counter() - start, result, problems


def _read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _read_records(path):
    """Records of a JSONL artifact, without its meta line."""
    with open(path, encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    return [line for line in lines if "_meta" not in line]


def _in_unit_range(report, keys):
    return [f"{key} = {report.get(key)!r} outside [0, 1]" for key in keys
            if not (isinstance(report.get(key), float) and 0.0 <= report[key] <= 1.0)]


def check_caption_scores(path, n_images):
    report = _read_json(path)
    problems = _in_unit_range(report, ("bleu_4", "rouge_l"))
    cider = report.get("cider_d")
    if not (isinstance(cider, float) and math.isfinite(cider) and cider >= 0.0):
        problems.append(f"cider_d = {cider!r} is not a finite non-negative value")
    if report.get("n_images") != n_images:
        problems.append(f"scored {report.get('n_images')} images, expected {n_images}")
    return problems


def guarded(check, *args):
    """Problems found by ``check``; an unreadable artifact is one too."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"unreadable artifact: {type(exc).__name__}: {exc}"]


def check_finite_checkpoint(path):
    tensors, _ = storage.load_checkpoint(path)
    bad = sorted(name for name, value in tensors.items() if not np.all(np.isfinite(value)))
    return [f"non-finite tensor {name}" for name in bad[:3]]


class Workload:
    """One workload: ``steps`` name its timed operations in order.

    ``ARTIFACTS`` maps each artifact a repeat writes to the step that
    writes it, so a byte mismatch between repeats fails that step.
    """

    name = ""
    steps = ()
    ARTIFACTS = {}
    CHECKPOINTS = ()
    # Artifacts that no permitted change to the program may alter, with
    # the steps that write them; digests.json pins them for the default seed.
    PINNED = ()
    PINNED_STEPS = ()

    def __init__(self, inputs):
        self.inputs = Path(inputs)

    def run_ops(self, ledger):
        """Run the timed operations in the current directory.

        Returns ``{step: seconds}``; checks wait for :meth:`check`.
        """
        raise NotImplementedError

    def check(self, ledger, directory):
        """Check a repeat's artifacts; problems fail the writing step."""
        raise NotImplementedError

    def check_checkpoints(self, ledger, directory):
        """Load each checkpoint once and require finite tensors."""
        for artifact in self.CHECKPOINTS:
            for problem in guarded(check_finite_checkpoint, Path(directory) / artifact):
                ledger.fail(self.ARTIFACTS[artifact], problem)

    def detail(self, step_seconds):
        """Workload-specific throughput figures for the printed report."""
        return {}


class Attributes(Workload):
    """Text side plus the attribute predictor at deployment width."""

    name = "attributes"
    steps = ("vocab_report", "extract", "train_attr", "predict_attr",
             "eval_attr", "eval_captions")
    ARTIFACTS = {
        "vocab_report.json": "vocab_report",
        "vocab.json": "extract",
        "gt.jsonl": "extract",
        "attr.daec": "train_attr",
        "pred.jsonl": "predict_attr",
        "f1.json": "eval_attr",
        "caption_scores.json": "eval_captions",
    }
    CHECKPOINTS = ("attr.daec",)
    PINNED = ("vocab_report.json", "vocab.json", "gt.jsonl", "caption_scores.json")
    PINNED_STEPS = ("vocab_report", "extract", "eval_captions")

    def __init__(self, inputs):
        super().__init__(inputs)
        self.params = _read_json(self.inputs / "params.json")
        self.n_images = gen.SIZES["attributes"]["images"]

    def commands(self):
        captions = f"{INPUTS}/captions.json"
        features = f"{INPUTS}/features.daef"
        thresholds = ",".join(repr(t) for t in self.params["report_thresholds"])
        return {
            "vocab_report": ["vocab-report", "--captions", captions, "--stem",
                             "--thresholds", thresholds, "--out", "vocab_report.json"],
            "extract": ["extract", "--captions", captions, "--stem",
                        "--idf-threshold", repr(self.params["idf_threshold"]),
                        "--out-vocab", "vocab.json", "--out-attrs", "gt.jsonl"],
            "train_attr": ["train-attr", "--features", features, "--attrs", "gt.jsonl",
                           "--out-model", "attr.daec", "--epochs", "1", "--ensemble", "2"],
            "predict_attr": ["predict-attr", "--features", features,
                             "--model", "attr.daec", "--out-attrs", "pred.jsonl"],
            "eval_attr": ["eval-attr", "--pred", "pred.jsonl", "--gt", "gt.jsonl",
                          "--out", "f1.json"],
            "eval_captions": ["eval-captions", "--candidates", f"{INPUTS}/candidates.jsonl",
                              "--references", captions, "--out", "caption_scores.json"],
        }

    def run_ops(self, ledger, steps=None):
        commands = self.commands()
        seconds = {}
        for step in steps or self.steps:
            seconds[step], problems = run_cli(commands[step])
            ledger.record(step, problems)
        return seconds

    def check(self, ledger, directory, steps=None):
        steps = steps or self.steps
        d = Path(directory)
        checks = {
            "vocab_report": self._check_report,
            "extract": self._check_extract,
            "predict_attr": self._check_predictions,
            "eval_attr": self._check_f1,
            "eval_captions": lambda d: check_caption_scores(
                d / "caption_scores.json", self.n_images),
        }
        for step in steps:
            if step not in checks or step in ledger.failed_steps:
                continue
            for problem in guarded(checks[step], d):
                ledger.fail(step, problem)

    def _check_report(self, d):
        report = _read_json(d / "vocab_report.json")
        sizes = [report["sizes"][repr(float(t))] for t in self.params["report_thresholds"]]
        problems = []
        if sizes != sorted(sizes) or report["total_words"] < sizes[-1]:
            problems.append(f"vocabulary sizes {sizes} not nested")
        if sizes[2] != self.params["expected_words"]:
            problems.append(f"{sizes[2]} words at the extract threshold, "
                            f"expected {self.params['expected_words']}")
        return problems

    def _check_extract(self, d):
        vocab = _read_json(d / "vocab.json")
        records = _read_records(d / "gt.jsonl")
        problems = []
        if len(vocab["words"]) != self.params["expected_words"]:
            problems.append(f"{len(vocab['words'])} attribute words, "
                            f"expected {self.params['expected_words']}")
        if len(records) != self.n_images:
            problems.append(f"{len(records)} attribute rows, expected {self.n_images}")
        for record in records:
            values = [value for _, value in record["attrs"]]
            norm = math.sqrt(sum(v * v for v in values))
            if any(not 0.0 < v <= 1.0 for v in values) or (values and abs(norm - 1.0) > 1e-9):
                problems.append(f"image {record['image_id']}: attribute row not unit norm in (0, 1]")
                break
        return problems

    def _check_predictions(self, d):
        records = _read_records(d / "pred.jsonl")
        problems = []
        if len(records) != self.n_images:
            problems.append(f"{len(records)} predicted rows, expected {self.n_images}")
        if any(not (math.isfinite(v) and v >= 0.0)
               for record in records for _, v in record["attrs"]):
            problems.append("predicted attributes are not finite and non-negative")
        return problems

    def _check_f1(self, d):
        report = _read_json(d / "f1.json")
        problems = _in_unit_range(report, ("macro_f1", "micro_f1"))
        if not report.get("n_scored", 0) > 0:
            problems.append("no attribute cells scored")
        return problems


class CaptionTrain(Workload):
    """One epoch of decoder training at V=10000, then saving the model."""

    name = "caption_train"
    steps = ("train_captioner", "save_captioner")
    ARTIFACTS = {"model.daec": "save_captioner"}
    CHECKPOINTS = ("model.daec",)
    NET = {"embed_dim": 300, "hidden_dim": 512, "factor_dim": 512, "dropout": 0.5}
    TRAIN = {"batch_size": 12, "max_epochs": 1, "seed": 0}

    def __init__(self, inputs):
        super().__init__(inputs)
        size = gen.SIZES["caption_train"]
        self.vocab = gen.caption_vocab()
        feature_ids, features = storage.read_features(self.inputs / "features.daef")
        attr_ids, attrs, _ = storage.load_attributes(self.inputs / "attrs.jsonl")
        if feature_ids != attr_ids:
            raise ValueError("generated features and attributes disagree on image ids")
        row = {image_id: r for r, image_id in enumerate(feature_ids)}
        val_ids = set(feature_ids[-size["val_images"]:])
        self.train_samples, self.val_samples = [], []
        for image_id, caption in parse_caption_file(self.inputs / "captions.json"):
            ids = self.vocab.encode(caption.split())
            bucket = self.val_samples if image_id in val_ids else self.train_samples
            bucket.append((features[row[image_id]], attrs[row[image_id]], ids))
        self.train_tokens = sum(len(ids) - 1 for _, _, ids in self.train_samples)
        self.config = scnlstm.ScnLstmConfig(
            vocab_size=len(self.vocab), n_words=attrs.shape[1],
            feature_dim=features.shape[1], **self.NET)
        self.history = None

    def run_ops(self, ledger):
        seconds = {}
        seconds["train_captioner"], result, problems = run_library(
            lambda: scnlstm.train_captioner(
                self.train_samples, self.config,
                scnlstm.CaptionTrainConfig(**self.TRAIN),
                val_samples=self.val_samples))
        ledger.record("train_captioner", problems)
        if result is None:
            return seconds
        model, self.history = result
        seconds["save_captioner"], _, problems = run_library(
            lambda: scnlstm.save_captioner("model.daec", model, self.vocab))
        ledger.record("save_captioner", problems)
        return seconds

    def check(self, ledger, directory):
        if self.history is None:
            return
        losses = self.history["train_loss"] + self.history["val_loss"]
        if len(losses) != 2 or not all(math.isfinite(v) and v > 0.0 for v in losses):
            ledger.fail("train_captioner", f"losses {losses} are not finite and positive")

    def detail(self, step_seconds):
        return {"train_tokens": self.train_tokens,
                "train_tokens_per_s": self.train_tokens / step_seconds["train_captioner"]}


class CaptionDecode(Workload):
    """Beam-5 decoding with a 2-member ensemble, then caption metrics."""

    name = "caption_decode"
    steps = ("caption", "eval_captions")
    ARTIFACTS = {"decoded.jsonl": "caption", "caption_scores.json": "eval_captions"}
    BEAM, MAX_LEN = 5, 20

    def __init__(self, inputs):
        super().__init__(inputs)
        self.n_images = gen.SIZES["caption_decode"]["images"]
        self.words = set(gen.caption_vocab().decode([scnlstm.UNK_ID])) | set(gen.lexicon())

    def run_ops(self, ledger):
        commands = {
            "caption": ["caption", "--features", f"{INPUTS}/features.daef",
                        "--attrs", f"{INPUTS}/attrs.jsonl", "--model", f"{INPUTS}/model.daec",
                        "--beam", str(self.BEAM), "--max-len", str(self.MAX_LEN),
                        "--out", "decoded.jsonl"],
            "eval_captions": ["eval-captions", "--candidates", "decoded.jsonl",
                              "--references", f"{INPUTS}/references.json",
                              "--out", "caption_scores.json"],
        }
        seconds = {}
        for step in self.steps:
            seconds[step], problems = run_cli(commands[step])
            ledger.record(step, problems)
        return seconds

    def check(self, ledger, directory):
        d = Path(directory)
        checks = {"caption": self._check_decodes,
                  "eval_captions": lambda d: check_caption_scores(
                      d / "caption_scores.json", self.n_images)}
        for step, check in checks.items():
            if step not in ledger.failed_steps:
                for problem in guarded(check, d):
                    ledger.fail(step, problem)

    def _check_decodes(self, d):
        records = _read_records(d / "decoded.jsonl")
        problems = []
        if len(records) != self.n_images:
            problems.append(f"{len(records)} decoded records, expected {self.n_images}")
        for record in records:
            if not (set(record["tokens"]) <= self.words
                    and len(record["tokens"]) <= self.MAX_LEN
                    and math.isfinite(record["log_prob"]) and record["log_prob"] < 0.0):
                problems.append(f"image {record['image_id']}: malformed decode")
                break
        return problems

    def detail(self, step_seconds):
        return {"decode_images_per_s": self.n_images / step_seconds["caption"]}


WORKLOADS = {w.name: w for w in (Attributes, CaptionTrain, CaptionDecode)}
