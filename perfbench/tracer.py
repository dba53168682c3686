"""Spans around calls into each attrcap module, and the per-layer metrics.

The tracer wraps public functions and methods from outside the package:
a function is replaced at every module attribute that binds it (so
``scnlstm.adam_step`` and ``attrnet.adam_step`` are both traced), a
method on its class. Spans stay in memory as ``[id, parent, repeat,
name, start, end, attrs]`` and are written out once, at the end.
Untraced runs never call :meth:`Tracer.install`.
"""

import inspect
import json
import os
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import attrcap
from attrcap import attrnet, cli, corpus, metrics, nncore, scnlstm, semantics, storage

MODULES = (cli, corpus, semantics, storage, nncore, attrnet, scnlstm, metrics)

# Public entry points per layer. Per-element helpers such as
# metrics.bin_of are deliberately absent: a span per matrix cell would
# cost more than the work it measures.
FUNCTIONS = {
    cli: ("main",),
    corpus: ("parse_caption_file", "build_documents"),
    semantics: ("build_vocabulary", "vocabulary_report", "ground_truth_matrix"),
    storage: ("read_features", "load_attributes", "write_attributes", "save_checkpoint",
              "load_checkpoint", "read_jsonl", "write_jsonl"),
    nncore: ("adam_step", "clip_gradients", "ensemble_mean"),
    attrnet: ("train_attrnet", "predict_ensemble", "join_on_image_id"),
    scnlstm: ("train_captioner", "save_captioner", "ensemble_beam_search"),
    metrics: ("attribute_f1", "bleu", "rouge_l", "cider_d"),
}
METHODS = {
    (attrnet, attrnet.AttrNet): ("loss",),
    (scnlstm, scnlstm.ScnLstm): ("cell_forward", "cell_backward", "batch_loss",
                                 "batch_nll", "step_probs"),
}


def _layer(module):
    return module.__name__.rsplit(".", 1)[-1]


# -- computed work per call -------------------------------------------------
# Flop counts are computed from the argument shapes (2 flops per
# multiply-add of every matrix product), not measured.


def _cell_forward_flops(a):
    x, h, d = a["x"], a["h_prev"], a["d"]
    rows, factor = x.shape[0], a["self"].config.factor_dim
    # Per gate: d@Wb, x@Wc, d@Ub, h@Uc into F, then two F->H products.
    return {"flops": 8 * rows * factor * (2 * d.shape[1] + x.shape[1] + 3 * h.shape[1])}


def _cell_backward_flops(a):
    x, h, _, d = a["cache"][:4]
    rows, factor = x.shape[0], a["self"].config.factor_dim
    # Per gate: four H-F products (two weight gradients, two input
    # gradients), and two products each with Wb, Ub (A), Wc (E), Uc (H).
    return {"flops": 8 * rows * factor
            * (6 * h.shape[1] + 4 * d.shape[1] + 2 * x.shape[1])}


def _attrnet_loss_flops(a):
    config, rows = a["self"].config, a["x"].shape[0]
    width = config.hidden_dim
    forward = 2 * rows * (config.feature_dim * width + 2 * width * width
                          + width * config.n_words)
    return {"flops": 3 * forward}  # forward, input gradients, weight gradients


PROBES = {
    "corpus.build_documents": lambda a, r: {"docs": len(r)},
    "semantics.ground_truth_matrix": lambda a, r: {
        "bytes": r.nbytes, "nonzero": int(np.count_nonzero(r)), "cells": r.size},
    "storage.read_features": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "storage.load_attributes": lambda a, r: {"bytes": r[1].nbytes},
    "storage.write_attributes": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "nncore.clip_gradients": lambda a, r: {"clipped": int(r[1] > a["max_norm"])},
    "attrnet.loss": lambda a, r: _attrnet_loss_flops(a),
    "scnlstm.cell_forward": lambda a, r: _cell_forward_flops(a),
    "scnlstm.cell_backward": lambda a, r: _cell_backward_flops(a),
    "scnlstm.batch_loss": lambda a, r: {"tokens": r[2]},
    "scnlstm.step_probs": lambda a, r: {"rows": len(a["last_ids"])},
    "scnlstm.ensemble_beam_search": lambda a, r: {
        "forced": int(len(r.tokens) == a["max_len"] + 2), "members": len(a["models"])},
    "metrics.attribute_f1": lambda a, r: {
        "scored": r["n_scored"], "cells": int(np.size(a["pred"]))},
}


class Tracer:
    """Spans of traced repeats; wrappers exist only inside :meth:`phase`."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._repeat = None
        self._patches = []

    def _wrap(self, name, function):
        probe = PROBES.get(name)
        signature = inspect.signature(function) if probe else None
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else None, self._repeat,
                      name, 0.0, 0.0, None]
            spans.append(record)
            stack.append(record[0])
            record[4] = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                record[5] = perf_counter()
                stack.pop()
            if probe:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record[6] = probe(bound.arguments, result)
            return result

        traced.__wrapped__ = function
        return traced

    def install(self):
        """Wrap every listed function at each binding, and each method."""
        targets = []
        for module, names in FUNCTIONS.items():
            for attr in names:
                function = getattr(module, attr)
                name = f"{_layer(module)}.{attr}"
                owners = [m for m in MODULES if getattr(m, attr, None) is function]
                targets.extend((owner, attr, name, function) for owner in owners)
        for (module, cls), names in METHODS.items():
            for attr in names:
                targets.append((cls, attr, f"{_layer(module)}.{attr}", getattr(cls, attr)))
        for owner, attr, name, function in targets:
            self._patches.append((owner, attr, function))
            setattr(owner, attr, self._wrap(name, function))

    def uninstall(self):
        for owner, attr, function in reversed(self._patches):
            setattr(owner, attr, function)
        self._patches.clear()

    @contextmanager
    def phase(self, repeat):
        """Trace one repeat's timed phase under a root span ``phase``."""
        self.install()
        self._repeat = repeat
        record = [len(self.spans), None, repeat, "phase", perf_counter(), 0.0, None]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            record[5] = perf_counter()
            self._stack.pop()
            self._repeat = None
            self.uninstall()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, repeat, name, start, end, attrs in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "repeat": repeat, "name": name,
                    "start": start, "end": end, "attrs": attrs}) + "\n")


# -- per-layer metrics --------------------------------------------------------


class RepeatSummary:
    """Totals over the spans of one traced repeat."""

    def __init__(self, spans):
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.attrs = defaultdict(lambda: defaultdict(float))
        child_time = defaultdict(float)
        by_id = {}
        for span in spans:
            by_id[span[0]] = span
            if span[1] is not None:
                child_time[span[1]] += span[5] - span[4]
        for span_id, _, _, name, start, end, attrs in spans:
            duration = end - start
            self.time[name] += duration
            self.self_time[name] += duration - child_time[span_id]
            self.calls[name] += 1
            for key, value in (attrs or {}).items():
                self.attrs[name][key] += value
        # Time of the phase not covered by any top-level span belongs to
        # the CLI layer's self time, along with cli.main's own.
        self.cli_self_s = self.self_time["cli.main"] + self.self_time["phase"]
        # A beam step runs step_probs once per ensemble member.
        beams = self.attrs["scnlstm.ensemble_beam_search"]
        for span in spans:
            parent = by_id.get(span[1])
            if (span[3] == "scnlstm.step_probs" and parent is not None
                    and parent[3] == "scnlstm.ensemble_beam_search"):
                beams["steps"] += 1 / parent[6]["members"]

    def ratio(self, name, key, base=None):
        """``key`` summed over calls, per ``base`` summed, or per call."""
        total = self.attrs[name][base] if base else self.calls[name]
        return self.attrs[name][key] / total if total else 0.0

    def gflop_s(self, name):
        seconds = self.time[name]
        return self.attrs[name]["flops"] / seconds / 1e9 if seconds else 0.0


# (metric, unit, better, value of one traced repeat)
PER_REPEAT = [
    ("cli.self_s", "s", "lower", lambda s: s.cli_self_s),
    ("corpus.parse_caption_file.s", "s", "lower", lambda s: s.time["corpus.parse_caption_file"]),
    ("corpus.build_documents.s", "s", "lower", lambda s: s.time["corpus.build_documents"]),
    ("corpus.build_documents.docs", "count", "higher",
     lambda s: s.attrs["corpus.build_documents"]["docs"]),
    ("semantics.build_vocabulary.s", "s", "lower", lambda s: s.time["semantics.build_vocabulary"]),
    ("semantics.vocabulary_report.s", "s", "lower",
     lambda s: s.time["semantics.vocabulary_report"]),
    ("semantics.ground_truth_matrix.s", "s", "lower",
     lambda s: s.time["semantics.ground_truth_matrix"]),
    ("semantics.ground_truth_matrix.bytes", "bytes", "lower",
     lambda s: s.attrs["semantics.ground_truth_matrix"]["bytes"]),
    ("semantics.ground_truth_matrix.nonzero_frac", "fraction", "higher",
     lambda s: s.ratio("semantics.ground_truth_matrix", "nonzero", "cells")),
    ("storage.read_features.s", "s", "lower", lambda s: s.time["storage.read_features"]),
    ("storage.read_features.bytes", "bytes", "lower",
     lambda s: s.attrs["storage.read_features"]["bytes"]),
    ("storage.load_attributes.s", "s", "lower", lambda s: s.time["storage.load_attributes"]),
    ("storage.load_attributes.bytes", "bytes", "lower",
     lambda s: s.attrs["storage.load_attributes"]["bytes"]),
    ("storage.write_attributes.s", "s", "lower", lambda s: s.time["storage.write_attributes"]),
    ("storage.write_attributes.bytes", "bytes", "lower",
     lambda s: s.attrs["storage.write_attributes"]["bytes"]),
    ("storage.save_checkpoint.s", "s", "lower", lambda s: s.time["storage.save_checkpoint"]),
    ("storage.load_checkpoint.s", "s", "lower", lambda s: s.time["storage.load_checkpoint"]),
    ("storage.read_jsonl.s", "s", "lower", lambda s: s.time["storage.read_jsonl"]),
    ("storage.write_jsonl.s", "s", "lower", lambda s: s.time["storage.write_jsonl"]),
    ("nncore.adam_step.calls", "count", "lower", lambda s: s.calls["nncore.adam_step"]),
    ("nncore.adam_step.s", "s", "lower", lambda s: s.time["nncore.adam_step"]),
    ("nncore.clip_gradients.s", "s", "lower", lambda s: s.time["nncore.clip_gradients"]),
    ("nncore.clip_gradients.clipped_frac", "fraction", "lower",
     lambda s: s.ratio("nncore.clip_gradients", "clipped")),
    ("nncore.ensemble_mean.s", "s", "lower", lambda s: s.time["nncore.ensemble_mean"]),
    ("attrnet.loss.calls", "count", "lower", lambda s: s.calls["attrnet.loss"]),
    ("attrnet.loss.s", "s", "lower", lambda s: s.time["attrnet.loss"]),
    ("attrnet.loss.gflop_s", "GFLOP/s", "higher", lambda s: s.gflop_s("attrnet.loss")),
    ("attrnet.train_attrnet.self_s", "s", "lower",
     lambda s: s.self_time["attrnet.train_attrnet"]),
    ("attrnet.predict_ensemble.s", "s", "lower", lambda s: s.time["attrnet.predict_ensemble"]),
    ("attrnet.join_on_image_id.s", "s", "lower", lambda s: s.time["attrnet.join_on_image_id"]),
    ("scnlstm.cell_forward.calls", "count", "lower", lambda s: s.calls["scnlstm.cell_forward"]),
    ("scnlstm.cell_forward.s", "s", "lower", lambda s: s.time["scnlstm.cell_forward"]),
    ("scnlstm.cell_forward.gflop_s", "GFLOP/s", "higher",
     lambda s: s.gflop_s("scnlstm.cell_forward")),
    ("scnlstm.cell_backward.calls", "count", "lower", lambda s: s.calls["scnlstm.cell_backward"]),
    ("scnlstm.cell_backward.s", "s", "lower", lambda s: s.time["scnlstm.cell_backward"]),
    ("scnlstm.cell_backward.gflop_s", "GFLOP/s", "higher",
     lambda s: s.gflop_s("scnlstm.cell_backward")),
    ("scnlstm.batch_loss.s", "s", "lower", lambda s: s.time["scnlstm.batch_loss"]),
    ("scnlstm.batch_loss.self_s", "s", "lower", lambda s: s.self_time["scnlstm.batch_loss"]),
    ("scnlstm.batch_loss.tokens", "count", "higher",
     lambda s: s.attrs["scnlstm.batch_loss"]["tokens"]),
    ("scnlstm.batch_nll.s", "s", "lower", lambda s: s.time["scnlstm.batch_nll"]),
    ("scnlstm.train_captioner.self_s", "s", "lower",
     lambda s: s.self_time["scnlstm.train_captioner"]),
    ("scnlstm.step_probs.calls", "count", "lower", lambda s: s.calls["scnlstm.step_probs"]),
    ("scnlstm.step_probs.s", "s", "lower", lambda s: s.time["scnlstm.step_probs"]),
    ("scnlstm.step_probs.rows_per_call", "count", "higher",
     lambda s: s.ratio("scnlstm.step_probs", "rows")),
    ("scnlstm.ensemble_beam_search.self_s", "s", "lower",
     lambda s: s.self_time["scnlstm.ensemble_beam_search"]),
    ("scnlstm.ensemble_beam_search.forced_frac", "fraction", "lower",
     lambda s: s.ratio("scnlstm.ensemble_beam_search", "forced")),
    ("scnlstm.ensemble_beam_search.steps", "count", "lower",
     lambda s: s.ratio("scnlstm.ensemble_beam_search", "steps")),
    ("metrics.attribute_f1.s", "s", "lower", lambda s: s.time["metrics.attribute_f1"]),
    ("metrics.attribute_f1.scored_frac", "fraction", "higher",
     lambda s: s.ratio("metrics.attribute_f1", "scored", "cells")),
    ("metrics.bleu.s", "s", "lower", lambda s: s.time["metrics.bleu"]),
    ("metrics.rouge_l.s", "s", "lower", lambda s: s.time["metrics.rouge_l"]),
    ("metrics.cider_d.s", "s", "lower", lambda s: s.time["metrics.cider_d"]),
]

# Metrics over samples pooled from all traced repeats, or of the run.
POOLED = [
    ("scnlstm.ensemble_beam_search.median_s", "s", "lower"),
    ("scnlstm.ensemble_beam_search.tail_s", "s", "lower"),
    ("machine.dgemm_gflop_s", "GFLOP/s", "higher"),
    ("trace.overhead_frac", "fraction", "lower"),
]

PER_LAYER = [(name, unit, better) for name, unit, better, _ in PER_REPEAT] + POOLED


def tail(samples, beyond=10):
    """Highest order statistic with at least ``beyond`` samples above it.

    Returns ``(value, percentile, n)``. That statistic lies above the
    median only from ``2 * beyond + 1`` samples on; with fewer, the
    maximum is returned at the 100th percentile, so the tail never
    reads below the median.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * beyond + 1:
        return (ordered[-1] if ordered else 0.0), 100.0, n
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def per_layer_metrics(tracer, untraced_walls, traced_walls, dgemm):
    """Medians over traced repeats of each per-repeat metric, plus pooled ones.

    Returns ``(metrics, notes)``; ``notes`` states the sample behind the
    beam-search tail.
    """
    by_repeat = defaultdict(list)
    for span in tracer.spans:
        by_repeat[span[2]].append(span)
    summaries = [RepeatSummary(spans) for _, spans in sorted(by_repeat.items())]
    values = {name: statistics.median(fn(s) for s in summaries)
              for name, _, _, fn in PER_REPEAT}
    beams = [span[5] - span[4] for span in tracer.spans
             if span[3] == "scnlstm.ensemble_beam_search"]
    tail_value, percentile, n = tail(beams)
    values["scnlstm.ensemble_beam_search.median_s"] = statistics.median(beams) if beams else 0.0
    values["scnlstm.ensemble_beam_search.tail_s"] = tail_value
    values["machine.dgemm_gflop_s"] = dgemm
    values["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0)
    units = {name: unit for name, unit, _ in PER_LAYER}
    metrics = {name: {"value": values[name], "unit": units[name]} for name, _, _ in PER_LAYER}
    notes = {"beam_tail": {"percentile": percentile, "images": n},
             "gflop_s": "flops computed from argument shapes, divided by measured time",
             "traced_repeats": len(summaries), "attrcap": attrcap.__file__}
    return metrics, notes


def dgemm_gflop_s(size=1024, repeats=5):
    """Median float64 GEMM rate of one square product, in GFLOP/s."""
    a = np.linspace(0.0, 1.0, size * size).reshape(size, size)
    b = a.T.copy()
    rates = []
    for _ in range(repeats):
        start = perf_counter()
        a @ b
        rates.append(2.0 * size ** 3 / (perf_counter() - start) / 1e9)
    return statistics.median(rates)
