"""The benchmark's tracer (``perfbench/tracer.py``) still fits the package.

The tracer wraps attrcap functions and methods by name and reads some of
their arguments and return values by name too. A renamed parameter or a
deleted entry point breaks only traced benchmark runs, so this test runs
a tiny pipeline under :meth:`Tracer.phase` and checks every traced name,
every probe and the per-layer metrics built from the spans.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

from attrcap import attrnet, cli, scnlstm, storage
from attrcap.nncore import Rng

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

CAPTIONS = {"annotations": [
    {"image_id": image_id, "id": 10 * image_id + k, "caption": caption}
    for image_id, pair in enumerate([
        ("a red bird on a branch", "the red bird rests"),
        ("a yellow dog on grass", "the dog chases a ball"),
        ("a red ball on the grass", "the ball is red"),
        ("a bird and a dog play", "the dog watches the bird"),
    ], start=1)
    for k, caption in enumerate(pair)
]}

PIPELINE = [
    ["extract", "--captions", "captions.json", "--idf-threshold", "1.3",
     "--out-vocab", "vocab.json", "--out-attrs", "gt.jsonl"],
    ["vocab-report", "--captions", "captions.json", "--thresholds", "1.0,1.3"],
    ["train-attr", "--features", "feats.daef", "--attrs", "gt.jsonl",
     "--out-model", "attr.daec", "--hidden", "4", "--epochs", "1",
     "--batch-size", "2", "--ensemble", "2"],
    ["predict-attr", "--features", "feats.daef", "--model", "attr.daec",
     "--out-attrs", "pred.jsonl"],
    ["eval-attr", "--pred", "pred.jsonl", "--gt", "gt.jsonl"],
    ["train-captioner", "--captions", "captions.json", "--features", "feats.daef",
     "--attrs", "pred.jsonl", "--out-model", "cap.daec", "--min-count", "1",
     "--embed-dim", "3", "--hidden", "4", "--factor", "4", "--batch-size", "4",
     "--epochs", "1", "--val-fraction", "0.25"],
    ["caption", "--features", "feats.daef", "--attrs", "pred.jsonl",
     "--model", "cap.daec", "--beam", "2", "--max-len", "3", "--out", "decoded.jsonl"],
    ["eval-captions", "--candidates", "decoded.jsonl", "--references", "captions.json"],
]


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_and_every_probe_records(tmp_path, monkeypatch, capsys):
    tracer = load_tracer()
    traced = {f"{tracer._layer(module)}.{attr}": getattr(module, attr, None)
              for module, names in tracer.FUNCTIONS.items() for attr in names}
    traced.update({f"{tracer._layer(module)}.{attr}": getattr(cls, attr, None)
                   for (module, cls), names in tracer.METHODS.items() for attr in names})
    assert [name for name, function in traced.items() if not callable(function)] == []
    assert set(tracer.PROBES) <= set(traced)

    monkeypatch.chdir(tmp_path)
    (tmp_path / "captions.json").write_text(json.dumps(CAPTIONS))
    storage.write_features(tmp_path / "feats.daef", [1, 2, 3, 4], Rng(5).normal((4, 6)))
    spans = tracer.Tracer()
    with spans.phase(0):
        for argv in PIPELINE:
            code = cli.main(argv)
            assert code == 0, (argv[0], capsys.readouterr().err)
        models, vocab = scnlstm.load_captioner_ensemble("cap.daec")
        features = storage.read_features("feats.daef")[1]
        attrs = storage.load_attributes("pred.jsonl")[1]
        scnlstm.ensemble_beam_search(models, features[0], attrs[0], beam_width=2, max_len=3)
        scnlstm.save_captioner("one.daec", models[0], vocab)
        # The CLI and the model savers stream members through
        # storage.CheckpointWriter, so drive the one-shot save directly.
        storage.save_checkpoint("plain.daec", models[0].tensors(), {})
        # Training updates the attribute predictor layer by layer as its
        # backward pass runs, not through the whole-batch loss: drive
        # that directly.
        net = storage.load_ensemble("attr.daec", attrnet.AttrNet)[0][0]
        net.loss(features, storage.load_attributes("gt.jsonl")[1], mode="inference")
        # Teacher forcing runs no per-step cell, so drive the one-step
        # backward the tracer wraps directly.
        model, state = models[0], np.zeros((1, models[0].config.hidden_dim))
        _, _, cache = model.cell_forward(model.params["embed"][:1], state, state, attrs[:1])
        model.cell_backward(state + 1.0, state, cache,
                            {name: np.zeros_like(v) for name, v in model.params.items()})

    recorded = {span[3] for span in spans.spans}
    probed = {span[3] for span in spans.spans if span[6] is not None}
    assert sorted(set(traced) - recorded) == []
    assert sorted(set(tracer.PROBES) - probed) == []
    metrics, _ = tracer.per_layer_metrics(spans, [1.0], [1.0], 1.0)
    assert all(np.isfinite(entry["value"]) for entry in metrics.values())
    assert metrics["scnlstm.ensemble_beam_search.steps"]["value"] > 0
