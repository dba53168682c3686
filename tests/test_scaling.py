"""Memory-scaling gates: working memory grows with the number of images
by no more than the arrays that must be held.

Each gate runs one step of the feature path, or the attribute reader,
under ``tracemalloc`` at N and 4N images and bounds the growth of its
peak by 3N times the step's budget of bytes per image, plus a constant
for small objects. The worker pool is already running (``conftest.py``),
so no gate counts starting its threads. No budget holds a float64 copy
of the features: they stay float32 until a model widens the batch or
block it computes on. The attribute reader's budget holds no Python
object per pair: each record's pairs are kept as two arrays.
"""

import tracemalloc

import numpy as np
import pytest

from attrcap import attrnet, storage
from attrcap.attrnet import AttrNet, AttrNetConfig, AttrTrainConfig
from attrcap.cli import main
from attrcap.nncore import Rng

# Two of predict_ensemble's row blocks, so predict-attr runs whole blocks.
N = 2 * attrnet._PREDICT_BLOCK
CONFIG = AttrNetConfig(n_words=4, feature_dim=256, hidden_dim=16)
SLACK = 2 ** 16

# Bytes per image of each step's budget.
RECORD = 8 + 4 * CONFIG.feature_dim  # the u64 id and float32 values as stored
CHECK = CONFIG.feature_dim + 1  # the finiteness check's booleans and row flag
ID = 8 + 28  # the id as a Python int, and its list slot
PREDICTION = 8 * CONFIG.n_words
# The attribute file of the reader's gate: every other word is nonzero.
ATTR_WIDTH = 64
STORED_PAIRS = ATTR_WIDTH // 2
BUDGETS = {
    "read_features": RECORD + CHECK + ID,
    "predict-attr": RECORD + CHECK + ID + PREDICTION,
    # The joined attribute rows, their int64 row index, and 256 bytes for
    # the id sets and the id-to-row map (176 bytes per image in all, measured).
    "join_on_image_id": PREDICTION + 8 + 256,
    # An epoch's row order and the uniform draws that shuffle it.
    "train_attrnet": 16,
    # The matrix row, an int64 index and a float64 value per stored
    # pair, the record's two array objects (112 bytes each), their tuple
    # and its list slot (56 + 8), and the id.
    "load_attributes": 8 * ATTR_WIDTH + 16 * STORED_PAIRS + 2 * 112 + 56 + 8 + ID,
}


def traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def step_on(step, root, n):
    """A callable that runs ``step`` on ``n`` images; the inputs it needs
    are made here, outside the traced run."""
    rng = Rng(n)
    if step == "load_attributes":
        matrix = np.abs(rng.normal((n, ATTR_WIDTH))) + 0.5
        matrix[:, 1::2] = 0.0
        storage.write_attributes(root / f"{n}.jsonl", range(n), matrix)
        return lambda: storage.load_attributes(root / f"{n}.jsonl")
    path = root / f"{n}.daef"
    storage.write_features(path, range(n), rng.normal((n, CONFIG.feature_dim)))
    if step == "read_features":
        return lambda: storage.read_features(path)
    if step == "predict-attr":
        attrnet.save_attrnet_ensemble(root / "attr.daec", [AttrNet(CONFIG, seed=1)])
        argv = ["predict-attr", "--features", path, "--model", root / "attr.daec",
                "--out-attrs", root / f"{n}.jsonl"]

        def predict():
            assert main(argv) == 0

        return predict
    ids, rows = storage.read_features(path)
    y = np.abs(rng.normal((n, CONFIG.n_words)))
    if step == "join_on_image_id":
        attr_ids, attrs = ids[::-1], y[::-1]
        return lambda: attrnet.join_on_image_id(ids, rows, attr_ids, attrs)
    train_config = AttrTrainConfig(epochs=1, batch_size=64)
    return lambda: attrnet.train_attrnet(rows, y, CONFIG, train_config)


@pytest.mark.parametrize("step", sorted(BUDGETS))
def test_feature_path_grows_by_its_budget_alone(tmp_path, step):
    small, large = (traced_peak(step_on(step, tmp_path, n)) for n in (N, 4 * N))
    assert large - small <= 3 * N * BUDGETS[step] + SLACK
