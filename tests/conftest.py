"""Shared fixtures: the three-image caption corpus and tiny helpers."""

from pathlib import Path

import pytest

from attrcap.corpus import build_documents, parse_caption_file

DATA_DIR = Path(__file__).parent / "data"

T1_PATH = DATA_DIR / "t1_captions.json"


@pytest.fixture(scope="session", autouse=True)
def warm_worker_pool():
    """Start the process-wide worker pool and run it once before any
    test, so that no test's ``tracemalloc`` gate counts importing
    ``concurrent.futures`` or starting the pool's threads."""
    from attrcap import nncore

    nncore.worker_pool().map(abs, [-1, 1])


@pytest.fixture(scope="session")
def t1_pairs():
    return parse_caption_file(T1_PATH)


@pytest.fixture(scope="session")
def t1_documents(t1_pairs):
    return build_documents(t1_pairs, apply_stemming=False)


@pytest.fixture
def per_gate_checkpoint():
    """Writer of decoder checkpoints in the per-gate layout (``Wia``,
    ``Wib``, ..., ``bc``) used before the gate weights were stacked."""
    from dataclasses import asdict

    from attrcap.scnlstm import ScnLstm
    from attrcap.storage import save_checkpoint

    def write(path, config, vocab_words):
        p = ScnLstm(config, seed=0).params
        f, h = config.factor_dim, config.hidden_dim
        tensors = {}
        for slot, gate in enumerate("ifoc"):
            tensors[f"W{gate}a"] = p["Wa"][slot]
            tensors[f"U{gate}a"] = p["Ua"][slot]
            for name in ("Wb", "Wc", "Ub", "Uc"):
                tensors[f"{name[0]}{gate}{name[1]}"] = p[name][slot * f:(slot + 1) * f]
            tensors[f"b{gate}"] = p["b"][slot * h:(slot + 1) * h]
        for name in ("Cv", "embed", "Wout", "bout"):
            tensors[name] = p[name]
        save_checkpoint(path, tensors, {"kind": "scnlstm", "net": asdict(config),
                                        "vocab_words": list(vocab_words)})

    return write


@pytest.fixture
def stored_rows(tmp_path):
    """Writer of an (N, dim) array to a feature file; returns the rows
    that ``storage.read_features`` reads back: read-only float32 rows of
    the file's records, a strided view."""
    from attrcap import storage

    def store(x):
        storage.write_features(tmp_path / "rows.daef", range(len(x)), x)
        return storage.read_features(tmp_path / "rows.daef")[1]

    return store


@pytest.fixture
def pool_of(monkeypatch):
    """Installer of a fresh process-wide worker pool of a given size,
    undone after the test."""
    from attrcap import nncore

    def install(workers):
        monkeypatch.setattr(nncore, "_POOL", nncore.WorkerPool(workers))

    return install
