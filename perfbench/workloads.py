"""The benchmark's fingerprint workloads and the inputs they are built from.

Every input is a function of the workload and the `--seed` argument alone.
Training rows and library rows are drawn by `cbforest.synth.make_synthetic`
from the same distribution; the library is drawn in chunks so that a wide
library never needs one large dense random matrix, and its binary labels use
the training file's threshold, exactly as `cbforest train` binarizes.

The training set is the same for every `--seed`; the seed draws the library
that is scored and the rows scored one at a time. Early stopping on a noisy
validation curve makes each base model's optimal round, and so the number of
trees every prediction walks, close to random per training set: with the
training set drawn from the seed, `predict_one_ms` and `score_rows_per_s`
spread by about 30 % across seeds for that reason alone.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from cbforest.data import SparseDataset
from cbforest.synth import make_synthetic

# Run seed written into every config. It fixes the hyper-parameter draws,
# folds and test split, so run-to-run differences come from the data alone.
# Its draws: trees of depth 5 (lr 0.102 and 0.095), linear lr 0.118 and 0.043.
RUN_SEED = 3
TRAIN_DATA_SEED = 0
POS_RATE = 0.05
SIGNAL = 16          # informative leading features, as in acceptance W1
NOISE = 2.5
K = 3
MAX_ROUNDS = 100
PATIENCE = 25
# Layer 2 never converges today, so each fit runs to its iteration cap. The
# library default of 20000 would spend about a minute in layer 2 alone; at
# 1000 every fit still runs to the cap, at 10-15 % of train_s.
LAYER2_MAX_ITER = 1000
LIBRARY_CHUNK = 5000


@dataclass(frozen=True)
class Workload:
    name: str
    n_train: int
    n_library: int
    n_features: int
    density: float
    H: int
    workers: int
    counts: bool     # redraw present feature values as integers 1..5


WORKLOADS = {w.name: w for w in (
    Workload("fp-binary", 3000, 5000, 96, 0.1, H=4, workers=2, counts=False),
    Workload("fp-counts", 3000, 5000, 32, 0.1, H=2, workers=1, counts=True),
    Workload("fp-wide", 2000, 4000, 1024, 0.05, H=2, workers=1, counts=False),
)}


def _seed(*keys):
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def _concat(parts):
    indptr = [np.zeros(1, dtype=np.int64)]
    offset = 0
    for p in parts:
        indptr.append(p.indptr[1:] + offset)
        offset += p.indptr[-1]
    return SparseDataset(
        sum(p.n_rows for p in parts), parts[0].n_cols, np.concatenate(indptr),
        np.concatenate([p.indices for p in parts]),
        np.concatenate([p.values for p in parts]),
        continuous_labels=np.concatenate([p.continuous_labels for p in parts]))


def _library_chunks(w, seed, noise):
    for start in range(0, w.n_library, LIBRARY_CHUNK):
        n = min(LIBRARY_CHUNK, w.n_library - start)
        yield make_synthetic(n, w.n_features, POS_RATE, SIGNAL,
                             _seed(seed, 1, start), density=w.density,
                             noise=noise)[0]


def generate(w, seed):
    """Training set, its label threshold, and the library to score."""
    train, threshold = make_synthetic(
        w.n_train, w.n_features, POS_RATE, SIGNAL, _seed(TRAIN_DATA_SEED, 0),
        density=w.density, noise=NOISE)
    library = _concat(list(_library_chunks(w, seed, NOISE)))
    library.binary_labels = (library.continuous_labels > threshold).astype(
        np.int8)
    if w.counts:
        for ds, key in ((train, TRAIN_DATA_SEED), (library, seed)):
            rng = np.random.default_rng(_seed(key, 2))
            ds.values = rng.integers(1, 6, size=ds.values.size).astype(float)
    return train, threshold, library


def library_signal(w, seed, library):
    """The generator's noiseless latent score for every library row.

    The same chunks are drawn again with zero noise: the feature draws come
    first and do not depend on the noise level, so the rows are identical and
    the continuous label is the informative part alone.
    """
    parts = list(_library_chunks(w, seed, 0.0))
    clean = _concat(parts)
    if not (np.array_equal(clean.indptr, library.indptr)
            and np.array_equal(clean.indices, library.indices)):
        raise RuntimeError("noiseless library draw has different rows")
    return clean.continuous_labels


def write_inputs(w, train, threshold, library, work, workers):
    """Write train.svm, library.svm and config.json; return their paths."""
    paths = {"train": work / "train.svm", "library": work / "library.svm",
             "config": work / "config.json", "out": work / "out"}
    train.save_svmlight(paths["train"], "continuous")
    library.save_svmlight(paths["library"], "continuous")
    config = {
        "train_path": str(paths["train"]),
        "label": {"kinds": ["binary", "continuous"],
                  "file_label": "continuous", "threshold": threshold},
        "H": w.H, "K": K, "seed": RUN_SEED,
        "stop_metric": {"kind": "auc_roc"},
        "max_rounds": MAX_ROUNDS, "patience": PATIENCE,
        "layer2": {"max_iter": LAYER2_MAX_ITER},
        "workers": workers, "output_dir": str(paths["out"]),
    }
    with open(paths["config"], "w") as f:
        json.dump(config, f, indent=2)
    return paths
