"""Synthetic rare-event screening data with paired continuous/binary labels.

A handful of informative binary features shift a latent continuous activity
score; the binary label thresholds that score. The threshold is estimated
from an independent large sample of the same latent distribution so that the
positive count is binomial around n * pos_rate.
"""
from __future__ import annotations

import json

import numpy as np

from .data import GREATER_IS_POSITIVE, DataError, SparseDataset

_THRESHOLD_SAMPLE = 200_000


def _latent(bits, weights, noise, rng):
    z = rng.normal(0.0, noise, size=bits.shape[0])
    if weights.size:
        z = z + bits[:, :len(weights)] @ weights
    return z


def make_synthetic(n, n_features, pos_rate, signal, seed, *, density=0.1,
                   noise=1.0):
    """Generate a sparse binary-feature dataset; returns (dataset, threshold)."""
    if not (0.0 < pos_rate < 1.0):
        raise DataError("pos_rate must lie in (0, 1)")
    if n < 1 or n_features < 1:
        raise DataError("n and n_features must be positive")
    if not (0 <= signal <= n_features):
        raise DataError("signal must lie in [0, n_features]")
    weights = np.linspace(2.5, 0.5, signal) if signal else np.zeros(0)

    aux_rng = np.random.default_rng(np.random.SeedSequence([seed, 7211]))
    aux_bits = aux_rng.random((_THRESHOLD_SAMPLE, max(signal, 1))) < density
    threshold = float(np.quantile(
        _latent(aux_bits, weights, noise, aux_rng), 1.0 - pos_rate))

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    bits = rng.random((n, n_features)) < density
    latent = _latent(bits, weights, noise, rng)
    binary = (latent > threshold).astype(np.int8)

    rows_idx, cols_idx = np.nonzero(bits)
    indptr = np.searchsorted(rows_idx, np.arange(n + 1))
    ds = SparseDataset(n, n_features, indptr, cols_idx,
                       np.ones(len(cols_idx)),
                       continuous_labels=latent, binary_labels=binary)
    return ds, threshold


def write_synthetic(out_path, n, n_features, pos_rate, signal, seed, *,
                    density=0.1, noise=1.0):
    """Write an SVMLight file (continuous labels) plus a JSON sidecar.

    The sidecar records the threshold and direction needed to recover the
    binary labels; deterministic bytes for a fixed seed.
    """
    ds, threshold = make_synthetic(n, n_features, pos_rate, signal, seed,
                                   density=density, noise=noise)
    ds.save_svmlight(out_path, "continuous")
    meta = {
        "threshold": threshold,
        "direction": GREATER_IS_POSITIVE,
        "n": n,
        "n_features": n_features,
        "pos_rate": pos_rate,
        "signal": signal,
        "seed": seed,
        "density": density,
        "noise": noise,
        "n_positive": int(ds.binary_labels.sum()),
    }
    with open(str(out_path) + ".meta.json", "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")
    return ds, threshold
