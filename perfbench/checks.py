"""Correctness checks computed apart from the program.

The ranking metrics here are written from their definitions (pairwise
Mann-Whitney, average precision over positives) rather than taken from
`cbforest.metrics`, so a fault there cannot hide from the comparison.
"""
from __future__ import annotations

import math

import numpy as np

# The model must reach this share of the AUC-PRC that the generator's own
# noiseless latent score reaches on the same library rows.
MIN_AUC_PRC_SHARE = 0.5
# Calibration tolerance, in binomial standard errors of the positive rate
# over the training and library rows together.
CALIBRATION_SIGMAS = 4.0
ONE_ROW_RTOL = 1e-12
METRIC_ATOL = 1e-12


def auc_roc_pairwise(scores, labels):
    """Share of (positive, negative) pairs ranked correctly, ties half."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    diff = pos[:, None] - neg[None, :]
    return float(((diff > 0).sum() + 0.5 * (diff == 0).sum())
                 / (len(pos) * len(neg)))


def average_precision(scores, labels):
    """Mean over positives of the precision among rows scoring at least as
    high as that positive."""
    pos = scores[labels == 1]
    n_ge = len(scores) - np.searchsorted(np.sort(scores), pos, side="left")
    p_ge = len(pos) - np.searchsorted(np.sort(pos), pos, side="left")
    return float(np.mean(p_ge / n_ge))


def read_metrics_tsv(path):
    out = {}
    with open(path) as f:
        header = f.readline().rstrip("\n").split("\t")
        for line in f:
            row = dict(zip(header, line.rstrip("\n").split("\t")))
            out[row["metric"]] = {k: float("nan") if v == "NA" else float(v)
                                  for k, v in row.items() if k != "metric"}
    return out


def read_scores_tsv(path):
    with open(path) as f:
        f.readline()
        return np.array([float(line.rsplit("\t", 1)[1]) for line in f])


class Checks:
    """Named pass/fail results; `ok` is true when every check passed."""

    def __init__(self):
        self.results = []

    def add(self, name, ok, detail=""):
        self.results.append((name, bool(ok), detail))

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.results)

    def failures(self):
        return [f"{name}: {detail}" for name, ok, detail in self.results
                if not ok]


def check_test_metrics(checks, metrics_tsv, test_pred, test_labels):
    reported = read_metrics_tsv(metrics_tsv)
    for name, fn in (("auc_roc", auc_roc_pairwise),
                     ("auc_prc", average_precision)):
        mine = fn(test_pred, test_labels)
        theirs = reported[name]["test"]
        checks.add(f"test {name} matches metrics.tsv",
                   abs(mine - theirs) <= METRIC_ATOL,
                   f"recomputed {mine!r}, metrics.tsv {theirs!r}")


def check_library(checks, probs, labels, signal, n_train):
    checks.add("library probabilities finite and in (0, 1)",
               np.isfinite(probs).all() and (probs > 0).all()
               and (probs < 1).all())
    model_ap = average_precision(probs, labels)
    oracle_ap = average_precision(signal, labels)
    checks.add("library AUC-PRC reaches its share of the latent signal's",
               model_ap >= MIN_AUC_PRC_SHARE * oracle_ap,
               f"model {model_ap:.4f}, latent signal {oracle_ap:.4f}")
    rate = float(labels.mean())
    mean = float(probs.mean())
    tol = CALIBRATION_SIGMAS * math.sqrt(
        rate * (1 - rate) * (1 / n_train + 1 / len(labels)))
    checks.add("mean library probability within binomial tolerance of the "
               "positive rate", abs(mean - rate) <= tol,
               f"mean {mean:.5f}, rate {rate:.5f}, tolerance {tol:.5f}")
    return {"model_auc_prc": model_ap, "signal_auc_prc": oracle_ap,
            "mean_probability": mean, "positive_rate": rate}


def check_bitwise(checks, name, got, want):
    same = got.shape == want.shape and np.array_equal(got, want)
    detail = "" if same else (
        f"shapes {got.shape} vs {want.shape}" if got.shape != want.shape
        else f"{int((got != want).sum())} of {got.size} values differ")
    checks.add(name, same, detail)


def check_one_row(checks, one_row, batch):
    rel = np.abs(one_row - batch) / np.abs(batch)
    checks.add("one-row predictions equal the batch rows",
               (rel <= ONE_ROW_RTOL).all(),
               f"max relative difference {float(rel.max()):.3g}")
