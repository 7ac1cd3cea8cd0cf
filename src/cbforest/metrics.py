"""Ranking and probability-quality metrics for rare-event screening.

Implements AUC-ROC (midrank Mann-Whitney), average-precision AUC-PRC,
BEDROC-style early-retrieval AUC, enrichment factor at a top fraction,
summed logistic loss, and a quantile-binned reliability score.

AUC-ROC sums the positives' midranks over the sorted scores: a score with
`lo` scores below it and `hi` at or below it shares the ranks lo+1..hi with
its ties, so its midrank is (lo + hi + 1) / 2, and both counts come from a
binary search of the sorted scores. The sum is taken in integers and halved
once; midranks are half-integers, so it equals the float sum of
`scipy.stats.rankdata` ranks bit for bit (kept as a test oracle). Any NaN
score gives NaN, as `rankdata` does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Fixed shuffle seed used to resolve score ties deterministically in the
# rank-based metrics (bedroc, enrichment factor).
_TIE_SEED = 902119

_KINDS = ("auc_roc", "auc_prc", "auc_bed", "ef", "logloss", "reliability_score")
GREATER_IS_BETTER = {
    "auc_roc": True,
    "auc_prc": True,
    "auc_bed": True,
    "ef": True,
    "logloss": False,
    "reliability_score": False,
}


class MetricError(ValueError):
    """Metric preconditions violated (degenerate labels, bad parameters)."""


@dataclass(frozen=True)
class MetricSpec:
    """A metric selection plus its required parameters."""

    kind: str
    t: float | None = None
    alpha: float | None = None
    n_bins: int = 10

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise MetricError(f"unknown metric kind {self.kind!r}")
        if self.kind == "ef":
            if self.t is None or not (0.0 < self.t < 1.0):
                raise MetricError("ef requires a fraction t in (0, 1)")
        if self.kind == "auc_bed" and self.alpha is not None \
                and not 0 < self.alpha < math.inf:
            raise MetricError("auc_bed alpha must be positive and finite")
        if self.kind == "reliability_score" and self.n_bins < 1:
            raise MetricError("n_bins must be at least 1")

    @property
    def greater_is_better(self):
        return GREATER_IS_BETTER[self.kind]

    def label(self):
        if self.kind == "ef":
            return f"ef@{self.t:g}"
        if self.kind == "auc_bed":
            return f"auc_bed(alpha={self.alpha if self.alpha is not None else 20:g})"
        return self.kind


def evaluate(spec: MetricSpec, scores, labels) -> float:
    """Evaluate a metric spec; returns the metric's natural value."""
    if spec.kind == "auc_roc":
        return auc_roc(scores, labels)
    if spec.kind == "auc_prc":
        return auc_prc(scores, labels)
    if spec.kind == "auc_bed":
        return auc_bed(scores, labels,
                       alpha=20.0 if spec.alpha is None else spec.alpha)
    if spec.kind == "ef":
        return enrichment_factor(scores, labels, spec.t)
    if spec.kind == "logloss":
        return logloss(scores, labels)
    return reliability_score(scores, labels, n_bins=spec.n_bins)


def oriented_score(spec: MetricSpec, scores, labels) -> float:
    """Evaluate with larger-is-better orientation (loss metrics negated)."""
    v = evaluate(spec, scores, labels)
    return v if spec.greater_is_better else -v


def _check(scores, labels, need_negative=False):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise MetricError("scores and labels length mismatch")
    n_pos = int((labels == 1).sum())
    if n_pos == 0:
        raise MetricError("no positive labels")
    if need_negative and n_pos == len(labels):
        raise MetricError("no negative labels")
    return scores, labels.astype(np.int8), n_pos


def _shuffled_descending_order(scores):
    """Row order by descending score, ties broken by a seeded stable shuffle."""
    rng = np.random.default_rng(_TIE_SEED)
    perm = rng.permutation(len(scores))
    return perm[np.argsort(-scores[perm], kind="stable")]


def auc_roc(scores, labels) -> float:
    """Mann-Whitney AUC with midrank tie handling."""
    scores, labels, n_pos = _check(scores, labels, need_negative=True)
    n_neg = len(labels) - n_pos
    if np.isnan(scores).any():
        return math.nan
    s = np.sort(scores)
    pos = scores[labels == 1]
    twice_rank_sum = (np.searchsorted(s, pos, "left").sum()
                      + np.searchsorted(s, pos, "right").sum() + n_pos)
    rank_sum = int(twice_rank_sum) / 2.0
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0)
                 / (n_pos * n_neg))


def auc_prc(scores, labels) -> float:
    """Average precision; equal scores share their group-level precision."""
    scores, labels, n_pos = _check(scores, labels)
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    l = labels[order]
    # group boundaries: last index of each run of equal scores
    boundary = np.flatnonzero(np.diff(s) != 0)
    ends = np.append(boundary, len(s) - 1)
    tp_cum = np.cumsum(l)[ends]
    rank_cum = ends + 1.0
    pos_in_group = tp_cum - np.concatenate(([0], tp_cum[:-1]))
    return float((pos_in_group * (tp_cum / rank_cum)).sum() / n_pos)


def auc_bed(scores, labels, alpha=20.0) -> float:
    """BEDROC early-retrieval AUC with sharpness parameter alpha."""
    if alpha <= 0:
        raise MetricError("alpha must be positive")
    scores, labels, n_pos = _check(scores, labels, need_negative=True)
    n = len(labels)
    order = _shuffled_descending_order(scores)
    ranks = np.flatnonzero(labels[order] == 1) + 1  # 1-based
    ra = n_pos / n
    s = np.exp(-alpha * ranks / n).sum() / n_pos
    rie = s / ((1.0 / n) * (1.0 - math.exp(-alpha)) / (math.exp(alpha / n) - 1.0))
    factor = (ra * math.sinh(alpha / 2.0)
              / (math.cosh(alpha / 2.0) - math.cosh(alpha / 2.0 - alpha * ra)))
    return float(rie * factor + 1.0 / (1.0 - math.exp(alpha * (1.0 - ra))))


def enrichment_factor(scores, labels, t) -> float:
    """Positive rate among the top ceil(t*N) rows relative to the base rate.

    Ties at the cutoff are resolved by the same seeded stable shuffle used
    for auc_bed, so results are deterministic.
    """
    if not (0.0 < t < 1.0):
        raise MetricError("t must be a fraction in (0, 1)")
    scores, labels, n_pos = _check(scores, labels)
    n = len(labels)
    top_n = math.ceil(t * n)
    order = _shuffled_descending_order(scores)
    hits = int(labels[order[:top_n]].sum())
    return float((hits / top_n) / (n_pos / n))


def logloss(scores, labels, eps=1e-15, mean=False) -> float:
    """Logistic loss summed over records; scores clipped to [eps, 1-eps]."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if scores.shape != labels.shape:
        raise MetricError("scores and labels length mismatch")
    if scores.size and (scores.min() < 0.0 or scores.max() > 1.0):
        raise MetricError("scores must lie in [0, 1]")
    p = np.clip(scores, eps, 1.0 - eps)
    total = float(-(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)).sum())
    return total / len(scores) if mean else total


@dataclass(frozen=True)
class ReliabilityBins:
    """Quantile-bin summary: (mean_predicted, positive_rate, count) per bin."""

    mean_predicted: np.ndarray
    positive_rate: np.ndarray
    counts: np.ndarray
    overall_positive_rate: float


def reliability_bins(scores, labels, n_bins=10) -> ReliabilityBins:
    """Split rows into near-equal quantile bins ordered by ascending score.

    The remainder of n / n_bins goes to the earliest (lowest-score) bins.
    Ties keep their stable original order.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise MetricError("scores and labels length mismatch")
    if n_bins < 1:
        raise MetricError("n_bins must be at least 1")
    n = len(scores)
    if n < n_bins:
        raise MetricError(f"need at least n_bins={n_bins} rows, got {n}")
    order = np.argsort(scores, kind="stable")
    base, rem = divmod(n, n_bins)
    sizes = np.full(n_bins, base, dtype=np.int64)
    sizes[:rem] += 1
    ends = np.cumsum(sizes)
    starts = ends - sizes
    mean_pred = np.empty(n_bins)
    pos_rate = np.empty(n_bins)
    for b in range(n_bins):
        idx = order[starts[b]:ends[b]]
        mean_pred[b] = scores[idx].mean()
        pos_rate[b] = (labels[idx] == 1).mean()
    return ReliabilityBins(mean_pred, pos_rate, sizes,
                           float((labels == 1).mean()))


def reliability_score(scores, labels, n_bins=10) -> float:
    """Mean absolute bin miscalibration normalized by the base positive rate."""
    bins = reliability_bins(scores, labels, n_bins=n_bins)
    if bins.overall_positive_rate == 0.0:
        raise MetricError("reliability score undefined with zero positives")
    return float(np.mean(np.abs(bins.mean_predicted - bins.positive_rate))
                 / bins.overall_positive_rate)
