"""Gradient boosting core: tree and linear weak learners, logistic and
quadratic losses, early stopping on a pluggable larger-is-better metric.

Trees use second-order (Newton) boosting with the regularized split gain
    1/2 * [GL^2/(HL+lam) + GR^2/(HR+lam) - (GL+GR)^2/(HL+HR+lam)] - gamma
and exact enumeration over each feature's distinct present values, done on
per-node histograms of the binned training values. Rows where the split
feature is absent follow a per-split default direction learned as the side
maximizing gain.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .data import DataError, LabelMapping, SparseDataset, binarize
from .metrics import MetricError, MetricSpec, oriented_score

LOGISTIC = "logistic"
QUADRATIC = "quadratic"
GBTREE = "gbtree"
GBLINEAR = "gblinear"


class TrainingError(RuntimeError):
    """Raised when a boosting run cannot proceed."""


@dataclass(frozen=True)
class TreeHyperParams:
    gamma: float = 0.0
    max_depth: int = 6
    min_child_weight: float = 1.0
    max_delta_step: float = 0.0
    subsample: float = 1.0
    colsample_bytree: float = 1.0
    colsample_bylevel: float = 1.0
    reg_lambda: float = 1.0
    reg_alpha: float = 0.0
    learning_rate: float = 0.1

    def __post_init__(self):
        if self.gamma < 0 or self.min_child_weight < 0 or self.max_delta_step < 0:
            raise ValueError("gamma, min_child_weight, max_delta_step must be >= 0")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        for name in ("subsample", "colsample_bytree", "colsample_bylevel",
                     "learning_rate"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.0):
                raise ValueError(f"{name} must lie in (0, 1]")
        if self.reg_lambda < 0 or self.reg_alpha < 0:
            raise ValueError("reg_lambda and reg_alpha must be >= 0")


@dataclass(frozen=True)
class LinearHyperParams:
    reg_lambda: float = 0.0
    reg_alpha: float = 0.0
    reg_lambda_bias: float = 0.0
    learning_rate: float = 0.5

    def __post_init__(self):
        if min(self.reg_lambda, self.reg_alpha, self.reg_lambda_bias) < 0:
            raise ValueError("regularization weights must be >= 0")
        if not (0.0 < self.learning_rate <= 1.0):
            raise ValueError("learning_rate must lie in (0, 1]")


@dataclass
class TreeNode:
    feature: int = -1
    split_value: float = 0.0
    default_left: bool = True
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    leaf_value: float | None = None

    @property
    def is_leaf(self):
        return self.leaf_value is not None


@dataclass
class DecisionTree:
    root: TreeNode

    def n_leaves(self):
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                count += 1
            else:
                stack.extend((node.left, node.right))
        return count


@dataclass
class LinearDelta:
    bias: float
    weights: np.ndarray


@dataclass
class GbmModel:
    """A boosted model: base score plus `learning_rate` times its learners.

    `train_gbm` keeps every round trained and its training log. A model cut
    by `export_gbm` (and so one read back from an archive) holds only what
    `predict_gbm` reads at the optimal round: `optimal_round` equals its
    learner count and `training_log` is None.
    """

    booster: str
    loss: str
    base_score: float
    learning_rate: float
    learners: list
    optimal_round: int
    training_log: list  # (train_score, valid_score) per round, index 0 = no learners
    n_cols: int


def grad_hess(loss, y, raw):
    """Gradient and hessian of the loss w.r.t. the raw score."""
    raw = np.asarray(raw, dtype=float)
    y = np.asarray(y, dtype=float)
    if loss == LOGISTIC:
        p = expit(raw)
        return p - y, p * (1.0 - p)
    if loss == QUADRATIC:
        return raw - y, np.ones_like(raw)
    raise ValueError(f"unknown loss {loss!r}")


class _TrainMatrix:
    """Training view for trees: columns for routing, bins for splits.

    Every stored value gets a bin id. Bins number the distinct (feature,
    value) pairs of the stored values in feature order, then value order, so
    each feature's bins form one ascending run. A stored 0.0 is a present
    value like any other.
    """

    def __init__(self, dataset: SparseDataset):
        self.n_rows = dataset.n_rows
        self.n_cols = dataset.n_cols
        self.csc = dataset.to_csc()
        self.indptr = dataset.indptr
        order = np.lexsort((dataset.values, dataset.indices))
        feat = dataset.indices[order]
        vals = dataset.values[order]
        new_bin = np.ones(len(order), dtype=bool)
        new_bin[1:] = (feat[1:] != feat[:-1]) | (vals[1:] != vals[:-1])
        self.bin_of = np.empty(len(order), dtype=np.int64)
        self.bin_of[order] = np.cumsum(new_bin) - 1
        self.bin_feature = feat[new_bin]
        self.bin_value = vals[new_bin]

    def col(self, j):
        s, e = self.csc.indptr[j], self.csc.indptr[j + 1]
        return self.csc.indices[s:e], self.csc.data[s:e]


def _leaf_weight(G, H, params):
    denom = H + params.reg_lambda
    if denom <= 0:
        return 0.0
    w = -G / denom
    if params.max_delta_step > 0:
        w = float(np.clip(w, -params.max_delta_step, params.max_delta_step))
    return float(w)


def _find_best_split(rows, g, h, G, H, feat_mask, tm, params):
    """Best (gain, feature, split_value, default_left) over allowed features.

    G, H and count are summed per bin over the node's stored values, in row
    order. Each allowed feature present in the node offers these candidates:
    present-right/absent-left at its smallest present value, if some node
    rows lack the feature; and at each midpoint between adjacent present
    values, absent rows on the left and, if some rows lack it, on the right.

    Returns None when no split has positive gain. Ties resolve to the lowest
    feature index, then lowest split value, then default-left.
    """
    lam = params.reg_lambda
    mcw = params.min_child_weight
    gamma = params.gamma
    starts = tm.indptr[rows]
    lens = tm.indptr[rows + 1] - starts
    pos = np.arange(lens.sum()) + np.repeat(starts - (np.cumsum(lens) - lens),
                                            lens)
    bins = tm.bin_of[pos]
    n_bins = len(tm.bin_feature)
    Gb = np.bincount(bins, weights=np.repeat(g[rows], lens), minlength=n_bins)
    Hb = np.bincount(bins, weights=np.repeat(h[rows], lens), minlength=n_bins)
    Cb = np.bincount(bins, minlength=n_bins)

    b = np.flatnonzero((Cb > 0) & feat_mask[tm.bin_feature])
    if b.size == 0:
        return None
    feat, vals, Gb, Hb = tm.bin_feature[b], tm.bin_value[b], Gb[b], Hb[b]
    is_first = np.ones(len(b), dtype=bool)
    is_first[1:] = feat[1:] != feat[:-1]
    first = np.flatnonzero(is_first)
    # reduceat returns a lone bin's sum unchanged, so a feature with one
    # present value in the node keeps its row-order sums bit for bit
    Gp = np.add.reduceat(Gb, first)
    Hp = np.add.reduceat(Hb, first)
    missing = np.add.reduceat(Cb[b], first) < len(rows)
    Gm, Hm = G - Gp, H - Hp

    a = np.flatnonzero(missing)
    # bins followed by another bin of the same feature; s is their feature slot
    m = np.flatnonzero(~is_first[1:])
    s = (np.cumsum(is_first) - 1)[m]
    cg = np.zeros(len(b) + 1)
    ch = np.zeros(len(b) + 1)
    np.cumsum(Gb, out=cg[1:])
    np.cumsum(Hb, out=ch[1:])
    GLp = cg[m + 1] - cg[first[s]]
    HLp = ch[m + 1] - ch[first[s]]
    right = missing[s]
    GLm, HLm = GLp + Gm[s], HLp + Hm[s]

    # candidates: present-right/absent-left, then midpoints with absent rows
    # left, then midpoints with absent rows right
    lo = np.concatenate([first[a], m, m[right]])
    kind = np.repeat([0, 1, 2], [len(a), len(m), int(right.sum())])
    GL = np.concatenate([Gm[a], GLm, GLp[right]])
    HL = np.concatenate([Hm[a], HLm, HLp[right]])
    GR = np.concatenate([Gp[a], G - GLm, G - GLp[right]])
    HR = np.concatenate([Hp[a], H - HLm, H - HLp[right]])
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = (0.5 * (GL * GL / (HL + lam) + GR * GR / (HR + lam)
                        - G * G / (H + lam)) - gamma)
    ok = (HL >= mcw) & (HR >= mcw) & (gains > 0)
    if not ok.any():
        return None
    best = gains[ok].max()
    # bins ascend by (feature, value), so 3 * lo + kind orders candidates by
    # feature, then threshold, then default-left
    tied = np.flatnonzero(ok & (gains == best))
    i = tied[np.argmin(3 * lo[tied] + kind[tied])]
    j = lo[i]
    split_value = vals[j] if kind[i] == 0 else (vals[j] + vals[j + 1]) / 2.0
    return float(best), int(feat[j]), float(split_value), bool(kind[i] != 2)


def build_tree(g, h, data, params: TreeHyperParams, rng, rows=None) -> DecisionTree:
    """Greedy depth-first Newton tree over the given training rows."""
    tm = data if isinstance(data, _TrainMatrix) else _TrainMatrix(data)
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    n = tm.n_rows
    if rows is None:
        rows = np.arange(n)

    # column sampling is drawn up front so the draw sequence does not depend
    # on the shape the tree happens to take
    if params.colsample_bytree < 1.0:
        k = max(1, int(round(params.colsample_bytree * tm.n_cols)))
        tree_feats = np.sort(rng.choice(tm.n_cols, size=k, replace=False))
    else:
        tree_feats = np.arange(tm.n_cols)
    level_masks = []
    for _ in range(params.max_depth):
        mask = np.zeros(tm.n_cols, dtype=bool)
        if params.colsample_bylevel < 1.0:
            k = max(1, int(round(params.colsample_bylevel * len(tree_feats))))
            mask[rng.choice(tree_feats, size=k, replace=False)] = True
        else:
            mask[tree_feats] = True
        level_masks.append(mask)

    side = np.empty(n, dtype=bool)

    def leaf(G, H, depth):
        # a tree that found no structure at all is a no-op: a bare root leaf
        # would only shift the global intercept, which is the base score's job
        w = 0.0 if depth == 0 else _leaf_weight(G, H, params)
        return TreeNode(leaf_value=w)

    def grow(node_rows, depth):
        G = float(g[node_rows].sum())
        H = float(h[node_rows].sum())
        if depth >= params.max_depth or len(node_rows) < 2:
            return leaf(G, H, depth)
        best = _find_best_split(node_rows, g, h, G, H, level_masks[depth],
                                tm, params)
        if best is None:
            return leaf(G, H, depth)
        _, j, split_value, default_left = best
        cr, cv = tm.col(j)
        side[node_rows] = default_left
        side[cr] = cv < split_value
        left_mask = side[node_rows]
        left_rows = node_rows[left_mask]
        right_rows = node_rows[~left_mask]
        if len(left_rows) == 0 or len(right_rows) == 0:
            return leaf(G, H, depth)
        node = TreeNode(feature=j, split_value=split_value,
                        default_left=default_left)
        node.left = grow(left_rows, depth + 1)
        node.right = grow(right_rows, depth + 1)
        return node

    return DecisionTree(grow(np.asarray(rows, dtype=np.int64), 0))


def build_linear_delta(g, h, data: SparseDataset, params: LinearHyperParams,
                       current_bias=0.0, current_weights=None) -> LinearDelta:
    """One coordinate-descent sweep on the second-order loss approximation.

    Each coordinate solves for the new total weight u:
        u = soft(H_j * w_j - G_j, alpha) / (H_j + lambda)
    with the running raw-score delta kept consistent within the sweep. The
    bias uses lambda_bias and carries no L1 term.
    """
    csc = data.to_csc()
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    if current_weights is None:
        current_weights = np.zeros(data.n_cols)
    s = np.zeros(data.n_rows)  # raw-score delta accumulated during the sweep

    Gb, Hb = g.sum(), h.sum()
    denom = Hb + params.reg_lambda_bias
    new_bias = (Hb * current_bias - Gb) / denom if denom > 0 else current_bias
    db = new_bias - current_bias
    if db != 0.0:
        s += db

    dw = np.zeros(data.n_cols)
    for j in range(data.n_cols):
        lo, hi = csc.indptr[j], csc.indptr[j + 1]
        cr, cv = csc.indices[lo:hi], csc.data[lo:hi]
        if len(cr) == 0:
            continue
        Gj = float(cv @ (g[cr] + h[cr] * s[cr]))
        Hj = float((h[cr] * cv * cv).sum())
        denom = Hj + params.reg_lambda
        if denom <= 0:
            continue
        w = current_weights[j]
        z = Hj * w - Gj
        u = np.sign(z) * max(abs(z) - params.reg_alpha, 0.0) / denom
        d = u - w
        if d != 0.0:
            s[cr] += d * cv
            dw[j] = d
    return LinearDelta(bias=float(db), weights=dw)


def _summed_delta(deltas) -> LinearDelta:
    """The one linear delta that predicts like the given deltas together."""
    return LinearDelta(bias=sum(d.bias for d in deltas),
                       weights=np.sum([d.weights for d in deltas], axis=0))


class _PredictCache:
    """Dense per-feature presence/value columns, built lazily per dataset."""

    def __init__(self, dataset: SparseDataset):
        self.n_rows = dataset.n_rows
        self.csc = dataset.to_csc()
        self._cols = {}

    def col(self, j):
        c = self._cols.get(j)
        if c is None:
            s, e = self.csc.indptr[j], self.csc.indptr[j + 1]
            present = np.zeros(self.n_rows, dtype=bool)
            vals = np.zeros(self.n_rows)
            present[self.csc.indices[s:e]] = True
            vals[self.csc.indices[s:e]] = self.csc.data[s:e]
            c = (present, vals)
            self._cols[j] = c
        return c


def predict_tree(tree: DecisionTree, cache: _PredictCache) -> np.ndarray:
    """Vectorized tree traversal over every row of the cached dataset."""
    out = np.empty(cache.n_rows)
    stack = [(tree.root, np.arange(cache.n_rows))]
    while stack:
        node, idx = stack.pop()
        if node.is_leaf:
            out[idx] = node.leaf_value
            continue
        present, vals = cache.col(node.feature)
        p = present[idx]
        goes_left = np.where(p, vals[idx] < node.split_value, node.default_left)
        stack.append((node.left, idx[goes_left]))
        stack.append((node.right, idx[~goes_left]))
    return out


def _metric_labels(dataset, loss, label_mapping):
    if loss == LOGISTIC:
        if dataset.binary_labels is None:
            raise TrainingError("logistic loss requires binary labels")
        return dataset.binary_labels
    if dataset.continuous_labels is None:
        raise TrainingError("quadratic loss requires continuous labels")
    if label_mapping is None:
        raise TrainingError(
            "a label mapping is required to evaluate a ranking metric "
            "on a continuous-label dataset")
    return binarize(dataset.continuous_labels, label_mapping)


def train_gbm(train: SparseDataset, valid: SparseDataset, params, loss,
              stop_metric: MetricSpec, *, label_mapping: LabelMapping = None,
              patience=100, max_rounds=2000, seed=0) -> GbmModel:
    """Boost until the valid metric stops improving for `patience` rounds.

    The training log holds oriented (larger-is-better) metric values for
    every round including round 0 (base score only); the optimal round is
    the argbest of the valid curve.
    """
    if train.n_cols != valid.n_cols:
        raise TrainingError("train and valid column counts differ")
    if train.n_rows == 0:
        raise TrainingError("empty training set")
    booster = GBTREE if isinstance(params, TreeHyperParams) else GBLINEAR
    if loss == LOGISTIC:
        if train.binary_labels is None:
            raise TrainingError("logistic loss requires binary labels")
        y = train.binary_labels.astype(float)
        base = 0.0
    elif loss == QUADRATIC:
        if train.continuous_labels is None:
            raise TrainingError("quadratic loss requires continuous labels")
        y = train.continuous_labels.astype(float)
        base = float(y.mean())
    else:
        raise TrainingError(f"unknown loss {loss!r}")
    train_mlab = _metric_labels(train, loss, label_mapping)
    valid_mlab = _metric_labels(valid, loss, label_mapping)

    rng = np.random.default_rng(seed)
    tm = _TrainMatrix(train) if booster == GBTREE else None
    train_cache = _PredictCache(train)
    valid_cache = _PredictCache(valid)
    raw_tr = np.full(train.n_rows, base)
    raw_va = np.full(valid.n_rows, base)

    def score(raw, labels):
        s = expit(raw) if loss == LOGISTIC else raw
        try:
            return oriented_score(stop_metric, s, labels)
        except MetricError as e:
            raise TrainingError(f"stopping metric failed: {e}") from e

    log = [(score(raw_tr, train_mlab), score(raw_va, valid_mlab))]
    best_score, best_round = log[0][1], 0
    learners = []
    cum_w = np.zeros(train.n_cols)
    cum_b = 0.0
    lr = params.learning_rate

    for t in range(1, max_rounds + 1):
        g, h = grad_hess(loss, y, raw_tr)
        if booster == GBTREE:
            if params.subsample < 1.0:
                k = max(1, int(round(params.subsample * train.n_rows)))
                rows = np.sort(rng.choice(train.n_rows, size=k, replace=False))
            else:
                rows = None
            learner = build_tree(g, h, tm, params, rng, rows=rows)
            out_tr = predict_tree(learner, train_cache)
            out_va = predict_tree(learner, valid_cache)
        else:
            learner = build_linear_delta(g, h, train, params, cum_b, cum_w)
            out_tr = learner.bias + train.to_csr().dot(learner.weights)
            out_va = learner.bias + valid.to_csr().dot(learner.weights)
            cum_b += lr * learner.bias
            cum_w += lr * learner.weights
        raw_tr = raw_tr + lr * out_tr
        raw_va = raw_va + lr * out_va
        learners.append(learner)
        s_tr = score(raw_tr, train_mlab)
        s_va = score(raw_va, valid_mlab)
        log.append((s_tr, s_va))
        if s_va > best_score:
            best_score, best_round = s_va, t
        if t - best_round >= patience:
            break

    return GbmModel(booster=booster, loss=loss, base_score=base,
                    learning_rate=lr, learners=learners,
                    optimal_round=best_round, training_log=log,
                    n_cols=train.n_cols)


def predict_gbm(model: GbmModel, data: SparseDataset, rounds=None) -> np.ndarray:
    """Predict with the first `rounds` learners (default: the optimal round).

    Logistic models return probabilities in (0, 1); quadratic models return
    raw scores.
    """
    if data.n_cols != model.n_cols:
        raise DataError(
            f"column-count mismatch: model has {model.n_cols}, data has {data.n_cols}")
    r = model.optimal_round if rounds is None else rounds
    learners = model.learners[:r]
    raw = np.full(data.n_rows, model.base_score)
    if model.booster == GBTREE:
        cache = _PredictCache(data)
        for tree in learners:
            raw = raw + model.learning_rate * predict_tree(tree, cache)
    elif learners:
        d = _summed_delta(learners)
        raw = raw + model.learning_rate * (d.bias + data.to_csr().dot(d.weights))
    if model.loss == LOGISTIC:
        return expit(raw)
    return raw


def export_gbm(model: GbmModel) -> GbmModel:
    """The model cut to what `predict_gbm` reads at its optimal round.

    Trees are kept up to the optimal round; gblinear deltas up to it are
    summed into one by the same helper `predict_gbm` uses, so the cut model
    predicts bit for bit like the full one.
    """
    learners = model.learners[:model.optimal_round]
    if model.booster == GBLINEAR and learners:
        learners = [_summed_delta(learners)]
    return dataclasses.replace(model, learners=learners,
                               optimal_round=len(learners), training_log=None)
