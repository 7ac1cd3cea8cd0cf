"""Gradient boosting core: tree and linear weak learners, logistic and
quadratic losses, early stopping on a pluggable larger-is-better metric.

Trees use second-order (Newton) boosting with the regularized split gain
    1/2 * [GL^2/(HL+lam) + GR^2/(HR+lam) - (GL+GR)^2/(HL+HR+lam)] - gamma
and exact enumeration over each feature's distinct present values, done on
per-node histograms of the binned training values. Rows where the split
feature is absent follow a per-split default direction learned as the side
maximizing gain.

A tree is a set of flat node arrays (`DecisionTree`). Prediction walks all
trees of a model at once, one depth level per step, reading feature values
from a dense `ValueLookup` that many models can share.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

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
class DecisionTree:
    """A binary tree as parallel arrays indexed by node id; node 0 is the root.

    A split node i sends a row to node `left[i]` when the row's value of
    `feature[i]` is below `threshold[i]`, or when the row stores no value for
    it and `default_left[i]`; any other row goes to node `left[i] + 1`. A leaf
    has `left[i] == -1` and predicts `value[i]`; its other entries are
    placeholders (feature -1, threshold 0.0, default_left False), as is
    `value` at a split. Both children of a node follow it in id order.
    """

    feature: np.ndarray
    threshold: np.ndarray
    default_left: np.ndarray
    left: np.ndarray
    value: np.ndarray

    ARRAYS = ("feature", "threshold", "default_left", "left", "value")

    def n_leaves(self):
        return int((self.left < 0).sum())


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
    training_log: list  # valid score per round, index 0 = base score only
    n_cols: int
    # ((rounds, learner count), _Forest) of the last tree walk; _forest_of
    _forest: tuple = field(default=None, init=False, repr=False,
                           compare=False)


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
    # node i's entries; children are appended as a pair when their parent
    # splits, so `left` only ever points forward
    feature, threshold, default_left, left, value = [-1], [0.0], [False], [-1], [0.0]

    def grow(i, node_rows, depth):
        G = float(g[node_rows].sum())
        H = float(h[node_rows].sum())
        best = None
        if depth < params.max_depth and len(node_rows) >= 2:
            best = _find_best_split(node_rows, g, h, G, H, level_masks[depth],
                                    tm, params)
        if best is not None:
            _, j, split_value, dl = best
            cr, cv = tm.col(j)
            side[node_rows] = dl
            side[cr] = cv < split_value
            left_mask = side[node_rows]
            left_rows = node_rows[left_mask]
            right_rows = node_rows[~left_mask]
            if len(left_rows) and len(right_rows):
                c = len(left)
                feature[i], threshold[i], default_left[i], left[i] = (
                    j, split_value, dl, c)
                for lst, v in ((feature, -1), (threshold, 0.0),
                               (default_left, False), (left, -1), (value, 0.0)):
                    lst.extend((v, v))
                grow(c, left_rows, depth + 1)
                grow(c + 1, right_rows, depth + 1)
                return
        # a tree that found no structure at all is a no-op: a bare root leaf
        # would only shift the global intercept, which is the base score's job
        value[i] = 0.0 if depth == 0 else _leaf_weight(G, H, params)

    grow(0, np.asarray(rows, dtype=np.int64), 0)
    return DecisionTree(feature=np.array(feature, dtype=np.int64),
                        threshold=np.array(threshold, dtype=np.float64),
                        default_left=np.array(default_left, dtype=bool),
                        left=np.array(left, dtype=np.int64),
                        value=np.array(value, dtype=np.float64))


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


BLOCK_ROWS = 1024  # rows per ValueLookup, bounding its dense table


class ValueLookup:
    """Dense values of some features over consecutive rows of a dataset.

    `values[c, i]` is the value of the feature in column c for row
    `start + i`, NaN where the row stores none: stored values are finite
    (`SparseDataset` rejects others), so NaN marks absence alone. `features`
    are distinct; `column[j]` is feature j's column, or -1 for a feature
    left out. One lookup serves every tree model that splits only on its
    features; `csr` gives its rows to linear models.
    """

    def __init__(self, data: SparseDataset, features, start=0, stop=None):
        stop = data.n_rows if stop is None else stop
        features = np.asarray(features, dtype=np.int64)
        k = len(features)
        self.n_rows = stop - start
        self.n_cols = data.n_cols
        self.column = np.full(data.n_cols, -1, dtype=np.int64)
        self.column[features] = np.arange(k)
        if self.n_rows == data.n_rows:
            self.csr, csc = data.to_csr(), data.to_csc()
        else:
            self.csr = data.to_csr()[start:stop]
            csc = self.csr.tocsc()
        first = csc.indptr[features]
        count = csc.indptr[features + 1] - first
        pos = np.arange(count.sum()) + np.repeat(first - np.cumsum(count) + count,
                                                 count)
        self.values = np.full((k, self.n_rows), np.nan)
        self.values[np.repeat(np.arange(k), count),
                    csc.indices[pos]] = csc.data[pos]


def lookup_blocks(data: SparseDataset, features):
    """A ValueLookup over `features` for each block of `BLOCK_ROWS` rows."""
    for start in range(0, max(data.n_rows, 1), BLOCK_ROWS):
        yield ValueLookup(data, features, start,
                          min(start + BLOCK_ROWS, data.n_rows))


class _Forest:
    """Trees concatenated into one node table, walked together.

    Node ids are global. A leaf loops back to itself: `right` is its own id,
    and its threshold -inf and default right send no row left. So every row
    can take the same number of steps, the depth of the deepest tree. A leaf
    reads the lookup column of some split feature and ignores it.
    """

    def __init__(self, trees):
        sizes = [len(t.left) for t in trees]
        self.roots = np.cumsum([0] + sizes[:-1], dtype=np.int64)
        left = np.concatenate([t.left for t in trees])
        leaf = left < 0
        feature = np.concatenate([t.feature for t in trees])
        self.features = np.unique(feature[~leaf])
        self.feature = np.where(
            leaf, self.features[0] if self.features.size else 0, feature)
        self.threshold = np.where(
            leaf, -np.inf, np.concatenate([t.threshold for t in trees]))
        self.default_left = ~leaf & np.concatenate(
            [t.default_left for t in trees])
        self.right = np.where(leaf, np.arange(len(left)),
                              left + np.repeat(self.roots, sizes) + 1)
        self.value = np.concatenate([t.value for t in trees])
        self.depth = 0
        level = self.roots
        while True:
            level = level[~leaf[level]]
            if not level.size:
                break
            self.depth += 1
            right = self.right[level]
            level = np.concatenate([right - 1, right])

    def leaf_values(self, lookup: ValueLookup):
        """(trees, rows) array: the leaf value each row reaches in each tree."""
        if (lookup.column[self.features] < 0).any():
            raise ValueError("value lookup lacks a feature the trees split on")
        n = lookup.n_rows
        # (tree, row) pairs, tree by tree, so that consecutive pairs read
        # few columns, each in row order
        node = np.repeat(self.roots, n)
        if self.depth:
            # flat offset of the lookup column each node reads
            offset = lookup.column[self.feature] * n
            values = lookup.values.ravel()
            row = np.tile(np.arange(n), len(self.roots))
        for _ in range(self.depth):
            x = values[offset[node] + row]
            go_left = ((x < self.threshold[node])
                       | (np.isnan(x) & self.default_left[node]))
            node = self.right[node] - go_left
        return self.value[node].reshape(len(self.roots), n)


def _lookups(data, features):
    return [data] if isinstance(data, ValueLookup) else lookup_blocks(
        data, features)


def predict_tree(tree: DecisionTree, data) -> np.ndarray:
    """The leaf value each row of `data` (a SparseDataset or a ValueLookup
    covering the tree's split features) reaches in `tree`."""
    forest = _Forest([tree])
    return np.concatenate([forest.leaf_values(lk)[0]
                           for lk in _lookups(data, forest.features)])


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

    The training log holds the oriented (larger-is-better) valid metric
    value of every round, index 0 for the base score alone; the optimal
    round is its argbest.
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
    valid_mlab = _metric_labels(valid, loss, label_mapping)

    rng = np.random.default_rng(seed)
    tm = _TrainMatrix(train) if booster == GBTREE else None
    raw_tr = np.full(train.n_rows, base)
    raw_va = np.full(valid.n_rows, base)

    def score(raw):
        s = expit(raw) if loss == LOGISTIC else raw
        try:
            return oriented_score(stop_metric, s, valid_mlab)
        except MetricError as e:
            raise TrainingError(f"stopping metric failed: {e}") from e

    log = [score(raw_va)]
    best_score, best_round = log[0], 0
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
            # training sets are held whole in memory, so each gets one lookup
            split_on = np.unique(learner.feature[learner.left >= 0])
            out_tr = predict_tree(learner, ValueLookup(train, split_on))
            out_va = predict_tree(learner, ValueLookup(valid, split_on))
        else:
            learner = build_linear_delta(g, h, train, params, cum_b, cum_w)
            out_tr = learner.bias + train.to_csr().dot(learner.weights)
            out_va = learner.bias + valid.to_csr().dot(learner.weights)
            cum_b += lr * learner.bias
            cum_w += lr * learner.weights
        raw_tr = raw_tr + lr * out_tr
        raw_va = raw_va + lr * out_va
        learners.append(learner)
        s_va = score(raw_va)
        log.append(s_va)
        if s_va > best_score:
            best_score, best_round = s_va, t
        if t - best_round >= patience:
            break

    return GbmModel(booster=booster, loss=loss, base_score=base,
                    learning_rate=lr, learners=learners,
                    optimal_round=best_round, training_log=log,
                    n_cols=train.n_cols)


def _forest_of(model: GbmModel, rounds) -> _Forest:
    """The model's first `rounds` trees as one forest, kept on the model for
    the next walk."""
    key = (rounds, len(model.learners))
    if model._forest is None or model._forest[0] != key:
        model._forest = (key, _Forest(model.learners[:rounds]))
    return model._forest[1]


def split_features(model: GbmModel) -> np.ndarray:
    """Sorted ids of the features the model's trees split on, up to its
    optimal round; a ValueLookup over them serves `predict_gbm`."""
    if model.booster != GBTREE or model.optimal_round == 0:
        return np.empty(0, dtype=np.int64)
    return _forest_of(model, model.optimal_round).features


def predict_gbm(model: GbmModel, data, rounds=None) -> np.ndarray:
    """Predict with the first `rounds` learners (default: the optimal round).

    `data` is a SparseDataset, or a ValueLookup over a block of its rows that
    covers the model's `split_features`, which many models can share. All
    trees are walked together, and their outputs are added to the base score
    one tree at a time, in order, as training added them.

    Logistic models return probabilities in (0, 1); quadratic models return
    raw scores.
    """
    if data.n_cols != model.n_cols:
        raise DataError(
            f"column-count mismatch: model has {model.n_cols}, data has {data.n_cols}")
    r = model.optimal_round if rounds is None else rounds
    learners = model.learners[:r]
    if model.booster == GBTREE and learners:
        forest = _forest_of(model, r)
        blocks = []
        for lookup in _lookups(data, forest.features):
            terms = np.empty((len(learners) + 1, lookup.n_rows))
            terms[0] = model.base_score
            np.multiply(model.learning_rate, forest.leaf_values(lookup),
                        out=terms[1:])
            # cumsum adds the trees in order, as `raw + lr * out` did per
            # round; a pairwise sum would change the last bits
            blocks.append(np.cumsum(terms, axis=0)[-1])
        raw = np.concatenate(blocks)
    else:
        raw = np.full(data.n_rows, model.base_score)
        if learners:
            csr = data.csr if isinstance(data, ValueLookup) else data.to_csr()
            d = _summed_delta(learners)
            raw = raw + model.learning_rate * (d.bias + csr.dot(d.weights))
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
