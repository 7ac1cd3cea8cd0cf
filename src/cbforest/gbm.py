"""Gradient boosting core: tree and linear weak learners, logistic and
quadratic losses, early stopping on a pluggable larger-is-better metric.

Trees use second-order (Newton) boosting with the regularized split gain
    1/2 * [GL^2/(HL+lam) + GR^2/(HR+lam) - (GL+GR)^2/(HL+HR+lam)] - gamma
and exact enumeration over each feature's distinct present values, done on
histograms of the binned training values. A tree grows one depth level at a
time: one pass builds the histograms of all nodes of a level, all their
candidates are scored together, and its nodes are numbered breadth-first as
they grow. Rows where the split feature is absent follow a per-split default
direction learned as the side maximizing gain.

A linear learner is one coordinate-descent sweep per round over the columns
of the training matrix, which are sliced once per `train_gbm`.

A tree is a set of flat node arrays (`DecisionTree`). Prediction scores
many models at once (`_Scorer`) on a `SparseDataset`, block by block of
rows: the trees of all of them are one forest, which lays out the block's
CSC values of its split features as a dense table and walks it one depth
level per step, and the linear models are the columns of one weight matrix
applied to the block's CSR.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .data import DataError, SparseDataset
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
    `value` at a split. `build_tree` numbers nodes breadth-first; a walk
    needs only that both children of a node follow it in id order.
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

    `train_gbm` returns it cut at the optimal round: the trees up to it, or
    the gblinear deltas up to it summed into one.
    """

    booster: str
    loss: str
    base_score: float
    learning_rate: float
    learners: list
    n_cols: int


@dataclass
class TrainingLog:
    """How a `train_gbm` run went: the oriented (larger-is-better) valid
    score of every round trained, index 0 for the base score alone, and the
    optimal round, its argbest."""

    scores: list
    optimal_round: int


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
    """Training view for trees: bins for splits, columns for routing.

    Every stored value gets a bin id. Bins number the distinct (feature,
    value) pairs of the stored values in feature order, then value order, so
    each feature's bins form one ascending run. A stored 0.0 is a present
    value like any other.
    """

    def __init__(self, dataset: SparseDataset):
        self.n_rows = dataset.n_rows
        self.n_cols = dataset.n_cols
        self.indptr = dataset.indptr
        csc = dataset.to_csc()
        # column j stores rows col_rows[col_ptr[j]:col_ptr[j + 1]]
        self.col_ptr = csc.indptr.tolist()
        self.col_rows = csc.indices
        self.col_values = csc.data
        order = np.lexsort((dataset.values, dataset.indices))
        feat = dataset.indices[order]
        vals = dataset.values[order]
        new_bin = np.ones(len(order), dtype=bool)
        new_bin[1:] = (feat[1:] != feat[:-1]) | (vals[1:] != vals[:-1])
        self.bin_of = np.empty(len(order), dtype=np.int64)
        self.bin_of[order] = np.cumsum(new_bin) - 1
        self.bin_feature = feat[new_bin]
        self.bin_value = vals[new_bin]


# (node, bin) cells of one histogram: a level's nodes are searched in batches
# of at most this many cells, bounding memory on deep trees over many
# distinct values
HIST_CELLS = 1 << 21


def _best_splits(cells, vg, vh, counts, G, H, bin_mask, tm, params):
    """Best split of each node of a batch.

    `cells` maps each stored value of the tree's rows to a histogram cell,
    `q * n_bins + bin` for a value of a row in batch node q and a cell past
    the batch's for any other value; `vg` and `vh` are the gradient and
    hessian of the value's row. Batch node q has `counts[q]` rows with sums
    `G[q]` and `H[q]`. Each feature allowed by `bin_mask` (over bins) and
    present in a node offers these candidates: present-right/absent-left at
    its smallest present value, if some node rows lack the feature; and at
    each midpoint between adjacent present values, absent rows on the left
    and, if some rows lack it, on the right.

    Returns (nodes, feature, threshold, default_left) for the batch nodes
    that have a split with positive gain. A node's best candidate is the one
    with the largest computed gain; ties resolve to the lowest feature index,
    then lowest split value, then default-left. Ties are taken on the float
    gains: two splits whose gains are equal in exact arithmetic can differ in
    the last bit, as when two features induce the same partition but sum it
    in different orders, and then the larger float wins.
    """
    lam = params.reg_lambda
    mcw = params.min_child_weight
    n_nodes = len(counts)
    n_bins = len(tm.bin_feature)
    size = (n_nodes + 1) * n_bins
    # bincount adds each cell's values in input order, which within a node
    # is its row order
    Gc = np.bincount(cells, weights=vg, minlength=size)
    Hc = np.bincount(cells, weights=vh, minlength=size)
    Cc = np.bincount(cells, minlength=size)
    c = np.flatnonzero((Cc[:size - n_bins].reshape(n_nodes, n_bins) > 0)
                       & bin_mask)
    if c.size == 0:
        return (np.empty(0, dtype=np.int64),) * 2 + (np.empty(0),
                                                     np.empty(0, dtype=bool))
    node, b = np.divmod(c, n_bins)
    feat, vals, Gb, Hb = tm.bin_feature[b], tm.bin_value[b], Gc[c], Hc[c]
    # runs of one feature's bins within one node
    key = node * tm.n_cols + feat
    is_first = np.ones(len(c), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=is_first[1:])
    first = np.flatnonzero(is_first)
    # reduceat sums each run on its own and returns a lone bin's sum
    # unchanged, so per-feature sums do not depend on the other nodes
    present = np.array([np.add.reduceat(Gb, first),
                        np.add.reduceat(Hb, first)])
    run_node = node[first]
    missing = np.add.reduceat(Cc[c], first) < counts[run_node]
    node_sums = np.array([G, H])
    absent = node_sums[:, run_node] - present

    a = np.flatnonzero(missing)
    # bins followed by another bin of the same run; s is their run
    m = np.flatnonzero(~is_first[1:])
    s = (np.cumsum(is_first) - 1)[m]
    # prefix sums restart at each node: a node's selected bins fill one row
    # of a (node, width) table from the left, after a column of zeros; `at`
    # is each bin's place in it
    per_node = np.bincount(node, minlength=n_nodes)
    start = np.cumsum(per_node) - per_node
    width = int(per_node.max()) + 1
    at = node * width + np.arange(1, len(c) + 1) - start[node]
    table = np.zeros((2, n_nodes * width))
    table[0, at] = Gb
    table[1, at] = Hb
    prefix = np.cumsum(table.reshape(2, n_nodes, width), axis=2).reshape(2, -1)
    upto = prefix[:, at[m]] - prefix[:, at[first[s]] - 1]
    right = missing[s]
    upto_absent = upto + absent[:, s]
    sums_m = node_sums[:, node[m]]

    # candidates: present-right/absent-left, then midpoints with absent rows
    # left, then midpoints with absent rows right; a node's candidates take
    # slots (bin, kind) of a (node, 3 * width) score table, which orders them
    # by feature, then threshold, then default-left
    GL, HL = np.concatenate([absent[:, a], upto_absent, upto[:, right]],
                            axis=1)
    GR, HR = np.concatenate([present[:, a], sums_m - upto_absent,
                             sums_m[:, right] - upto[:, right]], axis=1)
    slot = 3 * at - 3
    slot = np.concatenate([slot[first[a]], slot[m] + 1, slot[m[right]] + 2])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        parent = (G * G / (H + lam))[slot // (3 * width)]
        gains = (0.5 * (GL * GL / (HL + lam) + GR * GR / (HR + lam) - parent)
                 - params.gamma)
        ok = (HL >= mcw) & (HR >= mcw) & (gains > 0)
        score = np.zeros((n_nodes, 3 * width))
        score.ravel()[slot[ok]] = gains[ok]
        # argmax takes the first of tied candidates
        pick = score.argmax(axis=1)
        won = np.flatnonzero(score.max(axis=1) > 0)
        i, kind = np.divmod(pick[won], 3)
        i += start[won]
        threshold = np.where(kind == 0, vals[i],
                             (vals[i] + vals[np.minimum(i + 1, len(c) - 1)])
                             / 2.0)
    return won, feat[i], threshold, kind != 2


def build_tree(g, h, data, params: TreeHyperParams, rng, rows=None) -> DecisionTree:
    """Newton tree over the given training rows, grown one depth level at a
    time.

    All nodes of a level are split at once: their histograms are built and
    their candidates scored together (`_best_splits`), and their rows are
    routed down each split feature's column. A node becomes a leaf at
    `max_depth`, with fewer than two rows, or with no split of positive
    gain. Nodes are numbered breadth-first: the root is 0, each level follows
    the one above it left to right, and the k-th split node in id order has
    children 2k + 1 and 2k + 2.
    """
    tm = data if isinstance(data, _TrainMatrix) else _TrainMatrix(data)
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    n = tm.n_rows
    node_rows = (np.arange(n) if rows is None
                 else np.asarray(rows, dtype=np.int64))

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

    n_bins = len(tm.bin_feature)
    batch = max(1, HIST_CELLS // max(1, n_bins))
    # the stored values of the tree's rows in row order, with their rows,
    # bins, gradients and hessians; a node's values keep this order
    starts = tm.indptr[node_rows]
    lens = tm.indptr[node_rows + 1] - starts
    pos = np.arange(lens.sum()) + np.repeat(starts - (np.cumsum(lens) - lens),
                                            lens)
    vrow = np.repeat(node_rows, lens)
    vbin = tm.bin_of[pos]
    vg = np.repeat(g[node_rows], lens)
    vh = np.repeat(h[node_rows], lens)
    side = np.empty(n, dtype=bool)
    node_of_row = np.empty(n, dtype=np.int64)
    # per level: its nodes' ids, G, H, feature, threshold, default_left and
    # left, the last four filled in as the level splits. A level lists the
    # left children of the previous level's split nodes in order, then their
    # right children; `node_rows` holds its rows node by node, `counts` rows
    # each.
    levels = []
    ids = np.zeros(1, dtype=np.int64)
    n_ids = 1   # ids given out so far
    counts = np.array([len(node_rows)])
    for depth in range(params.max_depth + 1):
        n_nodes = len(counts)
        ends = np.cumsum(counts)
        gn, hn = g[node_rows], h[node_rows]
        bounds = list(zip((ends - counts).tolist(), ends.tolist()))
        G = np.array([gn[s:e].sum() for s, e in bounds])
        H = np.array([hn[s:e].sum() for s, e in bounds])
        feature = np.full(n_nodes, -1, dtype=np.int64)
        threshold = np.zeros(n_nodes)
        default_left = np.zeros(n_nodes, dtype=bool)
        left = np.full(n_nodes, -1, dtype=np.int64)
        levels.append((ids, G, H, feature, threshold, default_left, left))
        searched = np.flatnonzero(counts >= 2)
        if depth == params.max_depth or not searched.size:
            break

        level_node = np.repeat(np.arange(n_nodes), counts)
        # rows outside the level's nodes map to the slot past them
        node_of_row.fill(n_nodes)
        node_of_row[node_rows] = level_node
        bin_mask = level_masks[depth][tm.bin_feature]
        for i in range(0, len(searched), batch):
            q = searched[i:i + batch]
            cell = np.full(n_nodes + 1, len(q) * n_bins)
            cell[q] = np.arange(len(q)) * n_bins
            won, f, t, dl = _best_splits(cell[node_of_row][vrow] + vbin, vg,
                                         vh, counts[q], G[q], H[q], bin_mask,
                                         tm, params)
            q = q[won]
            feature[q], threshold[q], default_left[q] = f, t, dl
        split = feature >= 0
        if not split.any():
            break

        # rows of split nodes go to their default side, then rows that store
        # the split feature compare its value with the threshold
        r = split[level_node]
        rows_s, node_s = node_rows[r], level_node[r]
        side[rows_s] = default_left[node_s]
        q = np.flatnonzero(split)
        ranges = [(tm.col_ptr[j], tm.col_ptr[j + 1])
                  for j in feature[q].tolist()]
        col_rows = np.concatenate([tm.col_rows[a:b] for a, b in ranges])
        col_values = np.concatenate([tm.col_values[a:b] for a, b in ranges])
        col_node = np.repeat(q, [b - a for a, b in ranges])
        mine = node_of_row[col_rows] == col_node
        side[col_rows[mine]] = col_values[mine] < threshold[col_node[mine]]
        go_left = side[rows_s]
        n_left = np.bincount(node_s[go_left], minlength=n_nodes)
        # a split that sends every row one way leaves its node a leaf
        split &= (n_left > 0) & (n_left < counts)
        if not split.any():
            break
        # split nodes in id order take the next free ids for their children,
        # two each, which numbers the tree breadth-first
        by_id = np.argsort(ids)
        q = by_id[split[by_id]]
        left[q] = n_ids + 2 * np.arange(len(q))
        n_ids += 2 * len(q)
        ids = np.concatenate([left[split], left[split] + 1])
        keep = split[node_s]
        rows_s, go_left = rows_s[keep], go_left[keep]
        node_rows = np.concatenate([rows_s[go_left], rows_s[~go_left]])
        counts = np.concatenate([n_left[split], (counts - n_left)[split]])

    ids, G, H, feature, threshold, default_left, left = (
        np.concatenate(arrays) for arrays in zip(*levels))
    # a node whose split was found but sent every row one way is a leaf
    leaf = left < 0
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = H + params.reg_lambda
        value = np.where(denom <= 0, 0.0, -G / denom)
    if params.max_delta_step > 0:
        value = np.clip(value, -params.max_delta_step, params.max_delta_step)
    # a tree that found no structure at all is a no-op: a bare root leaf
    # would only shift the global intercept, which is the base score's job
    value[~leaf] = 0.0
    value[0] = 0.0
    at = np.argsort(ids)   # the node at each id
    return DecisionTree(feature=np.where(leaf, -1, feature)[at],
                        threshold=np.where(leaf, 0.0, threshold)[at],
                        default_left=(default_left & ~leaf)[at],
                        left=left[at], value=value[at])


class _Columns:
    """Training view for gblinear: the stored values column by column.

    `columns` lists (j, lo, hi, rows, values) for each column j that stores
    values, `lo:hi` being its range in the CSC arrays `indices` and `data`.
    """

    def __init__(self, dataset: SparseDataset):
        csc = dataset.to_csc()
        self.n_rows = dataset.n_rows
        self.n_cols = dataset.n_cols
        self.indices = csc.indices
        self.data = csc.data
        ptr = csc.indptr.tolist()
        self.columns = [(j, lo, hi, csc.indices[lo:hi], csc.data[lo:hi])
                        for j, (lo, hi) in enumerate(zip(ptr[:-1], ptr[1:]))
                        if hi > lo]

    def hess_sums(self, hv):
        """Each listed column's sum of h * v * v over its stored values v,
        given `hv`, the hessian h of each stored value's row."""
        hvv = (hv * self.data) * self.data
        return [float(hvv[lo:hi].sum()) for _, lo, hi, _, _ in self.columns]


def build_linear_delta(g, h, data, params: LinearHyperParams,
                       current_bias=0.0, current_weights=None,
                       col_hess=None) -> LinearDelta:
    """One coordinate-descent sweep on the second-order loss approximation.

    Each coordinate solves for the new total weight u:
        u = soft(H_j * w_j - G_j, alpha) / (H_j + lambda)
    with the running raw-score delta kept consistent within the sweep. The
    bias uses lambda_bias and carries no L1 term. `data` is a SparseDataset
    or its `_Columns`. `col_hess`, if given, is the columns' `hess_sums` for
    this `h`, which a caller whose hessian never changes computes once.
    """
    cols = data if isinstance(data, _Columns) else _Columns(data)
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    if current_weights is None:
        current_weights = np.zeros(cols.n_cols)
    weights = np.asarray(current_weights, dtype=float).tolist()
    s = np.zeros(cols.n_rows)  # raw-score delta accumulated during the sweep

    Gb, Hb = g.sum(), h.sum()
    denom = Hb + params.reg_lambda_bias
    new_bias = (Hb * current_bias - Gb) / denom if denom > 0 else current_bias
    db = new_bias - current_bias
    if db != 0.0:
        s += db

    # everything but the running delta s is fixed for the sweep
    gv, hv = g[cols.indices], h[cols.indices]
    if col_hess is None:
        col_hess = cols.hess_sums(hv)
    lam, alpha = params.reg_lambda, params.reg_alpha
    dw = np.zeros(cols.n_cols)
    for (j, lo, hi, cr, cv), Hj in zip(cols.columns, col_hess):
        Gj = float(cv @ (gv[lo:hi] + hv[lo:hi] * s[cr]))
        denom = Hj + lam
        if denom <= 0:
            continue
        w = weights[j]
        z = Hj * w - Gj
        u = math.copysign(max(abs(z) - alpha, 0.0), z) / denom
        d = u - w
        if d != 0.0:
            s[cr] += d * cv
            dw[j] = d
    return LinearDelta(bias=float(db), weights=dw)


def _summed_delta(deltas) -> LinearDelta:
    """The one linear delta that predicts like the given deltas together."""
    return LinearDelta(bias=sum(d.bias for d in deltas),
                       weights=np.sum([d.weights for d in deltas], axis=0))


BLOCK_ROWS = 1024  # rows per scorer block, bounding its dense table
WALK_PAIRS = 1 << 16  # (tree, row) pairs per forest walk; _Forest.leaf_values


class _Forest:
    """Trees concatenated into one node table, walked together.

    Node ids are global. A leaf loops back to itself: `right` is its own id,
    and its threshold -inf and default right send no row left. So every row
    can take the same number of steps, the depth of the deepest tree.
    `features` are the distinct split features in increasing order, and
    `table_row[i]` is the one node i reads, as its index in them; a leaf
    reads index 0 and ignores it.
    """

    def __init__(self, trees):
        sizes = [len(t.left) for t in trees]
        self.roots = np.cumsum([0] + sizes[:-1], dtype=np.int64)
        left = np.concatenate([t.left for t in trees])
        leaf = left < 0
        feature = np.concatenate([t.feature for t in trees])
        self.features, inverse = np.unique(feature[~leaf], return_inverse=True)
        self.table_row = np.zeros(len(left), dtype=np.int64)
        self.table_row[~leaf] = inverse
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

    def leaf_values(self, csc):
        """(trees, rows) array: the leaf value each row of the scipy CSC
        matrix `csc` reaches in each tree.

        The rows' values of `features` are first laid out in a dense
        (features, rows) table, NaN where a row stores none: stored values
        are finite (`SparseDataset` rejects others), so NaN marks absence
        alone. Groups of trees are then walked in turn, each group at most
        `WALK_PAIRS` (tree, row) pairs or one tree, so that its arrays stay
        in cache."""
        n = csc.shape[0]
        first = csc.indptr[self.features]
        count = csc.indptr[self.features + 1] - first
        pos = np.arange(count.sum()) + np.repeat(first - np.cumsum(count) + count,
                                                 count)
        table = np.full((len(self.features), n), np.nan)
        table[np.repeat(np.arange(len(self.features)), count),
              csc.indices[pos]] = csc.data[pos]
        values = table.ravel()
        out = np.empty((len(self.roots), n))
        # flat offset of the table row each node reads
        offset = self.table_row * n
        step = max(1, WALK_PAIRS // max(n, 1))
        for a in range(0, len(self.roots), step):
            roots = self.roots[a:a + step]
            # (tree, row) pairs, tree by tree, so that consecutive pairs read
            # few table rows, each in row order
            node = np.repeat(roots, n)
            row = np.tile(np.arange(n), len(roots))
            for _ in range(self.depth):
                x = values.take(offset.take(node) + row)
                go_left = ((x < self.threshold.take(node))
                           | (np.isnan(x) & self.default_left.take(node)))
                node = self.right.take(node) - go_left
            out[a:a + step] = self.value.take(node).reshape(len(roots), n)
        return out


def predict_tree(tree: DecisionTree, data: SparseDataset) -> np.ndarray:
    """The leaf value each row of `data` reaches in `tree`. The rows are one
    block: training walks its whole splits, whose CSC the dataset caches."""
    return _Forest([tree]).leaf_values(data.to_csc())[0]


def train_gbm(train: SparseDataset, valid: SparseDataset, params, loss,
              stop_metric: MetricSpec, *, patience=100, max_rounds=2000,
              seed=0):
    """Boost until the valid metric stops improving for `patience` rounds.

    The logistic loss fits the train split's binary labels, the quadratic
    loss its continuous labels. The stopping metric ranks the valid split's
    binary labels whatever the loss, so a quadratic-loss caller sets them,
    as `load_run_dataset` does by binarizing the continuous labels.

    Returns the model cut at the optimal round and the run's `TrainingLog`.
    A cut gbtree model scores the valid rows bit for bit as boosting did at
    that round.
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
    if valid.binary_labels is None:
        raise TrainingError("the stopping metric requires the valid split's "
                            "binary labels")

    rng = np.random.default_rng(seed)
    if booster == GBTREE:
        tm = _TrainMatrix(train)
    else:
        cols = _Columns(train)
        # the quadratic loss's hessian is 1 everywhere, so its column sums
        # never change
        col_hess = (cols.hess_sums(np.ones(len(cols.data)))
                    if loss == QUADRATIC else None)
    raw_tr = np.full(train.n_rows, base)
    raw_va = np.full(valid.n_rows, base)

    def score(raw):
        s = expit(raw) if loss == LOGISTIC else raw
        try:
            return oriented_score(stop_metric, s, valid.binary_labels)
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
            out_tr = predict_tree(learner, train)
            out_va = predict_tree(learner, valid)
        else:
            learner = build_linear_delta(g, h, cols, params, cum_b, cum_w,
                                         col_hess)
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

    kept = learners[:best_round]
    if booster == GBLINEAR and kept:
        kept = [_summed_delta(kept)]
    return (GbmModel(booster=booster, loss=loss, base_score=base,
                     learning_rate=lr, learners=kept, n_cols=train.n_cols),
            TrainingLog(scores=log, optimal_round=best_round))


class _Scorer:
    """Scores many models together: called on a SparseDataset, it returns a
    (models, rows) array of what `predict_gbm` returns for each model. Rows
    are scored in blocks of `BLOCK_ROWS`, each a CSR slice of the dataset
    and its CSC; a dataset of one block is its own cached CSR and CSC. Per
    block, the trees of all gbtree models are one `_Forest` walk of the CSC,
    and the gblinear models' summed deltas are the columns of one product
    with the CSR."""

    def __init__(self, models):
        self.n_cols = {m.n_cols for m in models}
        self.base = np.array([m.base_score for m in models], dtype=float)
        self.lr = np.array([m.learning_rate for m in models], dtype=float)
        self.logistic = np.array([m.loss == LOGISTIC for m in models])
        trees, self.spans, linear = [], [], []   # span: (model, trees a:b)
        for i, m in enumerate(models):
            if m.booster == GBTREE and m.learners:
                self.spans.append((i, len(trees), len(trees) + len(m.learners)))
                trees += m.learners
            elif m.learners:
                linear.append(i)
        self.forest = _Forest(trees) if trees else None
        if trees:
            # leaves as boosting added them: times the learning rate, and in a
            # model's first tree to its base score (`raw + lr * out`)
            start = self.forest.roots
            value = self.forest.value = self.forest.value.astype(float)
            stop = np.append(start[1:], len(value))
            for i, a, b in self.spans:
                value[start[a]:stop[b - 1]] *= self.lr[i]
                value[start[a]:stop[a]] += self.base[i]
        self.linear = np.array(linear, dtype=np.int64)
        deltas = [_summed_delta(models[i].learners) for i in linear]
        self.bias = np.array([[d.bias] for d in deltas])
        if deltas:
            self.weights = np.column_stack([d.weights for d in deltas])

    def __call__(self, data: SparseDataset) -> np.ndarray:
        for n_cols in self.n_cols - {data.n_cols}:
            raise DataError(f"column-count mismatch: model has {n_cols}, "
                            f"data has {data.n_cols}")
        if data.n_rows <= BLOCK_ROWS:
            return self._block(data.to_csr(), data.to_csc())
        csr = data.to_csr()
        blocks = (csr[a:a + BLOCK_ROWS] for a in range(0, data.n_rows,
                                                        BLOCK_ROWS))
        return np.concatenate([self._block(b, b.tocsc()) for b in blocks],
                              axis=1)

    def _block(self, csr, csc):
        raw = np.repeat(self.base[:, None], csr.shape[0], axis=1)
        leaves = self.forest.leaf_values(csc) if self.spans else None
        for i, a, b in self.spans:
            # accumulate adds the trees in order; a pairwise sum would change
            # the last bits
            raw[i] = np.add.accumulate(leaves[a:b], axis=0)[-1]
        if self.linear.size:
            i = self.linear
            raw[i] += self.lr[i, None] * (self.bias + (csr @ self.weights).T)
        raw[self.logistic] = expit(raw[self.logistic])
        return raw


def predict_gbm(model: GbmModel, data: SparseDataset) -> np.ndarray:
    """Predict every row of `data` with every learner of the model, as a
    `_Scorer` of it alone. Logistic models return probabilities in (0, 1);
    quadratic models return raw scores, tree outputs added in order, as
    training added them."""
    return _Scorer([model])(data)[0]
