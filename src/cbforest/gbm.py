"""Gradient boosting core: tree and linear weak learners, logistic and
quadratic losses, early stopping on a pluggable larger-is-better metric.

Trees use second-order (Newton) boosting with the regularized split gain
    1/2 * [GL^2/(HL+lam) + GR^2/(HR+lam) - (GL+GR)^2/(HL+HR+lam)] - gamma
and exact enumeration over each feature's distinct present values, done on
histograms of the binned training values. Trees grow one depth level at a
time, several together: one pass builds the histograms of all nodes of a
level, of every tree, all their candidates are scored together, and each
tree's nodes are numbered breadth-first as they grow. Rows where the split
feature is absent follow a per-split default direction learned as the side
maximizing gain.

A linear learner is one coordinate-descent sweep per round over the columns
of a model's training rows.

`train_folds` boosts the K fold models of one hyper-parameter sample in
lockstep over one dataset: each round, one pass grows the new tree of every
fold still running (or one column loop sweeps all their linear models), and
one walk scores every row with all of the round's learners. Each fold's
arithmetic is that of the fold boosted alone, bit for bit. `train_gbm` is
its one-fold case, `build_tree` the one-tree case of the builder and
`build_linear_delta` the one-fold case of the sweep.

A tree is a set of flat node arrays (`DecisionTree`). Prediction scores
many models at once (`_Scorer`) on a `SparseDataset`. The trees of all of
them are one forest, walked block by block of rows over a dense table with
one row per (split feature, default direction) pair, filled straight from
the block's CSR arrays; a row that lacks the feature reads -inf where the
default is left and +inf where it is right, so each step of the walk is one
comparison per (tree, row). The linear models are the columns of one weight
matrix applied to the dataset's CSR.
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
        self.col_ptr = csc.indptr
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

    `cells` maps each stored value of the trees' rows to a histogram cell,
    `q * n_bins + bin` for a value of a row in batch node q and a cell past
    the batch's for any other value; `vg` and `vh` are the gradient and
    hessian of the value's row. Batch node q has `counts[q]` rows with sums
    `G[q]` and `H[q]`. Each feature allowed by `bin_mask[q]` (over bins) and
    present in node q offers these candidates: present-right/absent-left at
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


def _column_masks(params, n_cols, rng):
    """(max_depth, n_cols) mask of the features each depth of a tree may
    split on, drawn from `rng`: the tree's columns, then each level's.

    Column sampling is drawn up front so the draw sequence does not depend
    on the shape the tree happens to take."""
    if params.colsample_bytree < 1.0:
        k = max(1, int(round(params.colsample_bytree * n_cols)))
        tree_feats = np.sort(rng.choice(n_cols, size=k, replace=False))
    else:
        tree_feats = np.arange(n_cols)
    masks = np.zeros((params.max_depth, n_cols), dtype=bool)
    for mask in masks:
        if params.colsample_bylevel < 1.0:
            k = max(1, int(round(params.colsample_bylevel * len(tree_feats))))
            mask[rng.choice(tree_feats, size=k, replace=False)] = True
        else:
            mask[tree_feats] = True
    return masks


def _build_trees(g, h, tm: _TrainMatrix, params: TreeHyperParams, rngs,
                 rows) -> list:
    """Newton trees grown together, one per row of the (trees, rows) arrays
    `g` and `h`: tree t fits `g[t]` and `h[t]` over `rows[t]`, ascending
    rows of `tm`, with column draws from `rngs[t]`.

    Row r of tree t is instance t * n + r, n being `tm.n_rows`. The trees'
    roots are the nodes of the first level, and each level's nodes, of every
    tree, are split at once: their histograms are built and their candidates
    scored together (`_best_splits`), and their instances are routed down
    each split feature's column. A node's values keep its rows' order and its
    candidates are the bins present among its rows, so each tree comes out
    as it would grown alone. A node becomes a leaf at `max_depth`, with fewer
    than two rows, or with no split of positive gain. Each tree numbers its
    nodes breadth-first: the root is 0, each level follows the one above it
    left to right, and the k-th split node in id order has children 2k + 1
    and 2k + 2.
    """
    n, T = tm.n_rows, len(rngs)
    # instance T * n is a zero, which each node's sums start from
    g = np.append(np.asarray(g, dtype=float), 0.0)
    h = np.append(np.asarray(h, dtype=float), 0.0)
    level_masks = np.array([_column_masks(params, tm.n_cols, rng)
                            for rng in rngs])
    n_bins = len(tm.bin_feature)
    batch = max(1, HIST_CELLS // max(1, n_bins))
    node_inst = np.concatenate([t * n + np.asarray(r, dtype=np.int64)
                                for t, r in enumerate(rows)])
    # the stored values of the trees' instances in instance order, with their
    # instances, bins, gradients and hessians; a node's values keep this order
    row = node_inst % n
    starts = tm.indptr[row]
    lens = tm.indptr[row + 1] - starts
    pos = np.arange(lens.sum()) + np.repeat(starts - (np.cumsum(lens) - lens),
                                            lens)
    vinst = np.repeat(node_inst, lens)
    vbin = tm.bin_of[pos]
    vg = np.repeat(g[node_inst], lens)
    vh = np.repeat(h[node_inst], lens)
    side = np.empty(T * n, dtype=bool)
    node_of_inst = np.empty(T * n, dtype=np.int64)
    # per level: its nodes' trees, ids, G, H, feature, threshold,
    # default_left and left, the last four filled in as the level splits. A
    # level lists the left children of the previous level's split nodes in
    # order, then their right children; `node_inst` holds its instances node
    # by node, `counts` each.
    levels = []
    tree = np.arange(T)
    ids = np.zeros(T, dtype=np.int64)
    n_ids = np.ones(T, dtype=np.int64)   # ids each tree gave out so far
    counts = np.array([len(r) for r in rows], dtype=np.int64)
    for depth in range(params.max_depth + 1):
        n_nodes = len(counts)
        # G and H of each node are its values' `.sum()`, which is 0.0 plus
        # numpy's pairwise sum of them. `reduceat` over the values behind the
        # zero instance adds the same numbers in the same order
        zero_at = np.cumsum(counts) - counts + np.arange(n_nodes)
        inst = np.full(len(node_inst) + n_nodes, T * n)
        inst[np.arange(len(node_inst)) + np.repeat(np.arange(1, n_nodes + 1),
                                                   counts)] = node_inst
        G = np.add.reduceat(g[inst], zero_at)
        H = np.add.reduceat(h[inst], zero_at)
        feature = np.full(n_nodes, -1, dtype=np.int64)
        threshold = np.zeros(n_nodes)
        default_left = np.zeros(n_nodes, dtype=bool)
        left = np.full(n_nodes, -1, dtype=np.int64)
        levels.append((tree, ids, G, H, feature, threshold, default_left,
                       left))
        searched = np.flatnonzero(counts >= 2)
        if depth == params.max_depth or not searched.size:
            break

        level_node = np.repeat(np.arange(n_nodes), counts)
        # instances outside the level's nodes map to the slot past them
        node_of_inst.fill(n_nodes)
        node_of_inst[node_inst] = level_node
        bin_masks = level_masks[:, depth][:, tm.bin_feature]
        for i in range(0, len(searched), batch):
            q = searched[i:i + batch]
            cell = np.full(n_nodes + 1, len(q) * n_bins)
            cell[q] = np.arange(len(q)) * n_bins
            won, f, t, dl = _best_splits(cell[node_of_inst][vinst] + vbin, vg,
                                         vh, counts[q], G[q], H[q],
                                         bin_masks[tree[q]], tm, params)
            q = q[won]
            feature[q], threshold[q], default_left[q] = f, t, dl
        split = feature >= 0
        if not split.any():
            break

        # instances of split nodes go to their default side, then those whose
        # row stores the split feature compare its value with the threshold
        r = split[level_node]
        inst_s, node_s = node_inst[r], level_node[r]
        side[inst_s] = default_left[node_s]
        q = np.flatnonzero(split)
        first = tm.col_ptr[feature[q]]
        count = tm.col_ptr[feature[q] + 1] - first
        pos = np.arange(count.sum()) + np.repeat(first - np.cumsum(count)
                                                 + count, count)
        col_node = np.repeat(q, count)
        col_inst = tm.col_rows[pos] + tree[col_node] * n
        mine = node_of_inst[col_inst] == col_node
        side[col_inst[mine]] = (tm.col_values[pos][mine]
                                < threshold[col_node[mine]])
        go_left = side[inst_s]
        n_left = np.bincount(node_s[go_left], minlength=n_nodes)
        # a split that sends every row one way leaves its node a leaf
        split &= (n_left > 0) & (n_left < counts)
        if not split.any():
            break
        # each tree's split nodes in id order take its next free ids for
        # their children, two each, which numbers the tree breadth-first
        q = np.flatnonzero(split)
        q = q[np.lexsort((ids[q], tree[q]))]
        per_tree = np.bincount(tree[q], minlength=T)
        rank = np.arange(len(q)) - np.repeat(np.cumsum(per_tree) - per_tree,
                                             per_tree)
        left[q] = n_ids[tree[q]] + 2 * rank
        n_ids += 2 * per_tree
        ids = np.concatenate([left[split], left[split] + 1])
        tree = np.concatenate([tree[split], tree[split]])
        keep = split[node_s]
        inst_s, go_left = inst_s[keep], go_left[keep]
        node_inst = np.concatenate([inst_s[go_left], inst_s[~go_left]])
        counts = np.concatenate([n_left[split], (counts - n_left)[split]])

    tree, ids, G, H, feature, threshold, default_left, left = (
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
    value[~leaf | (ids == 0)] = 0.0
    feature = np.where(leaf, -1, feature)
    threshold = np.where(leaf, 0.0, threshold)
    default_left &= ~leaf
    # the nodes of each tree in id order
    at = np.lexsort((ids, tree))
    ends = np.cumsum(np.bincount(tree, minlength=T)).tolist()
    return [DecisionTree(feature=feature[a], threshold=threshold[a],
                         default_left=default_left[a], left=left[a],
                         value=value[a])
            for a in np.split(at, ends[:-1])]


def build_tree(g, h, data, params: TreeHyperParams, rng, rows=None) -> DecisionTree:
    """Newton tree over the given training rows (default all, ascending),
    grown one depth level at a time: `_build_trees` of one tree.

    `data` is a SparseDataset or its `_TrainMatrix`. The column draws come
    from `rng`."""
    tm = data if isinstance(data, _TrainMatrix) else _TrainMatrix(data)
    rows = np.arange(tm.n_rows) if rows is None else rows
    return _build_trees(np.asarray(g, dtype=float)[None],
                        np.asarray(h, dtype=float)[None], tm, params, [rng],
                        [rows])[0]


class _LinearColumns:
    """Training view for gblinear: the stored values of several folds' train
    rows of one dataset, column by column and, within a column, fold by fold.

    Fold i's segment of a column holds the column's values whose rows are
    among `trains[i]`, in row order: what the column of fold i's own subset
    would store. `inst` gives each value's row as `i * n_rows + row`, its
    place in a (folds, rows) array, and `values` the value. `columns` lists
    (c, j, lo, hi, segments) for each column j that stores a value in some
    fold's rows, c counting them and `lo:hi` being its range of `inst` and
    `values`. `segments` holds (i, a, b, inst, values, p) for each fold i
    whose segment is not empty: its range `a:b` within the column's, that
    range's `inst` and `values`, and p, the segment's number in
    column-then-fold order.
    """

    def __init__(self, dataset: SparseDataset, trains):
        csc = dataset.to_csc()
        R, n = len(trains), dataset.n_rows
        self.trains = trains
        self.n_cols = dataset.n_cols
        member = np.zeros((R, n), dtype=bool)
        for i, tr in enumerate(trains):
            member[i, tr] = True
        col = np.repeat(np.arange(dataset.n_cols), np.diff(csc.indptr))
        fold, pos = np.divmod(np.flatnonzero(member[:, csc.indices]),
                              len(csc.indices))
        key = col[pos] * R + fold
        order = np.argsort(key, kind="stable")
        key, fold, pos = key[order], fold[order], pos[order]
        self.inst = fold * n + csc.indices[pos]
        self.values = csc.data[pos]
        is_first = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=is_first[1:])
        first = np.flatnonzero(is_first)
        # a segment's hessian sum is a reduceat over its values behind a
        # zero, index len(key) of the values with a 0.0 appended
        self.zero_at = first + np.arange(len(first))
        self.behind_zero = np.full(len(key) + len(first), len(key))
        self.behind_zero[np.arange(len(key)) + np.cumsum(is_first)] = (
            np.arange(len(key)))
        seg_col, seg_fold = np.divmod(key[first], R)
        col_first = np.flatnonzero(np.diff(seg_col, prepend=-1))
        self.stored = seg_col[col_first]
        at = np.append(first, len(key)).tolist()
        seg_fold = seg_fold.tolist()
        spans = np.append(col_first, len(first)).tolist()
        self.columns = []
        for c, (j, p0, p1) in enumerate(zip(self.stored.tolist(), spans[:-1],
                                            spans[1:])):
            lo = at[p0]
            self.columns.append((c, j, lo, at[p1], [
                (seg_fold[p], at[p] - lo, at[p + 1] - lo,
                 self.inst[at[p]:at[p + 1]], self.values[at[p]:at[p + 1]], p)
                for p in range(p0, p1)]))


def _sweep_linear(cols: _LinearColumns, g, h, params: LinearHyperParams,
                  bias, weights):
    """One coordinate-descent sweep on the second-order loss approximation
    for every fold of `cols` at once: fold i fits row i of the (folds, rows)
    arrays `g` and `h` over its train rows, from its current `bias[i]` and
    `weights[i]`. Returns the (folds,) bias deltas and the (folds, n_cols)
    weight deltas.

    Each coordinate solves for the new total weight u:
        u = soft(H_j * w_j - G_j, alpha) / (H_j + lambda)
    with each fold's running raw-score delta kept consistent within the
    sweep. The bias uses lambda_bias and carries no L1 term. Folds share the
    column loop but nothing of their arithmetic: each fold's G_j is one dot
    product of its own segment, each H_j a sum of its own segment, so each
    fold gets the bits of its sweep alone.
    """
    R, n = g.shape
    # s[i * n + row]: fold i's raw-score delta accumulated during the sweep
    s = np.zeros(R * n)
    db = np.zeros(R)
    for i, tr in enumerate(cols.trains):
        Gb, Hb = g[i, tr].sum(), h[i, tr].sum()
        denom = Hb + params.reg_lambda_bias
        new_bias = (Hb * bias[i] - Gb) / denom if denom > 0 else bias[i]
        db[i] = new_bias - bias[i]
        if db[i] != 0.0:
            s[i * n:(i + 1) * n] += db[i]

    # everything but the running deltas s is fixed for the sweep
    gv, hv = g.take(cols.inst), h.take(cols.inst)
    hvv = (hv * cols.values) * cols.values
    # each segment's `.sum()`: 0.0 plus the pairwise sum of its values
    col_hess = np.add.reduceat(np.append(hvv, 0.0)[cols.behind_zero],
                               cols.zero_at).tolist()
    lam, alpha = params.reg_lambda, params.reg_alpha
    w_stored = weights[:, cols.stored].tolist()
    dw = np.zeros((R, cols.n_cols))
    for c, j, lo, hi, segments in cols.columns:
        x = gv[lo:hi] + hv[lo:hi] * s.take(cols.inst[lo:hi])
        for i, a, b, cr, cv, p in segments:
            # one BLAS dot of the fold's own segment, as its sweep alone
            # takes it; `dot` calls the same ddot as `@`, with less overhead
            Gj = float(cv.dot(x[a:b]))
            Hj = col_hess[p]
            denom = Hj + lam
            if denom <= 0:
                continue
            w = w_stored[i][c]
            z = Hj * w - Gj
            u = math.copysign(max(abs(z) - alpha, 0.0), z) / denom
            d = u - w
            # as in the fold's sweep alone, a zero step, +0.0 or -0.0,
            # writes nothing: its weight delta stays +0.0
            if d != 0.0:
                s[cr] += d * cv
                dw[i, j] = d
    return db, dw


def build_linear_delta(g, h, data: SparseDataset, params: LinearHyperParams,
                       current_bias=0.0, current_weights=None) -> LinearDelta:
    """One coordinate-descent sweep over all rows of `data` from the current
    bias and weights: `_sweep_linear` of one fold."""
    if current_weights is None:
        current_weights = np.zeros(data.n_cols)
    cols = _LinearColumns(data, [np.arange(data.n_rows)])
    db, dw = _sweep_linear(cols, np.asarray(g, dtype=float)[None],
                           np.asarray(h, dtype=float)[None], params,
                           [current_bias],
                           np.asarray(current_weights, dtype=float)[None])
    return LinearDelta(bias=float(db[0]), weights=dw[0])


def _summed_delta(deltas) -> LinearDelta:
    """The one linear delta that predicts like the given deltas together."""
    return LinearDelta(bias=sum(d.bias for d in deltas),
                       weights=np.sum([d.weights for d in deltas], axis=0))


BLOCK_ROWS = 1024  # rows per scorer block, bounding its dense table
WALK_PAIRS = 1 << 16  # (tree, row) pairs per forest walk; _Forest.leaf_values


class _Forest:
    """Trees concatenated into one node table, walked together over a dense
    table of the rows' values.

    The table has one row per (split feature, default direction) pair that
    the trees read, default-left pairs first, each group by feature:
    `features[p]` is pair p's feature. Its cells hold `fill[p]`, -inf for
    default left and +inf for default right, wherever a row stores no value
    of the feature. So an absent value goes its default way by the same
    comparison as a stored one: at node i a row goes left when its cell is
    below `threshold[i]`. A split's -inf threshold is clamped to the least
    float, which still sends every stored value right (they are finite:
    `SparseDataset` rejects others) and sends -inf left. `table_row[i]` is
    the pair node i reads.

    A spare row follows the pairs. `column_rows[0][j]` and
    `column_rows[1][j]` are the table rows of column j's default-left and
    default-right pairs, or the spare row where the trees read no such pair;
    a column past the last split feature takes the last entry, whose pairs
    are both spare. So every stored value can be written to both its rows.

    Node ids are global. A leaf loops back to itself: `right` is its own id,
    and its threshold -inf sends no cell left. So every row can take the
    same number of steps, the depth of the deepest tree. A leaf reads table
    row 0 and ignores it.
    """

    def __init__(self, trees):
        sizes = [len(t.left) for t in trees]
        self.roots = np.cumsum([0] + sizes[:-1], dtype=np.int64)
        left = np.concatenate([t.left for t in trees])
        leaf = left < 0
        split = ~leaf
        feature = np.concatenate([t.feature for t in trees])[split]
        default_left = np.concatenate([t.default_left for t in trees])[split]
        # a pair's key is its feature, plus m if it defaults right; column
        # m - 1 is past every split feature. Feature ids are small, so one
        # pass over the keys ranks them faster than a sort would
        m = (int(feature.max()) if feature.size else -1) + 2
        key = feature + m * ~default_left
        read = np.zeros(2 * m, dtype=bool)
        read[key] = True
        rank = np.cumsum(read) - 1
        pairs = np.flatnonzero(read)
        self.features = pairs % m
        self.fill = np.append(np.where(pairs < m, -np.inf, np.inf), 0.0)
        self.column_rows = np.where(read, rank, len(pairs)).reshape(2, m)
        self.table_row = np.zeros(len(left), dtype=np.int64)
        self.table_row[split] = rank[key]
        threshold = np.concatenate([t.threshold for t in trees])
        self.threshold = np.where(leaf, -np.inf,
                                  np.maximum(threshold, -np.finfo(float).max))
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

    def leaf_values(self, table, n):
        """(trees, rows) array: the leaf value each of `n` rows reaches in
        each tree, given the rows' table as one flat array, pair p's cells at
        `p * n` to `p * n + n`.

        Groups of trees are walked in turn, each group at most `WALK_PAIRS`
        (tree, row) pairs or one tree, so that its arrays stay in cache."""
        out = np.empty((len(self.roots), n))
        # flat offset of the table row each node reads
        offset = self.table_row * n
        row = np.arange(n)
        step = max(1, WALK_PAIRS // max(n, 1))
        for a in range(0, len(self.roots), step):
            # a (trees, rows) array of nodes, so that consecutive (tree, row)
            # pairs read few table rows, each in row order
            node = self.roots[a:a + step, None].repeat(n, axis=1)
            for _ in range(self.depth):
                x = table.take(offset.take(node) + row)
                node = self.right.take(node) - (x < self.threshold.take(node))
            out[a:a + step] = self.value.take(node)
        return out


def _walk(trees, data: SparseDataset) -> np.ndarray:
    """(trees, rows) array of the leaf value each row of `data` reaches in
    each of `trees`, all rows one table. Training walks its whole splits,
    whose CSC the dataset caches, so each table row is filled from its
    feature's column range."""
    forest = _Forest(trees)
    csc = data.to_csc()
    n = data.n_rows
    first = csc.indptr[forest.features]
    count = csc.indptr[forest.features + 1] - first
    pos = np.arange(count.sum()) + np.repeat(first - np.cumsum(count) + count,
                                             count)
    table = np.repeat(forest.fill, n)
    table[np.repeat(np.arange(len(count)) * n, count)
          + csc.indices[pos]] = csc.data[pos]
    return forest.leaf_values(table, n)


def predict_tree(tree: DecisionTree, data: SparseDataset) -> np.ndarray:
    """The leaf value each row of `data` reaches in `tree`."""
    return _walk([tree], data)[0]


def _fit_labels(loss, fit: SparseDataset, scored: SparseDataset):
    """The labels of `fit` that `loss` fits; raises unless they and the
    binary labels of `scored`, which the stopping metric ranks, exist."""
    if loss == LOGISTIC:
        y = fit.binary_labels
        if y is None:
            raise TrainingError("logistic loss requires binary labels")
    elif loss == QUADRATIC:
        y = fit.continuous_labels
        if y is None:
            raise TrainingError("quadratic loss requires continuous labels")
    else:
        raise TrainingError(f"unknown loss {loss!r}")
    if scored.binary_labels is None:
        raise TrainingError("the stopping metric requires the valid split's "
                            "binary labels")
    return y


def train_folds(data: SparseDataset, folds, params, loss,
                stop_metric: MetricSpec, *, patience=100, max_rounds=2000,
                seeds):
    """Boost one model per fold of `data`, all in lockstep, each until its
    valid metric stops improving for `patience` rounds.

    Fold k is a pair (train rows, valid rows) of ascending rows of `data`
    and draws from a generator seeded `seeds[k]`. The logistic loss fits the
    train rows' binary labels, the quadratic loss their continuous labels.
    The stopping metric ranks the valid rows' binary labels whatever the
    loss.

    Each round, one `_build_trees` pass grows the new tree of every fold
    still running, or one `_sweep_linear` pass over the columns of their
    train rows, laid out once and again whenever a fold stops, steps their
    gblinear weights; the round's learners score every row of `data` at
    once, and fold k reads its train and valid rows from its own row of the
    result. A fold that stops leaves the batch. Each fold's arithmetic and
    draws are those of the fold boosted alone, so its model and log are
    too.

    Returns one (model cut at the optimal round, `TrainingLog`) per fold. A
    cut gbtree model scores the valid rows bit for bit as boosting did at
    that round.
    """
    booster = GBTREE if isinstance(params, TreeHyperParams) else GBLINEAR
    folds = [(np.asarray(tr, dtype=np.int64), np.asarray(va, dtype=np.int64))
             for tr, va in folds]
    if any(len(tr) == 0 for tr, _ in folds):
        raise TrainingError("empty training set")
    y = _fit_labels(loss, data, data).astype(float)

    K, n = len(folds), data.n_rows
    rngs = [np.random.default_rng(seed) for seed in seeds]
    base = [float(y[tr].mean()) if loss == QUADRATIC else 0.0
            for tr, _ in folds]
    # raw[k] is fold k's raw score of every row
    raw = np.repeat(np.array(base)[:, None], n, axis=1)
    if booster == GBTREE:
        tm = _TrainMatrix(data)
    else:
        # the running folds' columns, laid out again when a fold stops
        cols = _LinearColumns(data, [tr for tr, _ in folds])
        cum_w = np.zeros((K, data.n_cols))
        cum_b = np.zeros(K)
    lr = params.learning_rate

    def score(k):
        va = folds[k][1]
        s = expit(raw[k, va]) if loss == LOGISTIC else raw[k, va]
        try:
            return oriented_score(stop_metric, s, data.binary_labels[va])
        except MetricError as e:
            raise TrainingError(f"stopping metric failed: {e}") from e

    logs = [[score(k)] for k in range(K)]
    best = [(log[0], 0) for log in logs]   # (score, round)
    learners = [[] for _ in range(K)]
    running = list(range(K))
    for t in range(1, max_rounds + 1):
        g, h = grad_hess(loss, y, raw[running])
        if booster == GBTREE:
            rows = []
            for k in running:
                tr = folds[k][0]
                if params.subsample < 1.0:
                    m = max(1, int(round(params.subsample * len(tr))))
                    tr = tr[np.sort(rngs[k].choice(len(tr), size=m,
                                                   replace=False))]
                rows.append(tr)
            round_learners = _build_trees(g, h, tm, params,
                                          [rngs[k] for k in running], rows)
            out = _walk(round_learners, data)
        else:
            if len(cols.trains) != len(running):
                cols = _LinearColumns(data, [folds[k][0] for k in running])
            bias, dw = _sweep_linear(cols, g, h, params, cum_b[running],
                                     cum_w[running])
            round_learners = [LinearDelta(bias=float(b), weights=w)
                              for b, w in zip(bias, dw)]
            # scipy sums each row alone, in stored order, for every column
            out = bias[:, None] + (data.to_csr() @ dw.T).T
            cum_b[running] += lr * bias
            cum_w[running] += lr * dw
        raw[running] += lr * out
        for k, learner in zip(running, round_learners):
            learners[k].append(learner)
            logs[k].append(score(k))
            if logs[k][-1] > best[k][0]:
                best[k] = (logs[k][-1], t)
        running = [k for k in running if t - best[k][1] < patience]
        if not running:
            break

    result = []
    for k in range(K):
        kept = learners[k][:best[k][1]]
        if booster == GBLINEAR and kept:
            kept = [_summed_delta(kept)]
        result.append((GbmModel(booster=booster, loss=loss,
                                base_score=base[k], learning_rate=lr,
                                learners=kept, n_cols=data.n_cols),
                       TrainingLog(scores=logs[k], optimal_round=best[k][1])))
    return result


def train_gbm(train: SparseDataset, valid: SparseDataset, params, loss,
              stop_metric: MetricSpec, *, patience=100, max_rounds=2000,
              seed=0):
    """Boost until the valid metric stops improving for `patience` rounds:
    `train_folds` of one fold, over the train rows and then the valid rows.

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
    if train.n_rows > 0:
        # checked here, where the valid split's labels are still its own
        _fit_labels(loss, train, valid)

    def labels(kind):
        # labels that no step reads, such as the valid rows' fitted labels,
        # are zeros
        parts = [getattr(d, kind) for d in (train, valid)]
        return np.concatenate([np.zeros(d.n_rows) if p is None else p
                               for d, p in zip((train, valid), parts)])

    both = SparseDataset(
        train.n_rows + valid.n_rows, train.n_cols,
        np.concatenate([train.indptr, valid.indptr[1:] + train.indptr[-1]]),
        np.concatenate([train.indices, valid.indices]),
        np.concatenate([train.values, valid.values]),
        continuous_labels=labels("continuous_labels"),
        binary_labels=labels("binary_labels"))
    rows = np.arange(both.n_rows)
    return train_folds(both, [(rows[:train.n_rows], rows[train.n_rows:])],
                       params, loss, stop_metric, patience=patience,
                       max_rounds=max_rounds, seeds=[seed])[0]


class _Scorer:
    """Scores many models together: called on a SparseDataset, it returns a
    (models, rows) array of what `predict_gbm` returns for each model.

    The trees of all gbtree models are one `_Forest`, walked a block of
    `BLOCK_ROWS` rows at a time over a table filled straight from the
    block's CSR arrays through the forest's `column_rows`. The gblinear
    models' summed deltas are the columns of one weight matrix, multiplied
    once with the dataset's CSR."""

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
        if trees:
            self.forest = _Forest(trees)
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
        n = data.n_rows
        raw = np.repeat(self.base[:, None], n, axis=1)
        for a in range(0, n if self.spans else 0, BLOCK_ROWS):
            b = min(a + BLOCK_ROWS, n)
            leaves = self._leaf_values(data, a, b)
            for i, s, e in self.spans:
                # accumulate adds the trees in order; a pairwise sum would
                # change the last bits
                raw[i, a:b] = np.add.accumulate(leaves[s:e], axis=0)[-1]
        if self.linear.size:
            i = self.linear
            raw[i] += self.lr[i, None] * (self.bias
                                          + (data.to_csr() @ self.weights).T)
        raw[self.logistic] = expit(raw[self.logistic])
        return raw

    def _leaf_values(self, data, a, b):
        """The forest's leaf values of rows a:b of `data`, whose stored
        values are scattered into their table rows from the CSR arrays."""
        n = b - a
        lo, hi = data.indptr[a], data.indptr[b]
        cols = data.indices[lo:hi]
        values = data.values[lo:hi]
        row = np.repeat(np.arange(n), np.diff(data.indptr[a:b + 1]))
        table = np.repeat(self.forest.fill, n)
        rows = self.forest.column_rows.take(cols, axis=1, mode="clip")
        table[rows * n + row] = values
        return self.forest.leaf_values(table, n)


def predict_gbm(model: GbmModel, data: SparseDataset) -> np.ndarray:
    """Predict every row of `data` with every learner of the model, as a
    `_Scorer` of it alone. Logistic models return probabilities in (0, 1);
    quadratic models return raw scores, tree outputs added in order, as
    training added them."""
    return _Scorer([model])(data)[0]
