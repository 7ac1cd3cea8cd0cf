"""Boosting-core tests: gradients, tree building, linear sweeps, training."""
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from _oracles import (_Columns, boosted_trees_oracle, breadth_first,
                      column_sweep_oracle, depth_first_tree_oracle,
                      exact_greedy_tree_oracle, flat_tree_walk_oracle,
                      gbm_prediction_oracle, per_fold_sweep_oracle,
                      per_model_boosting_oracle, tree_walk_oracle)
from cbforest import gbm, persistence
from cbforest.data import (LabelMapping, SparseDataset, binarize,
                           load_svmlight, stratified_kfold)
from cbforest.gbm import (BLOCK_ROWS, GBLINEAR, GBTREE, LOGISTIC, QUADRATIC,
                          DecisionTree, GbmModel, LinearDelta,
                          LinearHyperParams, TrainingError, TreeHyperParams,
                          build_linear_delta, build_tree, grad_hess,
                          predict_gbm, predict_tree, train_gbm)
from cbforest.metrics import MetricSpec, logloss, oriented_score

# frozen with an independent high-precision evaluator (mpmath, 30 digits)
SIGMOID_2 = 0.8807970779778823
HESS_AT_2 = 0.10499358540350652


def dataset_from_dense(X, binary=None, continuous=None):
    rows = [[(j, float(v)) for j, v in enumerate(r) if v != 0.0] for r in X]
    return SparseDataset.from_rows(rows, n_cols=len(X[0]),
                                   binary_labels=binary,
                                   continuous_labels=continuous)


# -------------------------------------------------------------- grad_hess

def test_grad_hess_logistic_at_zero():
    g, h = grad_hess(LOGISTIC, 1.0, 0.0)
    assert g == -0.5
    assert h == 0.25


def test_grad_hess_quadratic_at_minimum():
    g, h = grad_hess(QUADRATIC, 3.0, 3.0)
    assert g == 0.0
    assert h == 1.0


def test_grad_hess_logistic_frozen_point():
    g, h = grad_hess(LOGISTIC, 0.0, 2.0)
    assert g == pytest.approx(SIGMOID_2, abs=1e-6)
    assert h == pytest.approx(HESS_AT_2, abs=1e-6)


def _loss_value(loss, y, raw):
    if loss == LOGISTIC:
        return math.log1p(math.exp(-abs(raw))) + max(raw, 0.0) - y * raw
    return 0.5 * (raw - y) ** 2


def test_grad_hess_matches_finite_differences():
    g_rng = np.random.default_rng(100)
    eps = 1e-6
    for _ in range(100):
        raw = float(g_rng.uniform(-4, 4))
        for loss in (LOGISTIC, QUADRATIC):
            y = (float(g_rng.integers(0, 2)) if loss == LOGISTIC
                 else float(g_rng.uniform(-3, 3)))
            g, h = grad_hess(loss, y, raw)
            fd_g = (_loss_value(loss, y, raw + eps)
                    - _loss_value(loss, y, raw - eps)) / (2 * eps)
            # second differences need a wider step to stay above float noise
            e2 = 1e-4
            fd_h = (_loss_value(loss, y, raw + e2) - 2 * _loss_value(loss, y, raw)
                    + _loss_value(loss, y, raw - e2)) / e2 ** 2
            assert g == pytest.approx(fd_g, rel=1e-6, abs=1e-6)
            assert h == pytest.approx(fd_h, rel=1e-4, abs=1e-4)


def test_grad_hess_vectorized():
    g, h = grad_hess(QUADRATIC, np.array([1.0, 2.0]), np.array([3.0, 2.0]))
    assert np.array_equal(g, [2.0, 0.0])
    assert np.array_equal(h, [1.0, 1.0])


# -------------------------------------------------------------- build_tree

def _leaves(tree):
    return tree.value[tree.left < 0].tolist()


def _root(tree):
    """(feature, threshold, default_left) of the root split."""
    return (int(tree.feature[0]), float(tree.threshold[0]),
            bool(tree.default_left[0]))


def _root_children(tree):
    """Leaf values of the root's left and right children."""
    c = tree.left[0]
    return (float(tree.value[c]), float(tree.value[c + 1]))


def test_build_tree_zero_gradient_single_leaf():
    ds = dataset_from_dense([[1.0, 0.0], [0.0, 1.0]], binary=[1, 0])
    tree = build_tree(np.zeros(2), np.ones(2), ds,
                      TreeHyperParams(reg_lambda=0.0),
                      np.random.default_rng(0))
    assert tree.n_leaves() == 1
    assert _leaves(tree) == [0.0]


def test_build_tree_two_row_hand_example():
    # feature 0 present on row 0 only; Newton weights are -G/(H+lambda)
    ds = dataset_from_dense([[1.0], [0.0]], binary=[1, 0])
    tree = build_tree(np.array([-1.0, 1.0]), np.array([1.0, 1.0]), ds,
                      TreeHyperParams(gamma=0.0, reg_lambda=0.0, max_depth=1),
                      np.random.default_rng(0))
    assert tree.n_leaves() == 2
    assert sorted(_leaves(tree)) == [-1.0, 1.0]


def test_build_tree_gamma_blocks_split():
    ds = dataset_from_dense([[1.0], [0.0]], binary=[1, 0])
    # best achievable gain is 1/2(1 + 1 - 0) = 1; gamma above it blocks
    tree = build_tree(np.array([-1.0, 1.0]), np.array([1.0, 1.0]), ds,
                      TreeHyperParams(gamma=2.0, reg_lambda=0.0, max_depth=1),
                      np.random.default_rng(0))
    assert tree.n_leaves() == 1


def test_build_tree_max_delta_step_clips_leaves():
    ds = dataset_from_dense([[1.0], [0.0]], binary=[1, 0])
    tree = build_tree(np.array([-5.0, 5.0]), np.array([1.0, 1.0]), ds,
                      TreeHyperParams(gamma=0.0, reg_lambda=0.0, max_depth=1,
                                      max_delta_step=2.0),
                      np.random.default_rng(0))
    assert sorted(_leaves(tree)) == [-2.0, 2.0]


def test_build_tree_min_child_weight_blocks_split():
    ds = dataset_from_dense([[1.0], [0.0]], binary=[1, 0])
    tree = build_tree(np.array([-1.0, 1.0]), np.array([0.5, 0.5]), ds,
                      TreeHyperParams(reg_lambda=0.0, max_depth=1,
                                      min_child_weight=1.0),
                      np.random.default_rng(0))
    assert tree.n_leaves() == 1


def test_build_tree_depth_bound():
    g_rng = np.random.default_rng(5)
    X = (g_rng.random((200, 12)) < 0.3).astype(float)
    ds = dataset_from_dense(X, binary=(g_rng.random(200) < 0.5).astype(int))
    g = g_rng.normal(size=200)
    h = np.full(200, 0.25)
    for depth in (1, 2, 3, 4):
        tree = build_tree(g, h, ds, TreeHyperParams(max_depth=depth),
                          np.random.default_rng(1))
        assert tree.n_leaves() <= 2 ** depth


def test_build_tree_non_binary_feature_values():
    # continuous-valued column: split threshold between observed values
    ds = dataset_from_dense([[0.1], [0.2], [0.9], [1.0]], binary=[0, 0, 1, 1])
    g = np.array([1.0, 1.0, -1.0, -1.0])
    h = np.ones(4)
    tree = build_tree(g, h, ds, TreeHyperParams(reg_lambda=0.0, max_depth=1),
                      np.random.default_rng(0))
    assert tree.n_leaves() == 2
    assert 0.2 < tree.threshold[0] <= 0.9
    assert sorted(_leaves(tree)) == [-1.0, 1.0]


def test_build_tree_tie_prefers_lowest_feature():
    # both features separate rows {0, 1} from {2, 3} with gain 2; feature 1
    # holds one value everywhere, feature 0 two values
    ds = SparseDataset.from_rows([[(0, 1.0), (1, 1.0)], [(0, 2.0), (1, 1.0)],
                                  [], []], n_cols=2)
    tree = build_tree(np.array([-1.0, -1.0, 1.0, 1.0]), np.ones(4), ds,
                      TreeHyperParams(reg_lambda=0.0, max_depth=1),
                      np.random.default_rng(0))
    assert _root(tree) == (0, 1.0, True)
    assert _root_children(tree) == (-1.0, 1.0)


def _nested(tree, i=0):
    """The flat tree as the oracles' nested tuples."""
    c = int(tree.left[i])
    if c < 0:
        return ("leaf", float(tree.value[i]))
    return ("split", int(tree.feature[i]), float(tree.threshold[i]),
            bool(tree.default_left[i]), _nested(tree, c), _nested(tree, c + 1))


def _level_features(seed, n_cols, params):
    """Allowed features per depth, drawn in build_tree's documented order."""
    rng = np.random.default_rng(seed)
    if params.colsample_bytree < 1.0:
        k = max(1, int(round(params.colsample_bytree * n_cols)))
        tree_feats = np.sort(rng.choice(n_cols, size=k, replace=False))
    else:
        tree_feats = np.arange(n_cols)
    levels = []
    for _ in range(params.max_depth):
        if params.colsample_bylevel < 1.0:
            k = max(1, int(round(params.colsample_bylevel * len(tree_feats))))
            levels.append(rng.choice(tree_feats, size=k, replace=False).tolist())
        else:
            levels.append(tree_feats.tolist())
    return levels


COLUMN_VALUES = {
    "binary": [1.0],
    "count": [1.0, 2.0, 3.0, 4.0, 5.0],
    "negative": [-2.0, -0.5, 0.0, 1.5],
}


def _random_tree_case(r):
    n = int(r.integers(2, 40))
    p = int(r.integers(1, 7))
    kind = str(r.choice(["binary", "count", "negative", "mixed"]))
    col_kinds = (r.choice(list(COLUMN_VALUES), size=p) if kind == "mixed"
                 else [kind] * p)
    density = float(r.choice([0.2, 0.5, 0.9]))
    rows = [[(j, float(r.choice(COLUMN_VALUES[col_kinds[j]])))
             for j in range(p) if r.random() < density] for _ in range(n)]
    # integer-valued g/h keep every sum exact, so ties are true ties
    g = r.integers(-3, 4, size=n).astype(float)
    h = r.integers(1, 4, size=n).astype(float)
    params = TreeHyperParams(
        max_depth=int(r.integers(1, 5)),
        reg_lambda=float(r.choice([0.0, 1.0, 2.0])),
        gamma=float(r.choice([0.0, 0.5, 2.0])),
        min_child_weight=float(r.choice([0.0, 1.0, 3.0])),
        colsample_bytree=float(r.choice([1.0, 0.7])),
        colsample_bylevel=float(r.choice([1.0, 0.5])))
    subset = (np.sort(r.choice(n, size=max(2, int(0.7 * n)), replace=False))
              if r.random() < 0.4 else None)
    return rows, p, g, h, params, subset


def test_build_tree_matches_exact_greedy_oracle():
    r = np.random.default_rng(20171005)
    splits = 0
    for case in range(300):
        rows, p, g, h, params, subset = _random_tree_case(r)
        ds = SparseDataset.from_rows(rows, n_cols=p)
        tree = build_tree(g, h, ds, params, np.random.default_rng(case),
                          rows=subset)
        expected = exact_greedy_tree_oracle(
            [dict(pairs) for pairs in rows], g.tolist(), h.tolist(),
            range(len(rows)) if subset is None else subset.tolist(),
            _level_features(case, p, params), params.max_depth,
            reg_lambda=params.reg_lambda, gamma=params.gamma,
            min_child_weight=params.min_child_weight)
        assert _nested(tree) == expected, f"case {case}"
        splits += tree.n_leaves() - 1
    assert splits > 300


def _values(r, kind, size):
    """`size` stored values of one column kind."""
    if kind == "real":
        return np.round(r.normal(size=size), 1)
    if kind == "raw":
        return r.normal(size=size)
    if kind == "zero":   # stored zeros beside other present values
        return r.choice([0.0, 0.0, 1.0, 2.5], size=size)
    return r.choice(COLUMN_VALUES[kind], size=size)


def _gradients(r, n):
    """Integer-valued, logistic or quadratic g/h for n rows."""
    kind = r.choice(["integer", "logistic", "logistic", "quadratic"])
    if kind == "integer":
        return (r.integers(-3, 4, size=n).astype(float),
                r.integers(1, 4, size=n).astype(float))
    y = (r.random(n) < 0.3).astype(float)
    if kind == "logistic":
        return grad_hess(LOGISTIC, y, r.normal(scale=2.0, size=n))
    return grad_hess(QUADRATIC, y + r.normal(size=n), r.normal(size=n))


def _builder_case(r, case):
    """A random build_tree input: data, g/h, params and a row subset."""
    n = int(r.integers(2, 120))
    p = int(r.integers(256, 300)) if case % 50 == 7 else int(r.integers(1, 16))
    kinds = ["binary", "count", "negative", "zero", "real", "raw"]
    col_kinds = r.choice(kinds, size=p)
    density = float(r.choice([0.05, 0.2, 0.5, 0.9]))
    present = r.random((n, p)) < density
    X = np.zeros((n, p))
    for j in range(p):
        X[:, j] = _values(r, col_kinds[j], n)
    rows = [[(j, float(X[i, j])) for j in np.flatnonzero(present[i])]
            for i in range(n)]
    g, h = _gradients(r, n)
    params = TreeHyperParams(
        max_depth=int(r.integers(1, 7)),
        reg_lambda=float(r.choice([0.0, 1.0, 2.0])),
        gamma=float(r.choice([0.0, 0.0, 0.05, 0.5])),
        min_child_weight=float(r.choice([0.0, 0.1, 1.0, 3.0])),
        max_delta_step=float(r.choice([0.0, 0.0, 0.3])),
        colsample_bytree=float(r.choice([1.0, 0.7])),
        colsample_bylevel=float(r.choice([1.0, 0.5])))
    subset = (np.sort(r.choice(n, size=max(2, int(r.uniform(0.3, 0.9) * n)),
                               replace=False))
              if r.random() < 0.4 else None)
    return SparseDataset.from_rows(rows, n_cols=p), g, h, params, subset


def _tie_case():
    """272 rows of 34 real features (N(0, 1) rounded to 0.1) under logistic
    g/h and reg_lambda=0. At a depth-2 node of 32 rows, feature 14
    (threshold -0.85, default right) and feature 32 (threshold 0.6) split
    the rows alike, so their gains tie in exact arithmetic; the float gains
    differ in the last bit and the tree splits on feature 32."""
    r = np.random.default_rng(0)
    rows = [[(j, float(np.round(r.normal(), 1))) for j in range(34)
             if r.random() < 0.3] for _ in range(272)]
    raw = r.normal(size=272)
    y = (r.random(272) < 0.3).astype(float)
    g, h = grad_hess(LOGISTIC, y, raw)
    params = TreeHyperParams(max_depth=3, reg_lambda=0.0, min_child_weight=0.0)
    return SparseDataset.from_rows(rows, n_cols=34), g, h, params, None


def _assert_same_arrays(tree, ref, what):
    for name in DecisionTree.ARRAYS:
        a, b = getattr(tree, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), \
            f"{what}: {name}"


def _assert_same_tree(case, ds, g, h, params, subset):
    rng, ref_rng = np.random.default_rng(case), np.random.default_rng(case)
    tree = build_tree(g, h, ds, params, rng, rows=subset)
    ref = breadth_first(depth_first_tree_oracle(g, h, ds, params, ref_rng,
                                                rows=subset))
    _assert_same_arrays(tree, ref, f"case {case}")
    assert rng.bit_generator.state == ref_rng.bit_generator.state, case
    return tree


@pytest.mark.parametrize("hist_cells", [gbm.HIST_CELLS, 40],
                         ids=["one_batch", "node_batches"])
def test_build_tree_matches_depth_first_builder(hist_cells, monkeypatch):
    """The level-wise builder returns the previous depth-first builder's
    arrays, renumbered breadth-first, bit for bit and leaves the RNG where
    it left it. A small HIST_CELLS makes each level search its nodes in
    several batches."""
    monkeypatch.setattr(gbm, "HIST_CELLS", hist_cells)
    r = np.random.default_rng(20261018)
    splits = wide = 0
    for case in range(320):
        ds, g, h, params, subset = _builder_case(r, case)
        tree = _assert_same_tree(case, ds, g, h, params, subset)
        splits += tree.n_leaves() - 1
        wide += ds.n_cols >= 256
    assert splits > 1000 and wide >= 5
    tree = _assert_same_tree(0, *_tie_case())
    assert 32 in tree.feature.tolist()


@pytest.mark.parametrize("hist_cells", [gbm.HIST_CELLS, 40],
                         ids=["one_batch", "node_batches"])
def test_build_trees_grows_each_tree_as_built_alone(hist_cells, monkeypatch):
    """`_build_trees` grows each of its trees as `build_tree` grows it alone
    over a `_TrainMatrix` of the tree's own rows: the same five arrays bit
    for bit, its generator left in the same state. Trees of zero gradient
    stay bare roots beside trees that split, and a feature stored only in
    some trees' rows changes nothing for the others."""
    monkeypatch.setattr(gbm, "HIST_CELLS", hist_cells)
    r = np.random.default_rng(20261021)
    mixed = 0
    for case in range(150):
        ds, _, _, params, _ = _builder_case(r, case)
        n, T = ds.n_rows, int(r.integers(1, 5))
        g, h = np.empty((T, n)), np.empty((T, n))
        rows = []
        for t in range(T):
            g[t], h[t] = _gradients(r, n)
            if r.random() < 0.2:
                g[t] = 0.0
            rows.append(np.sort(r.choice(n, size=int(r.integers(1, n + 1)),
                                         replace=False)))
        seeds = r.integers(1 << 32, size=T)
        rngs = [np.random.default_rng(seed) for seed in seeds]
        trees = gbm._build_trees(g, h, gbm._TrainMatrix(ds), params, rngs,
                                 rows)
        for t, (tree, rng) in enumerate(zip(trees, rngs)):
            ref_rng = np.random.default_rng(seeds[t])
            ref = build_tree(g[t, rows[t]], h[t, rows[t]],
                             ds.subset(rows[t]), params, ref_rng)
            _assert_same_arrays(tree, ref, f"case {case}, tree {t}")
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        sizes = {len(tree.left) > 1 for tree in trees}
        mixed += sizes == {True, False}
    assert mixed >= 10


def _assert_breadth_first(tree):
    """Split nodes in id order have children 1, 2, then 3, 4, and so on."""
    split = np.flatnonzero(tree.left >= 0)
    assert tree.left[split].tolist() == (1 + 2 * np.arange(len(split))).tolist()


def test_train_gbm_numbers_bushy_trees_breadth_first():
    """Trees with several split nodes per level are numbered breadth-first,
    in the model and in its archive."""
    g_rng = np.random.default_rng(15)
    X = (g_rng.random((300, 12)) < 0.4) * g_rng.integers(1, 5, (300, 12))
    z = X[:, 0] - X[:, 1] + 0.5 * X[:, 2] * X[:, 3] + g_rng.normal(0, 0.5, 300)
    mapping = LabelMapping(float(np.median(z)), "greater_is_positive")
    ds = dataset_from_dense(X, binary=binarize(z, mapping), continuous=z)
    model, log = train_gbm(ds, ds, TreeHyperParams(max_depth=5,
                                                   min_child_weight=0.5,
                                                   subsample=0.8),
                           QUADRATIC, MetricSpec(kind="auc_roc"),
                           patience=100, max_rounds=20, seed=0)
    loaded = persistence._gbm_from_dict(
        json.loads(json.dumps(persistence._gbm_to_dict(model))))
    assert len(loaded.learners) == log.optimal_round > 0
    for tree in model.learners + loaded.learners:
        _assert_breadth_first(tree)
    # both children of the root split, so depth-first ids would differ
    assert all(t.left[1] >= 0 and t.left[2] >= 0 for t in model.learners)
    assert np.array_equal(predict_gbm(loaded, ds), predict_gbm(model, ds))


def _linear_case(r, case):
    n = int(r.integers(1, 60))
    p = int(r.integers(1, 12))
    X = np.where(r.random((n, p)) < 0.5,
                 r.choice([1.0, 2.0, -0.5, 0.3, 1e-3], size=(n, p))
                 * r.normal(size=(n, p)), 0.0)
    X[:, r.random(p) < 0.2] = 0.0     # columns that store nothing
    ds = dataset_from_dense(X)
    loss = LOGISTIC if case % 2 else QUADRATIC
    y = (r.random(n) < 0.4).astype(float)
    g, h = grad_hess(loss, y, r.normal(size=n))
    params = LinearHyperParams(
        reg_lambda=float(r.choice([0.0, 0.5, 2.0])),
        reg_alpha=float(r.choice([0.0, 0.0, 0.05, 1.0])),
        reg_lambda_bias=float(r.choice([0.0, 1.0])))
    bias = float(r.choice([0.0, r.normal()]))
    weights = (None if case % 3 == 0
               else np.where(r.random(p) < 0.6, r.normal(size=p), 0.0))
    return ds, loss, g, h, params, bias, weights


def test_linear_delta_matches_column_sweep():
    """The sweep returns the previous sweeps' weights and bias bit for bit,
    on both losses: the per-column sweep's and the per-fold sweep's, the
    latter with the quadratic loss's fixed column hessian sums computed once
    as its trainer did."""
    r = np.random.default_rng(777)
    zeroed = 0
    for case in range(300):
        ds, loss, g, h, params, bias, weights = _linear_case(r, case)
        d = build_linear_delta(g, h, ds, params, bias, weights)
        col_hess = None
        if loss == QUADRATIC:
            col_hess = _Columns(ds).hess_sums(np.ones(ds.values.size))
        for ref in (column_sweep_oracle(g, h, ds, params, bias, weights),
                    per_fold_sweep_oracle(g, h, ds, params, bias, weights,
                                          col_hess)):
            assert d.weights.tobytes() == ref.weights.tobytes(), f"case {case}"
            assert d.bias == ref.bias, f"case {case}"
        # a column L1 left at zero although its gradient is not zero
        zeroed += params.reg_alpha > 0 and weights is None and bool(
            ((d.weights == 0) & (ds.to_csc().getnnz(axis=0) > 0)).any())
    assert zeroed >= 10


def _lockstep_case(r, case, n_max):
    """A random dataset with negative values and stored 0.0 and -0.0, its
    last column stored only in rows that fold 0 alone trains on, K train
    row sets, the running folds, and their gradients, hessians and current
    biases and weights. Fold 0, when it runs, may have a zero gradient and
    model, so that its every step is zero."""
    n, p, K = (int(r.integers(2, n_max)), int(r.integers(2, 14)),
               int(r.integers(1, 5)))
    member = r.random((K, n)) < 0.6
    member[:, 0] = np.arange(K) == 0
    member[np.arange(K), r.integers(0, n, K)] = True
    X = np.where(r.random((n, p)) < 0.5,
                 r.choice([1.0, 2.0, -0.5, 0.3, 1e-3], size=(n, p))
                 * r.normal(size=(n, p)), 0.0)
    X[:, r.random(p) < 0.15] = 0.0     # columns that store nothing
    only_fold_0 = member[0] & ~member[1:].any(axis=0)
    X[:, p - 1] = np.where(only_fold_0, r.normal(size=n), 0.0)
    stored = X != 0
    stored[r.random((n, p)) < 0.05] = True
    stored[:, p - 1] = only_fold_0
    values = np.where(r.random((n, p)) < 0.5, 0.0, -0.0)
    values[X != 0] = X[X != 0]
    ds = SparseDataset(n, p, np.append(0, np.cumsum(stored.sum(axis=1))),
                       np.nonzero(stored)[1], values[stored])
    loss = LOGISTIC if case % 2 else QUADRATIC
    y = (r.random(n) < 0.4).astype(float)
    running = np.flatnonzero(r.random(K) < 0.7)
    running = running if running.size else np.array([K - 1])
    g, h = grad_hess(loss, y, r.normal(size=(len(running), n)))
    params = LinearHyperParams(
        reg_lambda=float(r.choice([0.0, 0.5, 2.0])),
        reg_alpha=float(r.choice([0.0, 0.05, 1.0])),
        reg_lambda_bias=float(r.choice([0.0, 1.0])))
    bias = np.where(r.random(len(running)) < 0.5, r.normal(size=len(running)),
                    0.0)
    weights = np.where(r.random((len(running), p)) < 0.3,
                       r.normal(size=(len(running), p)), 0.0)
    if running[0] == 0 and r.random() < 0.5:
        g[0], bias[0], weights[0] = 0.0, 0.0, 0.0
    trains = [np.flatnonzero(member[k]) for k in running]
    return ds, g, h, params, bias, weights, trains


def _assert_lockstep_matches_each_fold(seed, cases, n_max):
    """`_sweep_linear` of random running folds gives each fold the bits of
    `column_sweep_oracle` of that fold alone, over its own subset. Returns
    counts of what the cases covered: columns stored in one fold's rows
    alone, columns where one fold stepped and another did not, and columns
    that L1 left at zero although their gradient was not zero."""
    r = np.random.default_rng(seed)
    lone = mixed = zeroed = 0
    for case in range(cases):
        ds, g, h, params, bias, weights, trains = _lockstep_case(r, case,
                                                                 n_max)
        db, dw = gbm._sweep_linear(gbm._LinearColumns(ds, trains), g, h,
                                   params, bias, weights)
        has = np.array([ds.subset(tr).to_csc().getnnz(axis=0) > 0
                        for tr in trains])
        for i, tr in enumerate(trains):
            ref = column_sweep_oracle(g[i, tr], h[i, tr], ds.subset(tr),
                                      params, bias[i], weights[i])
            assert dw[i].tobytes() == ref.weights.tobytes(), (case, i)
            assert db[i] == ref.bias, (case, i)
            zeroed += int((params.reg_alpha > 0 and g[i].any()) * (
                has[i] & (dw[i] == 0) & (weights[i] == 0)).sum())
        lone += int(has[:, -1].sum() == 1 < len(trains))
        mixed += int(((has & (dw == 0)).any(axis=0)
                      & (has & (dw != 0)).any(axis=0)).sum())
    return lone, mixed, zeroed


def test_lockstep_sweep_matches_each_fold_alone():
    """One sweep over all running folds gives each fold, bit for bit, the
    weights and bias of the per-fold sweep of that fold alone: with folds
    stopped, a column stored in one fold's rows alone, a fold that does not
    step beside folds that do, columns that L1 zeroes, negative values and
    stored 0.0 and -0.0, on both losses."""
    lone, mixed, zeroed = _assert_lockstep_matches_each_fold(5, 300, 80)
    assert lone >= 50 and mixed >= 100 and zeroed >= 100


# The check that runs under each forced OpenBLAS kernel, in its own process
BLAS_CHECK = """
import json
from _blas import openblas_core
from test_gbm import _assert_lockstep_matches_each_fold
# segments of up to a few hundred values reach every kernel's vector loop
_assert_lockstep_matches_each_fold(8, 40, 600)
print(json.dumps({"core": openblas_core()}))
"""


@pytest.mark.parametrize("core", ["Haswell", "Sandybridge"])
def test_lockstep_sweep_bits_do_not_depend_on_the_blas_kernel(core):
    """Under another CPU's OpenBLAS kernel, whose dot products sum in their
    own order, the lockstep sweep still gives each fold the bits of its
    sweep alone: batching the folds adds no kernel-dependent order. The
    variable acts only on the process it is set for."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)]
                           + [p for p in [os.environ.get("PYTHONPATH")] if p])
    env = dict(os.environ, OPENBLAS_CORETYPE=core, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", BLAS_CHECK], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    picked = json.loads(proc.stdout.splitlines()[-1])["core"]
    assert picked in (core, "unknown"), picked


def test_build_tree_rows_without_values():
    empty = SparseDataset.from_rows([[], [], []], n_cols=2)
    tree = build_tree(np.array([-1.0, 1.0, 2.0]), np.ones(3), empty,
                      TreeHyperParams(reg_lambda=0.0, max_depth=2),
                      np.random.default_rng(0))
    assert tree.n_leaves() == 1 and _leaves(tree) == [0.0]

    # rows 2 and 4 store nothing: they take the learned default direction
    ds = SparseDataset.from_rows([[(0, 1.0)], [(0, 3.0)], [], [(0, 3.0)], []],
                                 n_cols=1)
    g = np.array([-2.0, 2.0, -2.0, 2.0, -2.0])
    tree = build_tree(g, np.ones(5), ds,
                      TreeHyperParams(reg_lambda=0.0, max_depth=1),
                      np.random.default_rng(0))
    assert _root(tree) == (0, 2.0, True)
    model = GbmModel(booster=GBTREE, loss=QUADRATIC, base_score=0.0,
                     learning_rate=1.0, learners=[tree],
                     n_cols=1)
    assert np.array_equal(predict_gbm(model, ds), [2.0, -2.0, 2.0, -2.0, 2.0])


def test_build_tree_stored_zero_is_present(tmp_path):
    # SVMLight `0:0` stores an explicit zero; it is a present value
    path = tmp_path / "zeros.svm"
    path.write_text("1 0:0\n1 0:0\n0\n0\n")
    ds = load_svmlight(path, "binary")
    assert ds.values.tolist() == [0.0, 0.0]
    tree = build_tree(np.array([-1.0, -1.0, 1.0, 1.0]), np.ones(4), ds,
                      TreeHyperParams(reg_lambda=0.0, max_depth=1),
                      np.random.default_rng(0))
    assert _root(tree) == (0, 0.0, True)
    model = GbmModel(booster=GBTREE, loss=QUADRATIC, base_score=0.0,
                     learning_rate=1.0, learners=[tree],
                     n_cols=1)
    assert np.array_equal(predict_gbm(model, ds), [1.0, 1.0, -1.0, -1.0])


def test_build_tree_never_splits_on_feature_without_values():
    # feature 0 is present in every row (no absent side), feature 1 nowhere
    ds = SparseDataset.from_rows([[(0, 1.0)]] * 4, n_cols=2)
    tree = build_tree(np.array([-1.0, -1.0, 1.0, 1.0]), np.ones(4), ds,
                      TreeHyperParams(reg_lambda=0.0, min_child_weight=0.0),
                      np.random.default_rng(0))
    assert tree.n_leaves() == 1

    g_rng = np.random.default_rng(12)
    X = (g_rng.random((60, 3)) < 0.4) * g_rng.integers(1, 4, size=(60, 3))
    X[:, 1] = 0
    ds = dataset_from_dense(X.astype(float))
    tree = build_tree(g_rng.normal(size=60), np.full(60, 0.25), ds,
                      TreeHyperParams(max_depth=4, min_child_weight=0.0),
                      np.random.default_rng(1))
    used = set(tree.feature[tree.left >= 0].tolist())
    assert used and 1 not in used


# ------------------------------------------------------ build_linear_delta

def test_linear_delta_zero_gradient():
    ds = dataset_from_dense([[1.0, 1.0]], binary=[1])
    d = build_linear_delta(np.zeros(1), np.ones(1), ds, LinearHyperParams())
    assert d.bias == 0.0
    assert np.array_equal(d.weights, [0.0, 0.0])


def test_linear_delta_closed_form():
    ds = dataset_from_dense([[1.0]], binary=[1])
    d = build_linear_delta(np.array([-1.0]), np.array([1.0]), ds,
                           LinearHyperParams(reg_lambda=0.0, reg_alpha=0.0,
                                             reg_lambda_bias=1e12))
    # bias frozen out by a huge lambda_bias; weight solves -g/h = 1
    assert d.bias == pytest.approx(0.0, abs=1e-9)
    assert d.weights[0] == pytest.approx(1.0, abs=1e-9)


def test_linear_delta_lambda_monotonicity():
    g_rng = np.random.default_rng(6)
    X = g_rng.random((30, 3))
    ds = dataset_from_dense(X, binary=[1] * 15 + [0] * 15)
    g = g_rng.normal(size=30)
    h = np.full(30, 0.25)
    norms = []
    for lam in (0.0, 1.0, 10.0, 1000.0):
        d = build_linear_delta(g, h, ds,
                               LinearHyperParams(reg_lambda=lam,
                                                 reg_lambda_bias=1e12))
        norms.append(np.abs(d.weights).sum())
    assert norms == sorted(norms, reverse=True)
    assert norms[-1] < norms[0]


def test_linear_delta_l1_soft_threshold_zeroes_weak_columns():
    ds = dataset_from_dense([[1.0, 0.01], [1.0, 0.0]], binary=[1, 0])
    d = build_linear_delta(np.array([-0.1, -0.1]), np.ones(2), ds,
                           LinearHyperParams(reg_alpha=1.0,
                                             reg_lambda_bias=1e12))
    assert d.weights[1] == 0.0


# --------------------------------------------------------------- training

def make_label_equals_feature_data():
    # feature 0 exactly equals the binary label; 8 rows
    y = [1, 0, 1, 0, 1, 0, 1, 0]
    X = [[float(v), float(i % 3 == 0)] for i, v in enumerate(y)]
    return dataset_from_dense(X, binary=y)


def test_train_gbm_learns_perfect_feature():
    ds = make_label_equals_feature_data()
    model, log = train_gbm(ds, ds, TreeHyperParams(max_depth=1), LOGISTIC,
                           MetricSpec(kind="auc_roc"), patience=5,
                           max_rounds=50, seed=0)
    assert max(log.scores) == 1.0
    assert log.optimal_round <= 10
    preds = predict_gbm(model, ds)
    assert ((preds > 0.5) == (ds.binary_labels == 1)).all()


def test_train_gbm_constant_labels_base_score_only():
    X = [[float(i % 2), 1.0] for i in range(8)]
    ds = dataset_from_dense(X, binary=[1] * 8)
    model, log = train_gbm(ds, ds, TreeHyperParams(gamma=0.5), LOGISTIC,
                           MetricSpec(kind="logloss"), patience=5,
                           max_rounds=50, seed=0)
    assert log.optimal_round == 0 and model.learners == []
    assert np.allclose(predict_gbm(model, ds), 0.5)


def test_train_gbm_deterministic():
    ds = make_label_equals_feature_data()
    kwargs = dict(patience=5, max_rounds=30, seed=123)
    params = TreeHyperParams(max_depth=2, subsample=0.75, colsample_bytree=0.6)
    _, a = train_gbm(ds, ds, params, LOGISTIC, MetricSpec(kind="auc_roc"),
                     **kwargs)
    _, b = train_gbm(ds, ds, params, LOGISTIC, MetricSpec(kind="auc_roc"),
                     **kwargs)
    assert a == b


def _boosted_raw_scores(ds, y, loss, params, base, rounds):
    """Raw training scores after each of `rounds` boosting rounds, index 0
    for the base score alone, built from `grad_hess` and `build_tree` as
    `train_gbm` builds them (no subsample, so no row draws)."""
    rng = np.random.default_rng(0)
    raws = [np.full(ds.n_rows, base)]
    for _ in range(rounds):
        g, h = grad_hess(loss, y, raws[-1])
        tree = build_tree(g, h, ds, params, rng)
        raws.append(raws[-1] + params.learning_rate * predict_tree(tree, ds))
    return raws


def _assert_prefixes_score(model, ds, raws, loss):
    """The model's first t trees predict `raws[t]` bit for bit."""
    for t in range(len(model.learners) + 1):
        prefix = dataclasses.replace(model, learners=model.learners[:t])
        expected = expit(raws[t]) if loss == LOGISTIC else raws[t]
        assert np.array_equal(predict_gbm(prefix, ds), expected), t


def test_train_gbm_monotone_training_loss_logistic():
    g_rng = np.random.default_rng(8)
    X = (g_rng.random((120, 10)) < 0.3).astype(float)
    y = ((X[:, 0] + X[:, 1] + g_rng.normal(0, 0.3, 120)) > 0.8).astype(int)
    y[0], y[1] = 1, 0
    ds = dataset_from_dense(X, binary=y)
    params = TreeHyperParams(max_depth=3, learning_rate=0.1)
    raws = _boosted_raw_scores(ds, y, LOGISTIC, params, 0.0, 40)
    losses = [logloss(expit(raw), y) for raw in raws]
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))
    model, log = train_gbm(ds, ds, params, LOGISTIC,
                           MetricSpec(kind="auc_roc"), patience=10,
                           max_rounds=40, seed=0)
    assert len(model.learners) == log.optimal_round > 0
    _assert_prefixes_score(model, ds, raws, LOGISTIC)


def test_train_gbm_monotone_training_loss_quadratic():
    g_rng = np.random.default_rng(9)
    X = (g_rng.random((120, 10)) < 0.3).astype(float)
    z = X[:, 0] * 2 - X[:, 1] + g_rng.normal(0, 0.2, 120)
    mapping = LabelMapping(float(np.median(z)), "greater_is_positive")
    ds = dataset_from_dense(X, binary=binarize(z, mapping), continuous=z)
    params = TreeHyperParams(max_depth=3, learning_rate=0.1)
    raws = _boosted_raw_scores(ds, z, QUADRATIC, params, float(z.mean()), 40)
    sq = [float(((raw - z) ** 2).sum()) for raw in raws]
    assert all(b <= a + 1e-9 for a, b in zip(sq, sq[1:]))
    model, log = train_gbm(ds, ds, params, QUADRATIC,
                           MetricSpec(kind="auc_roc"), patience=10,
                           max_rounds=40, seed=0)
    assert len(model.learners) == log.optimal_round > 0
    _assert_prefixes_score(model, ds, raws, QUADRATIC)


def _fold_data(r, n=150, p=8):
    """Count, binary and real columns, a column stored only in rows of fold
    2, binary and continuous labels, and three stratified folds."""
    X = np.where(r.random((n, p)) < 0.4,
                 r.choice([1.0, 2.0, 3.0, -0.5, 0.25], size=(n, p)), 0.0)
    X[:, 2] = np.round(r.normal(size=n), 1) * (r.random(n) < 0.6)
    z = X[:, 0] - X[:, 1] + 0.5 * X[:, 2] + r.normal(0, 0.5, n)
    y = binarize(z, LabelMapping(float(np.quantile(z, 0.7)),
                                 "greater_is_positive"))
    folds = stratified_kfold(y, 3, seed=int(r.integers(1000)))
    X[:, p - 1] = np.where(folds.fold_of_row == 2, r.integers(1, 4, n), 0.0)
    z = z + X[:, p - 1]
    return dataset_from_dense(X, binary=y, continuous=z), folds


def _assert_same_fit(fit, ref, what):
    (model, log), (ref_model, ref_log) = fit, ref
    assert log.scores == ref_log.scores, what
    assert log.optimal_round == ref_log.optimal_round, what
    for name in ("booster", "loss", "base_score", "learning_rate", "n_cols"):
        assert getattr(model, name) == getattr(ref_model, name), (what, name)
    assert len(model.learners) == len(ref_model.learners), what
    for i, (a, b) in enumerate(zip(model.learners, ref_model.learners)):
        if isinstance(a, DecisionTree):
            _assert_same_arrays(a, b, f"{what}, tree {i}")
        else:
            assert a.bias == b.bias, what
            assert a.weights.tobytes() == b.weights.tobytes(), what


FOLD_PARAMS = {
    "depth3": TreeHyperParams(max_depth=3, learning_rate=0.3),
    "sampled": TreeHyperParams(max_depth=4, subsample=0.7,
                               colsample_bytree=0.6, colsample_bylevel=0.5,
                               learning_rate=0.3),
    "clipped": TreeHyperParams(max_depth=4, max_delta_step=0.2,
                               min_child_weight=0.5, learning_rate=0.5),
    "linear": LinearHyperParams(reg_lambda=0.5, reg_alpha=0.05,
                                learning_rate=0.5),
}


@pytest.mark.parametrize("loss", [LOGISTIC, QUADRATIC])
@pytest.mark.parametrize("name, hist_cells", [
    pytest.param(name, cells, id=f"{name}-{cells_id}")
    for name in sorted(FOLD_PARAMS)
    for cells, cells_id in ((gbm.HIST_CELLS, "one_batch"), (40, "node_batches"))
    if name != "linear" or cells_id == "one_batch"])
def test_train_folds_matches_per_model_boosting(name, hist_cells, loss,
                                                monkeypatch):
    """The K fold models boosted in lockstep are, bit for bit, the models
    each fold boosts alone over its own subsets: trees or linear deltas,
    logs, optimal rounds and so out-of-fold predictions. The folds stop at
    different rounds."""
    monkeypatch.setattr(gbm, "HIST_CELLS", hist_cells)
    r = np.random.default_rng(sorted(FOLD_PARAMS).index(name))
    ds, folds = _fold_data(r)
    pairs = [(folds.train_rows(k), folds.valid_rows(k)) for k in range(3)]
    seeds = [11, 12, 13]
    spec = MetricSpec(kind="auc_roc")
    fits = gbm.train_folds(ds, pairs, FOLD_PARAMS[name], loss, spec,
                           patience=4, max_rounds=40, seeds=seeds)
    for k, ((tr, va), fit) in enumerate(zip(pairs, fits)):
        ref = per_model_boosting_oracle(ds.subset(tr), ds.subset(va),
                                        FOLD_PARAMS[name], loss, spec,
                                        patience=4, max_rounds=40,
                                        seed=seeds[k])
        _assert_same_fit(fit, ref, f"fold {k}")
        assert (predict_gbm(fit[0], ds.subset(va)).tobytes()
                == predict_gbm(ref[0], ds.subset(va)).tobytes())
    assert len({len(log.scores) for _, log in fits}) > 1


def test_train_folds_bare_root_beside_splits(monkeypatch):
    """A fold whose train rows all carry one continuous label grows bare
    roots while the other folds' trees split in the same pass, and stops
    first; every fold still matches its model boosted alone."""
    grown = []

    def recorded(*args):
        trees = build_trees(*args)
        grown.append([len(t.left) for t in trees])
        return trees

    build_trees = gbm._build_trees
    monkeypatch.setattr(gbm, "_build_trees", recorded)
    r = np.random.default_rng(4)
    X = np.where(r.random((90, 5)) < 0.5, r.integers(1, 4, (90, 5)), 0.0)
    fold = np.arange(90) % 3
    z = np.where(fold == 0, X[:, 0] - X[:, 1] + r.normal(0, 0.3, 90), 1.0)
    y = (r.random(90) < 0.3).astype(np.int8)
    y[:6] = [1, 1, 1, 0, 0, 0]
    ds = dataset_from_dense(X, binary=y, continuous=z)
    pairs = [(np.flatnonzero(fold != k), np.flatnonzero(fold == k))
             for k in range(3)]
    params = TreeHyperParams(max_depth=3, learning_rate=0.3)
    spec = MetricSpec(kind="auc_roc")
    fits = gbm.train_folds(ds, pairs, params, QUADRATIC, spec, patience=5,
                           max_rounds=30, seeds=[1, 2, 3])
    for k, ((tr, va), fit) in enumerate(zip(pairs, fits)):
        ref = per_model_boosting_oracle(ds.subset(tr), ds.subset(va), params,
                                        QUADRATIC, spec, patience=5,
                                        max_rounds=30, seed=k + 1)
        _assert_same_fit(fit, ref, f"fold {k}")
    assert grown[0][0] == 1 and min(grown[0][1:]) > 1
    assert len(fits[0][1].scores) == 6 < len(fits[1][1].scores)
    assert len(grown[-1]) < 3


def test_train_gbm_gblinear_learns():
    ds = make_label_equals_feature_data()
    model, log = train_gbm(ds, ds, LinearHyperParams(learning_rate=0.5),
                           LOGISTIC, MetricSpec(kind="auc_roc"), patience=5,
                           max_rounds=50, seed=0)
    assert model.booster == GBLINEAR
    assert max(log.scores) == 1.0


def test_train_gbm_quadratic_regression_with_binarized_stop():
    g_rng = np.random.default_rng(10)
    X = (g_rng.random((60, 6)) < 0.4).astype(float)
    z = 3 * X[:, 0] + g_rng.normal(0, 0.1, 60)
    ds = dataset_from_dense(
        X, binary=binarize(z, LabelMapping(1.5, "greater_is_positive")),
        continuous=z)
    model, log = train_gbm(ds, ds, TreeHyperParams(max_depth=2), QUADRATIC,
                           MetricSpec(kind="auc_roc"), patience=5,
                           max_rounds=40, seed=0)
    assert model.loss == QUADRATIC
    assert max(log.scores) > 0.9


def test_train_gbm_requires_binary_labels_on_the_valid_split():
    """The stopping metric ranks the valid split's binary labels, whatever
    the loss fits."""
    train = dataset_from_dense([[1.0], [0.0]], binary=[1, 0],
                               continuous=[1.0, 0.0])
    valid = dataset_from_dense([[1.0], [0.0]], continuous=[1.0, 0.0])
    for loss in (LOGISTIC, QUADRATIC):
        with pytest.raises(TrainingError, match="valid split's binary labels"):
            train_gbm(train, valid, TreeHyperParams(), loss,
                      MetricSpec(kind="auc_roc"), patience=2, max_rounds=5,
                      seed=0)


def test_train_gbm_raises_what_per_model_boosting_raised():
    """Whatever labels the train and valid splits lack, and with an empty
    train split or an unknown loss, `train_gbm` raises the error the
    per-model loop raised, and `train_folds` of the same rows as one
    dataset raises it too."""
    import itertools

    def split(n_rows, kinds):
        return dataset_from_dense(
            [[1.0], [0.0]], binary=[1, 0] if "b" in kinds else None,
            continuous=[1.0, 0.0] if "c" in kinds else None
        ).subset(np.arange(n_rows))

    def error(fn, *args, **kw):
        try:
            fn(*args, TreeHyperParams(), loss, MetricSpec(kind="auc_roc"),
               patience=2, max_rounds=3, **kw)
        except TrainingError as e:
            return str(e)

    seen = set()
    for loss in (LOGISTIC, QUADRATIC, "poisson"):
        for n, tk, vk in itertools.product((0, 2), ("", "b", "c", "bc"),
                                           ("", "b", "c", "bc")):
            train, valid = split(n, tk), split(2, vk)
            want = error(per_model_boosting_oracle, train, valid, seed=0)
            assert error(train_gbm, train, valid, seed=0) == want
            if tk == vk:
                rows = np.arange(2)
                assert error(gbm.train_folds, split(2, tk),
                             [(rows[:n], rows)], seeds=[0]) == want
            seen.add(want)
    assert len(seen) == 6   # five errors and none


def test_train_gbm_column_mismatch():
    a = dataset_from_dense([[1.0]], binary=[1])
    b = dataset_from_dense([[1.0, 0.0]], binary=[1])
    with pytest.raises(TrainingError):
        train_gbm(a, b, TreeHyperParams(), LOGISTIC,
                  MetricSpec(kind="auc_roc"), patience=2, max_rounds=5, seed=0)


# ------------------------------------------------------------- predict_gbm

def test_predict_zero_learners_logistic():
    model = GbmModel(booster=GBTREE, loss=LOGISTIC, base_score=0.0,
                     learning_rate=0.1, learners=[],
                     n_cols=2)
    ds = dataset_from_dense([[1.0, 0.0], [0.0, 1.0]], binary=[1, 0])
    assert np.array_equal(predict_gbm(model, ds), [0.5, 0.5])


def test_predict_zero_learners_quadratic_returns_base():
    model = GbmModel(booster=GBTREE, loss=QUADRATIC, base_score=2.5,
                     learning_rate=0.1, learners=[],
                     n_cols=1)
    ds = dataset_from_dense([[1.0]], continuous=[0.0])
    assert np.array_equal(predict_gbm(model, ds), [2.5])


def _split_rows():
    """100 training and 60 held-out rows of one noisy binary problem."""
    g_rng = np.random.default_rng(12)
    X = (g_rng.random((160, 8)) < 0.4) * g_rng.integers(1, 4, (160, 8))
    y = ((X[:, 0] - X[:, 1] + g_rng.normal(0, 0.5, 160)) > 0.5).astype(int)
    return (dataset_from_dense(X[:100], binary=y[:100]),
            dataset_from_dense(X[100:], binary=y[100:]))


def test_predict_truncation_matches_discarding_learners():
    """The model cut at the optimal round is the one a run stopped there
    returns: the rounds past the optimum leave no trace."""
    train, valid = _split_rows()
    kw = dict(patience=5, seed=0)
    args = (train, valid, TreeHyperParams(max_depth=3), LOGISTIC,
            MetricSpec(kind="auc_roc"))
    model, log = train_gbm(*args, max_rounds=200, **kw)
    r = log.optimal_round
    assert 0 < r < len(log.scores) - 1
    short, short_log = train_gbm(*args, max_rounds=r, **kw)
    assert short_log.scores == log.scores[:r + 1]
    assert short_log.optimal_round == r
    assert len(short.learners) == len(model.learners) == r
    for ds in (train, valid):
        assert np.array_equal(predict_gbm(short, ds), predict_gbm(model, ds))


@pytest.mark.parametrize("booster", [GBTREE, GBLINEAR])
@pytest.mark.parametrize("cut", ["zero", "mid", "last"])
def test_cut_model_scores_its_logged_optimum(booster, cut):
    """The returned model's stopping score on the valid split is the logged
    score at the optimal round: bit for bit for trees, up to the rounding
    of summing the gblinear deltas into one. The optimum falls at round 0
    (the valid labels are flipped), between the ends (patience stops the
    run) or at the last round (the training loss on the training rows)."""
    train, valid = _split_rows()
    stop = MetricSpec(kind="auc_roc")
    kw = dict(patience=5, max_rounds=200)
    if cut == "zero":
        valid.binary_labels = 1 - valid.binary_labels
    elif cut == "last":
        valid, stop = train, MetricSpec(kind="logloss")
        kw = dict(patience=100, max_rounds=8)
    params = (TreeHyperParams(max_depth=3) if booster == GBTREE
              else LinearHyperParams(learning_rate=0.3))
    model, log = train_gbm(train, valid, params, LOGISTIC, stop, seed=0, **kw)
    r, trained = log.optimal_round, len(log.scores) - 1
    assert {"zero": r == 0, "mid": 0 < r < trained,
            "last": r == trained == kw["max_rounds"]}[cut]
    assert len(model.learners) == (r if booster == GBTREE else min(r, 1))
    score = oriented_score(stop, predict_gbm(model, valid), valid.binary_labels)
    if booster == GBTREE:
        assert score == log.scores[r]
    else:
        assert score == pytest.approx(log.scores[r], rel=1e-12, abs=1e-12)


def _flat(nested):
    """A nested oracle tree as a DecisionTree, children allocated in pairs."""
    arrays = {"feature": [], "threshold": [], "default_left": [], "left": [],
              "value": []}

    def add():
        for name, v in (("feature", -1), ("threshold", 0.0),
                        ("default_left", False), ("left", -1), ("value", 0.0)):
            arrays[name].append(v)

    def fill(i, node):
        if node[0] == "leaf":
            arrays["value"][i] = node[1]
            return
        _, f, t, dl, lo, hi = node
        c = len(arrays["left"])
        add()
        add()
        arrays["feature"][i], arrays["threshold"][i] = f, t
        arrays["default_left"][i], arrays["left"][i] = dl, c
        fill(c, lo)
        fill(c + 1, hi)

    add()
    fill(0, nested)
    return DecisionTree(**{k: np.array(v) for k, v in arrays.items()})


def _random_nested_tree(r, col_values, depth, features=None):
    """A random nested tree splitting on the columns of `col_values`, or,
    given `features`, on `features[j]` for its column j."""
    if depth == 0 or r.random() < 0.2:
        return ("leaf", float(r.normal()))
    f = int(r.integers(len(col_values)))
    # a stored value equal to the threshold goes right
    threshold = float(r.choice(col_values[f])) + float(r.choice([0.0, 0.5]))
    return ("split", f if features is None else features[f], threshold,
            bool(r.random() < 0.5),
            _random_nested_tree(r, col_values, depth - 1, features),
            _random_nested_tree(r, col_values, depth - 1, features))


def _assert_boosted_like_the_oracle(trees, rows, ds, case, r):
    """`predict_gbm` of `trees` and of their first half and none, under
    either loss, equals `boosted_trees_oracle` bit for bit."""
    loss = LOGISTIC if case % 2 else QUADRATIC
    base_score = float(r.normal())
    learning_rate = float(r.choice([0.1, 0.3, 1.0]))
    for rounds in (len(trees), len(trees) // 2, 0):
        cut = trees[:rounds]
        model = GbmModel(booster=GBTREE, loss=loss, base_score=base_score,
                         learning_rate=learning_rate,
                         learners=[_flat(t) for t in cut], n_cols=ds.n_cols)
        raw = np.array(boosted_trees_oracle(cut, rows, base_score,
                                            learning_rate))
        expected = expit(raw) if loss == LOGISTIC else raw
        assert predict_gbm(model, ds).tobytes() == expected.tobytes(), \
            f"case {case}, rounds {rounds}"


def _defaults_of_splits(tree):
    if tree[0] == "leaf":
        return set()
    return ({tree[3]} | _defaults_of_splits(tree[4])
            | _defaults_of_splits(tree[5]))


def _assert_walks_far_apart_features_like_the_oracle(split_on):
    """Trees that split on `split_on` walk like the oracle over rows that
    store all of those features (every third row), a random part of them
    or none of them, among up to 30 other stored columns."""
    r = np.random.default_rng(split_on[-1])
    defaults = set()
    for case in range(12):
        n_cols = int(r.integers(split_on[-1] + 1, 2001))
        col_values = [COLUMN_VALUES[k]
                      for k in r.choice(list(COLUMN_VALUES), size=n_cols)]
        rows = []
        for i in range(int(r.integers(1, 40))):
            others = set(r.choice(n_cols, size=int(r.integers(0, 30))).tolist())
            kept = [f for f in split_on
                    if i % 3 == 0 or (i % 3 == 1 and r.random() < 0.5)]
            stored = sorted((others - set(split_on)) | set(kept))
            rows.append({j: float(r.choice(col_values[j])) for j in stored})
        trees = [_random_nested_tree(r, [col_values[f] for f in split_on],
                                     int(r.integers(1, 6)), split_on)
                 for _ in range(1 + case % 5)]
        ds = SparseDataset.from_rows([sorted(row.items()) for row in rows],
                                     n_cols=n_cols)
        for tree in trees:
            defaults |= _defaults_of_splits(tree)
            expected = [tree_walk_oracle(tree, row) for row in rows]
            assert predict_tree(_flat(tree), ds).tolist() == expected
        _assert_boosted_like_the_oracle(trees, rows, ds, case, r)
    assert defaults == {False, True}


def test_predict_gbm_matches_tree_walk_oracle():
    # binary, count and negative columns (the last stores explicit 0.0),
    # rows storing nothing, both default directions, no-op depth-0 trees,
    # models of 0 learners and walks cut at fewer rounds than trees
    r = np.random.default_rng(20261018)
    for case in range(120):
        n_cols = int(r.integers(1, 8))
        col_values = [COLUMN_VALUES[k]
                      for k in r.choice(list(COLUMN_VALUES), size=n_cols)]
        rows = []
        for _ in range(int(r.integers(1, 30))):
            density = 0.0 if r.random() < 0.2 else float(r.choice([0.3, 0.8]))
            rows.append({j: float(r.choice(col_values[j]))
                         for j in range(n_cols) if r.random() < density})
        trees = [_random_nested_tree(r, col_values, int(r.integers(1, 6)))
                 for _ in range(case % 6)]
        if trees and case % 3 == 0:
            trees.insert(int(r.integers(len(trees))), ("leaf", 0.0))
        ds = SparseDataset.from_rows([sorted(row.items()) for row in rows],
                                     n_cols=n_cols)
        _assert_boosted_like_the_oracle(trees, rows, ds, case, r)

    # up to 2,000 columns, trees that split on a few far-apart features, and
    # rows that store all, some or none of them among other columns: the
    # walk reads each split feature from its own row of the block's table
    for split_on in ([0, 777, 1999], [1999], [3, 4, 1024],
                     [5, 600, 1400, 1998]):
        _assert_walks_far_apart_features_like_the_oracle(split_on)


def _assert_scored_like_one_model_at_a_time(models, data):
    scores = gbm._Scorer(models)(data)
    assert scores.shape == (len(models), data.n_rows)
    for i, model in enumerate(models):
        expected = gbm_prediction_oracle(model, data).tobytes()
        assert scores[i].tobytes() == expected, i
        assert predict_gbm(model, data).tobytes() == expected, i


@pytest.mark.parametrize("loss", [LOGISTIC, QUADRATIC])
def test_scorer_matches_the_per_model_oracle_on_dense_wide_rows(loss):
    # 512 columns, 60 % stored: a linear row adds about 300 products
    g = np.random.default_rng(25)
    X = (g.random((240, 512)) < 0.6) * g.integers(1, 4, (240, 512))
    z = X[:, 0] - X[:, 1] + X[:, 2] + g.normal(0, 1.0, 240)
    ds = dataset_from_dense(X, binary=(z > 2.0).astype(int), continuous=z)
    train = ds.subset(np.arange(160))
    samples = [TreeHyperParams(max_depth=4), LinearHyperParams(),
               TreeHyperParams(max_depth=2, learning_rate=0.3),
               LinearHyperParams(reg_alpha=0.5, learning_rate=0.2)]
    models = [train_gbm(train, train, params, loss,
                        MetricSpec(kind="auc_roc"), patience=6, max_rounds=6,
                        seed=seed)[0]
              for seed, params in enumerate(samples)]
    assert all(m.learners for m in models)
    _assert_scored_like_one_model_at_a_time(models, ds)
    _assert_scored_like_one_model_at_a_time(models, ds.subset([200]))


def test_scorer_matches_the_per_model_oracle_on_summed_and_empty_models():
    g = np.random.default_rng(26)
    ds = dataset_from_dense((g.random((50, 20)) < 0.5) * g.normal(size=(50, 20)))
    deltas = [LinearDelta(bias=float(g.normal()), weights=g.normal(size=20))
              for _ in range(3)]
    models = [
        # several deltas, as an older archive may hold
        GbmModel(GBLINEAR, LOGISTIC, 0.0, 0.5, deltas, 20),
        GbmModel(GBLINEAR, QUADRATIC, 1.5, 0.3, [], 20),
        GbmModel(GBTREE, LOGISTIC, -0.25, 0.1, [], 20),
        GbmModel(GBLINEAR, QUADRATIC, 0.7, 0.2, deltas[1:], 20),
    ]
    _assert_scored_like_one_model_at_a_time(models, ds)
    # no tree and no linear weight at all
    _assert_scored_like_one_model_at_a_time(models[1:3], ds)


def test_scorer_walk_groups_split_models_and_fall_between_them():
    """A block of BLOCK_ROWS rows walks 64 trees a group: the first model
    fills one group, so a boundary falls between it and the second, whose
    70 trees span two groups."""
    assert gbm.WALK_PAIRS // BLOCK_ROWS == 64
    r = np.random.default_rng(27)
    col_values = [COLUMN_VALUES[k] for k in r.choice(list(COLUMN_VALUES), 5)]
    rows = [sorted({j: float(r.choice(col_values[j]))
                    for j in range(5) if r.random() < 0.5}.items())
            for _ in range(BLOCK_ROWS)]
    ds = SparseDataset.from_rows(rows, n_cols=5)
    models = [GbmModel(GBTREE, loss, float(r.normal()), lr,
                       [_flat(_random_nested_tree(r, col_values,
                                                  int(r.integers(1, 4))))
                        for _ in range(n_trees)], 5)
              for n_trees, loss, lr in ((64, QUADRATIC, 0.1),
                                        (70, LOGISTIC, 0.3),
                                        (3, QUADRATIC, 1.0))]
    _assert_scored_like_one_model_at_a_time(models, ds)


@pytest.mark.parametrize("booster", [GBTREE, GBLINEAR])
def test_predict_gbm_rows_one_at_a_time_equal_the_batch(booster):
    g_rng = np.random.default_rng(14)
    n = BLOCK_ROWS + 200
    X = (g_rng.random((n, 10)) < 0.3) * g_rng.integers(1, 4, (n, 10))
    y = ((X[:, 0] - X[:, 1] + g_rng.normal(0, 0.5, n)) > 0.5).astype(int)
    ds = dataset_from_dense(X, binary=y)
    train = ds.subset(np.arange(200))
    params = (TreeHyperParams(max_depth=4) if booster == GBTREE
              else LinearHyperParams(learning_rate=0.3))
    model, _ = train_gbm(train, train, params, LOGISTIC,
                         MetricSpec(kind="auc_roc"), patience=100,
                         max_rounds=15, seed=0)
    batch = predict_gbm(model, ds)
    one_by_one = [predict_gbm(model, ds.subset([i]))[0] for i in range(n)]
    assert np.array_equal(one_by_one, batch)


# thresholds a loaded archive may hold beside those training finds: JSON
# parses Infinity, and the least and largest floats are thresholds too
EDGE_THRESHOLDS = [-math.inf, -sys.float_info.max, sys.float_info.max,
                   math.inf]
# stored values of the split features, the extreme floats included
EDGE_VALUES = [-sys.float_info.max, -2.0, 0.0, 1.0, 3.0, sys.float_info.max]


def _edge_nested_tree(r, depth, root=None):
    """A random nested tree over features 0-4 whose thresholds are stored
    values, midpoints or `EDGE_THRESHOLDS`; `root` fixes the root's (feature,
    default_left)."""
    if depth == 0 or (root is None and r.random() < 0.2):
        return ("leaf", float(r.normal()))
    f, dl = root or (int(r.integers(5)), bool(r.random() < 0.5))
    threshold = float(r.choice(EDGE_THRESHOLDS + EDGE_VALUES[1:-1]
                               + [-1.5, 0.5, 2.0]))
    return ("split", f, threshold, dl, _edge_nested_tree(r, depth - 1),
            _edge_nested_tree(r, depth - 1))


@pytest.mark.parametrize("n", [1, BLOCK_ROWS, BLOCK_ROWS + 1])
def test_walk_with_default_rows_matches_the_oracles(n):
    """Feature 0 is split on with absent rows sent left and right, so the
    walk's table holds a -inf row and a +inf row for it. Infinite and
    extreme thresholds and stored values, and rows that store none of the
    split features (every fourth), score as the oracles
    walk them: the batch, each row alone and `predict_tree`, bit for bit."""
    r = np.random.default_rng(28 + n)
    rows = []
    for i in range(n):
        stored = {j: float(r.choice(EDGE_VALUES)) for j in range(5)
                  if i % 4 != 3 and r.random() < 0.5}
        stored.update({j: float(r.normal()) for j in (5, 6, 7)
                       if r.random() < 0.5})
        rows.append(sorted(stored.items()))
    ds = SparseDataset.from_rows(rows, n_cols=8)
    models = []
    for k, (loss, lr) in enumerate(((QUADRATIC, 1.0), (LOGISTIC, 0.3),
                                    (QUADRATIC, 0.1))):
        trees = [_edge_nested_tree(r, int(r.integers(1, 6)),
                                   root=(0, t % 2 == 0) if k == 0 else None)
                 for t in range(6)]
        models.append(GbmModel(GBTREE, loss, float(r.normal()), lr,
                               [_flat(t) for t in trees], 8))
    forest = gbm._Forest(models[0].learners)
    assert forest.features.tolist().count(0) == 2
    for tree in models[0].learners:
        expected = [flat_tree_walk_oracle(tree, dict(row)) for row in rows]
        assert predict_tree(tree, ds).tolist() == expected
    scorer = gbm._Scorer(models)
    batch = scorer(ds)
    for i, model in enumerate(models):
        assert batch[i].tobytes() == gbm_prediction_oracle(model, ds).tobytes()
    alone = np.column_stack([scorer(ds.subset([i])) for i in range(n)])
    assert alone.tobytes() == batch.tobytes()


def test_predict_column_mismatch():
    ds = make_label_equals_feature_data()
    model, _ = train_gbm(ds, ds, TreeHyperParams(max_depth=1), LOGISTIC,
                         MetricSpec(kind="auc_roc"), patience=3, max_rounds=10,
                         seed=0)
    wrong = dataset_from_dense([[1.0]], binary=[1])
    with pytest.raises(Exception):
        predict_gbm(model, wrong)


def test_logistic_outputs_in_open_unit_interval():
    ds = make_label_equals_feature_data()
    model, _ = train_gbm(ds, ds, TreeHyperParams(max_depth=2), LOGISTIC,
                         MetricSpec(kind="auc_roc"), patience=3, max_rounds=30,
                         seed=0)
    p = predict_gbm(model, ds)
    assert (p > 0.0).all() and (p < 1.0).all()
