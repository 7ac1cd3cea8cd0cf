"""Independent from-definition oracles used by the test suite.

Everything here but the last sections is written with plain Python loops
straight from the metric and split-gain definitions, deliberately sharing no
code (and no vectorized shortcuts) with the package implementation. The last
seven sections keep the package's previous layer-1 builders and its
previous per-fold gblinear sweep, which the current ones must match bit for
bit, its previous line-by-line SVMLight parser and per-token SVMLight
writer, its previous `rankdata` AUC-ROC, its previous per-model prediction
arithmetic and its previous per-model boosting loop. The tie rule for the
rank-based early-retrieval metrics — a stable shuffle seeded with 902119
before the descending sort — is part of the documented metric contract and
is re-derived here independently.
"""
import io
import math
import random

import numpy as np
from scipy.special import expit
from scipy.stats import rankdata

from cbforest.data import (_MAX_INDEX, DataError, SparseDataset, _decode,
                           _fmt)
from cbforest.gbm import (GBLINEAR, GBTREE, LOGISTIC, QUADRATIC,
                          DecisionTree, GbmModel, LinearDelta,
                          LinearHyperParams, TrainingError, TrainingLog,
                          TreeHyperParams, _summed_delta, _TrainMatrix,
                          build_tree, grad_hess, predict_tree)
from cbforest.metrics import MetricError, MetricSpec, oriented_score

TIE_SEED = 902119


def tie_shuffled_descending(scores):
    """Row indices by descending score, ties broken by the documented shuffle."""
    n = len(scores)
    perm = list(np.random.default_rng(TIE_SEED).permutation(n))
    # stable sort of the shuffled order by descending score
    return sorted(perm, key=lambda i: -scores[i])


def auc_roc_oracle(scores, labels):
    """Brute-force pair counting: P(pos > neg) + 0.5 P(equal)."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def auc_prc_oracle(scores, labels):
    """Average precision with group-level precision shared across ties."""
    n_pos = sum(1 for l in labels if l == 1)
    pairs = sorted(zip(scores, labels), key=lambda sl: -sl[0])
    total = 0.0
    i = 0
    seen = 0          # rows consumed so far
    tp = 0            # positives consumed so far
    while i < len(pairs):
        j = i
        while j < len(pairs) and pairs[j][0] == pairs[i][0]:
            j += 1
        group_pos = sum(1 for k in range(i, j) if pairs[k][1] == 1)
        seen = j
        tp += group_pos
        precision = tp / seen
        total += group_pos * precision
        i = j
    return total / n_pos


def auc_bed_oracle(scores, labels, alpha=20.0):
    """Literal BEDROC evaluation from the Truchon-Bailey definition."""
    n = len(scores)
    order = tie_shuffled_descending(scores)
    ranks = [r + 1 for r, i in enumerate(order) if labels[i] == 1]
    n_pos = len(ranks)
    ra = n_pos / n
    s = sum(math.exp(-alpha * r / n) for r in ranks) / n_pos
    rie = s / ((1.0 / n) * (1.0 - math.exp(-alpha))
               / (math.exp(alpha / n) - 1.0))
    factor = (ra * math.sinh(alpha / 2.0)
              / (math.cosh(alpha / 2.0) - math.cosh(alpha / 2.0 - alpha * ra)))
    return rie * factor + 1.0 / (1.0 - math.exp(alpha * (1.0 - ra)))


def enrichment_factor_oracle(scores, labels, t):
    """Direct counting of positives in the top ceil(t*N) rows."""
    n = len(scores)
    n_pos = sum(1 for l in labels if l == 1)
    top_n = math.ceil(t * n)
    order = tie_shuffled_descending(scores)
    hits = sum(1 for i in order[:top_n] if labels[i] == 1)
    return (hits / top_n) / (n_pos / n)


def logloss_oracle(scores, labels, eps=1e-15):
    """Summed logistic loss with clipped scores, accumulated in a loop."""
    total = 0.0
    for s, l in zip(scores, labels):
        p = min(max(s, eps), 1.0 - eps)
        total += -(l * math.log(p) + (1 - l) * math.log(1.0 - p))
    return total


def reliability_bins_oracle(scores, labels, n_bins=10):
    """Quantile bins by ascending score; remainder rows go to early bins."""
    n = len(scores)
    order = sorted(range(n), key=lambda i: scores[i])  # Python sort is stable
    base, rem = divmod(n, n_bins)
    sizes = [base + 1 if b < rem else base for b in range(n_bins)]
    out = []
    start = 0
    for size in sizes:
        idx = order[start:start + size]
        start += size
        mean_pred = sum(scores[i] for i in idx) / size
        pos_rate = sum(1 for i in idx if labels[i] == 1) / size
        out.append((mean_pred, pos_rate, size))
    return out


def reliability_score_oracle(scores, labels, n_bins=10):
    """Literal per-bin arithmetic of the reliability score definition."""
    bins = reliability_bins_oracle(scores, labels, n_bins)
    pi = sum(1 for l in labels if l == 1) / len(labels)
    return sum(abs(mp - pr) for mp, pr, _ in bins) / n_bins / pi


def random_instance(rng, n_max=200, tie_prob=0.3):
    """A random metric test instance with >=1 positive and >=1 negative."""
    n = rng.randint(max(10, 2), n_max)
    if rng.random() < tie_prob:
        # draw from a small grid so ties occur
        scores = [rng.choice([i / 7 for i in range(8)]) for _ in range(n)]
    else:
        scores = [rng.random() for _ in range(n)]
    prevalence = rng.choice([0.01, 0.05, 0.1, 0.3, 0.5])
    labels = [1 if rng.random() < prevalence else 0 for _ in range(n)]
    if sum(labels) == 0:
        labels[rng.randrange(n)] = 1
    if sum(labels) == n:
        labels[rng.randrange(n)] = 0
    return scores, labels


def make_rng(seed):
    return random.Random(seed)


def exact_greedy_tree_oracle(rows, g, h, node_rows, level_features, max_depth,
                             reg_lambda=1.0, gamma=0.0, min_child_weight=1.0,
                             max_delta_step=0.0):
    """Exact greedy Newton tree by brute-force enumeration.

    `rows` holds one {feature: value} dict of present values per row;
    `level_features[d]` lists the features allowed at depth d. Each
    candidate is scored by routing every node row through it: a present
    value goes left when below the threshold, an absent one follows the
    default direction. Candidates per feature, in tie order: present-right/
    absent-left at the smallest present value (if some row lacks the
    feature), then at each midpoint between adjacent distinct present values
    absent-left and (if some row lacks the feature) absent-right. The first
    candidate with the largest positive gain wins, scanning features in
    ascending order. Plain arithmetic throughout, so exact rationals work.

    Returns ("leaf", weight) or ("split", feature, threshold, default_left,
    left, right).
    """
    lam = reg_lambda

    def leaf(node, depth):
        if depth == 0:
            return ("leaf", 0.0)
        G = sum(g[i] for i in node)
        H = sum(h[i] for i in node)
        if H + lam <= 0:
            return ("leaf", 0.0)
        w = -G / (H + lam)
        if max_delta_step > 0:
            w = min(max(w, -max_delta_step), max_delta_step)
        return ("leaf", w)

    def goes_left(i, feature, threshold, default_left):
        if feature in rows[i]:
            return rows[i][feature] < threshold
        return default_left

    def grow(node, depth):
        if depth >= max_depth or len(node) < 2:
            return leaf(node, depth)
        best = None  # (gain, feature, threshold, default_left)
        for feature in sorted(level_features[depth]):
            present = sorted({rows[i][feature] for i in node if feature in rows[i]})
            if not present:
                continue
            any_absent = any(feature not in rows[i] for i in node)
            candidates = []
            if any_absent:
                candidates.append((present[0], True))
            for a, b in zip(present, present[1:]):
                candidates.append(((a + b) / 2, True))
                if any_absent:
                    candidates.append(((a + b) / 2, False))
            for threshold, default_left in candidates:
                GL = HL = GR = HR = 0
                for i in node:
                    if goes_left(i, feature, threshold, default_left):
                        GL += g[i]
                        HL += h[i]
                    else:
                        GR += g[i]
                        HR += h[i]
                if HL < min_child_weight or HR < min_child_weight:
                    continue
                gain = (GL * GL / (HL + lam) + GR * GR / (HR + lam)
                        - (GL + GR) * (GL + GR) / (HL + HR + lam)) / 2 - gamma
                if gain > 0 and (best is None or gain > best[0]):
                    best = (gain, feature, threshold, default_left)
        if best is None:
            return leaf(node, depth)
        _, feature, threshold, default_left = best
        left = [i for i in node if goes_left(i, feature, threshold, default_left)]
        right = [i for i in node if not goes_left(i, feature, threshold, default_left)]
        return ("split", feature, threshold, default_left,
                grow(left, depth + 1), grow(right, depth + 1))

    return grow(list(node_rows), 0)


def tree_walk_oracle(tree, row):
    """The leaf value a row reaches in a nested tree, one node at a time.

    `tree` is ("leaf", value) or ("split", feature, threshold, default_left,
    left, right), as `exact_greedy_tree_oracle` returns; `row` is a
    {feature: value} dict of the row's stored values. A stored value goes
    left when below the threshold; an absent one follows the default.
    """
    while tree[0] == "split":
        _, feature, threshold, default_left, left, right = tree
        if feature in row:
            go_left = row[feature] < threshold
        else:
            go_left = default_left
        tree = left if go_left else right
    return tree[1]


def boosted_trees_oracle(trees, rows, base_score, learning_rate):
    """Raw score per row: the base score plus `learning_rate` times each
    tree's leaf value, added one tree at a time in order."""
    out = []
    for row in rows:
        raw = base_score
        for tree in trees:
            raw = raw + learning_rate * tree_walk_oracle(tree, row)
        out.append(raw)
    return out



def elastic_net_cd_oracle(X, y, lambda1, lambda2, penalize_intercept=False,
                          tol=1e-13, max_sweeps=100_000):
    """Coefficients (intercept first) minimizing the layer-2 objective

        sum_i log(1 + e^z_i) - y_i z_i + lambda2 sum_j b_j^2
        + lambda1 sum_j |b_j|,   z = b_0 + X b,

    over the penalized j (the intercept only if `penalize_intercept`), by
    cyclic coordinate descent. Each coordinate is minimized exactly: it is
    zero when the derivative of the smooth part at zero lies within
    +-lambda1, else the root of derivative + lambda1 * sign on the downhill
    side, bracketed by doubling and found by Newton steps kept inside the
    bracket (bisection otherwise). Sweeps stop when no coefficient moves by
    more than `tol`. The loops over sweeps and coordinates are plain; the
    sums over rows use numpy, since ill-conditioned problems take thousands
    of sweeps. The problem must have a finite optimum.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    cols = [np.ones(n)] + [X[:, j].copy() for j in range(p)]
    pen = [1.0 if penalize_intercept else 0.0] + [1.0] * p
    b = [0.0] * (p + 1)
    z = np.zeros(n)
    for _ in range(max_sweeps):
        biggest = 0.0
        for j in range(p + 1):
            x, l1, l2 = cols[j], lambda1 * pen[j], lambda2 * pen[j]
            rest = z - b[j] * x

            def d1(t):
                s = 1.0 / (1.0 + np.exp(-(rest + t * x)))
                return float(x @ (s - y)) + 2.0 * l2 * t

            def d2(t):
                s = 1.0 / (1.0 + np.exp(-(rest + t * x)))
                return float((x * x) @ (s * (1.0 - s))) + 2.0 * l2

            g0 = d1(0.0)
            if abs(g0) <= l1:
                t = 0.0
            else:
                side = -1.0 if g0 > 0 else 1.0

                def h(t):   # increasing in t; its root is the minimizer
                    return d1(t) + l1 * side

                lo, hi, step = 0.0, 0.0, max(abs(b[j]), 1.0)
                while h(hi) * side < 0:
                    lo, hi, step = hi, side * step, 2.0 * step
                lo, hi = min(lo, hi), max(lo, hi)
                t = b[j] if lo < b[j] < hi else 0.5 * (lo + hi)
                for _ in range(200):
                    ht = h(t)
                    if ht == 0.0:
                        break
                    if ht > 0:
                        hi = t
                    else:
                        lo = t
                    nt = t - ht / d2(t)
                    if not lo < nt < hi:
                        nt = 0.5 * (lo + hi)
                    done = abs(nt - t) <= 1e-16 * max(1.0, abs(t))
                    t = nt
                    if done:
                        break
            biggest = max(biggest, abs(t - b[j]))
            z = rest + t * x
            b[j] = t
        if biggest <= tol:
            break
    return np.array(b)


def elastic_net_objective_oracle(beta, X, y, lambda1, lambda2,
                                 penalize_intercept=False):
    """The layer-2 objective at `beta`, summed row by row with math.fsum."""
    terms = []
    for row, label in zip(X, y):
        zi = beta[0] + math.fsum(float(v) * float(c)
                                 for v, c in zip(row, beta[1:]))
        terms.append(max(zi, 0.0) + math.log1p(math.exp(-abs(zi)))
                     - float(label) * zi)
    pen = list(beta[1:]) + ([beta[0]] if penalize_intercept else [])
    terms += [lambda2 * c * c + lambda1 * abs(c) for c in pen]
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# Previous layer-1 builders, kept as bit-for-bit references. Unlike the
# oracles above they are vectorized: they are the per-node depth-first tree
# builder and the per-column gblinear sweep that the package replaced, and
# its tests require the replacements to return the same bits. The package
# numbers a tree's nodes breadth-first, the depth-first builder in preorder;
# `breadth_first` renumbers the latter's trees for comparison.


def _leaf_weight_oracle(G, H, params):
    denom = H + params.reg_lambda
    if denom <= 0:
        return 0.0
    w = -G / denom
    if params.max_delta_step > 0:
        w = float(np.clip(w, -params.max_delta_step, params.max_delta_step))
    return float(w)


def _best_split_oracle(rows, g, h, G, H, feat_mask, tm, params):
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


def depth_first_tree_oracle(g, h, data, params, rng, rows=None):
    """The depth-first builder `build_tree` replaced, kept verbatim but for
    its name, the finder it calls and the column read inlined from the
    removed `_TrainMatrix.col`."""
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
            best = _best_split_oracle(node_rows, g, h, G, H,
                                      level_masks[depth], tm, params)
        if best is not None:
            _, j, split_value, dl = best
            lo, hi = tm.col_ptr[j], tm.col_ptr[j + 1]
            cr, cv = tm.col_rows[lo:hi], tm.col_values[lo:hi]
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
        value[i] = 0.0 if depth == 0 else _leaf_weight_oracle(G, H, params)

    grow(0, np.asarray(rows, dtype=np.int64), 0)
    return DecisionTree(feature=np.array(feature, dtype=np.int64),
                        threshold=np.array(threshold, dtype=np.float64),
                        default_left=np.array(default_left, dtype=bool),
                        left=np.array(left, dtype=np.int64),
                        value=np.array(value, dtype=np.float64))


def breadth_first(tree):
    """`tree` with its nodes renumbered breadth-first: the root is 0, each
    level follows the one above it left to right, and a split node's
    children take the next two free ids when it is reached."""
    order = [0]
    for i in order:   # the list grows as the walk reaches split nodes
        c = int(tree.left[i])
        if c >= 0:
            order += [c, c + 1]
    new_id = np.empty(len(order), dtype=np.int64)
    new_id[order] = np.arange(len(order))
    left = tree.left[order]
    return DecisionTree(feature=tree.feature[order],
                        threshold=tree.threshold[order],
                        default_left=tree.default_left[order],
                        left=np.where(left >= 0, new_id[left], -1),
                        value=tree.value[order])


def column_sweep_oracle(g, h, data, params, current_bias=0.0,
                        current_weights=None):
    """The gblinear sweep `per_fold_sweep_oracle` replaced, kept verbatim but
    for its name: one coordinate-descent sweep on the second-order loss
    approximation.

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



# ---------------------------------------------------------------------------
# The package's previous per-fold gblinear sweep, which the lockstep sweep of
# all folds must match bit for bit: `_Columns` of one fold's subset, and the
# sweep over its columns kept verbatim but for its name.

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


def per_fold_sweep_oracle(g, h, data, params: LinearHyperParams,
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

# ---------------------------------------------------------------------------
# The package's previous SVMLight parser. It reads a file line by line and
# token by token, which the bulk parser `load_svmlight` must match: the same
# dataset, byte for byte, or the same DataError. Unlike the package it also
# reads non-ASCII digits and blanks and fields of any length.

def svmlight_lines_oracle(raw, path, expect_label, zero_based, n_cols):
    """Parse SVMLight bytes one line and one token at a time, raising the
    DataError of the first offending line."""
    rows, labels = [], []
    off = 0 if zero_based else 1
    lines = io.StringIO(_decode(raw, path), newline=None)
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        toks = line.split()
        try:
            label = float(toks[0])
        except ValueError:
            raise DataError(f"malformed label at line {lineno}: {toks[0]!r}")
        if expect_label == "binary" and label not in (0.0, 1.0):
            raise DataError(f"non-binary label {_fmt(label)} at line {lineno}")
        pairs = []
        prev = -1
        for tok in toks[1:]:
            try:
                idx_s, val_s = tok.split(":", 1)
                idx = int(idx_s) - off
                val = float(val_s)
            except ValueError:
                raise DataError(f"malformed feature at line {lineno}: {tok!r}")
            if idx < 0:
                raise DataError(f"feature index below base at line {lineno}: {tok!r}")
            if idx <= prev:
                raise DataError(
                    f"unsorted or duplicate feature index at line {lineno}: {tok!r}")
            if np.isnan(val):
                raise DataError(f"NaN feature value at line {lineno}")
            prev = idx
            pairs.append((idx, val))
        rows.append(pairs)
        labels.append(label)
    if not rows:
        raise DataError(f"no rows in {path}")
    max_idx = max((p[-1][0] for p in rows if p), default=-1)
    if n_cols is None:
        if max_idx > _MAX_INDEX:
            raise DataError(f"feature index {max_idx} exceeds the largest "
                            f"supported index {_MAX_INDEX}")
        n_cols = max_idx + 1
    elif max_idx >= n_cols:
        raise DataError(f"feature index {max_idx} exceeds n_cols={n_cols}")
    kwargs = {}
    if expect_label == "binary":
        kwargs["binary_labels"] = np.asarray(labels, dtype=np.int8)
    else:
        kwargs["continuous_labels"] = np.asarray(labels, dtype=float)
    return SparseDataset.from_rows(rows, n_cols=n_cols, **kwargs)


# ---------------------------------------------------------------------------
# The package's previous SVMLight writer, which formats every token on its
# own. `SparseDataset.save_svmlight` must write the same bytes.

def save_svmlight_oracle(ds, path, label_kind, zero_based=True):
    """Write `ds` one row and one token at a time."""
    if label_kind == "binary":
        labels = [str(int(v)) for v in ds.binary_labels]
    else:
        labels = [repr(float(v)) for v in ds.continuous_labels]
    off = 0 if zero_based else 1
    with open(path, "w") as f:
        for i in range(ds.n_rows):
            s, e = ds.indptr[i], ds.indptr[i + 1]
            feats = " ".join(
                f"{int(j) + off}:{_fmt(v)}"
                for j, v in zip(ds.indices[s:e], ds.values[s:e]))
            f.write(labels[i] + (" " + feats if feats else "") + "\n")


# ---------------------------------------------------------------------------
# The package's previous AUC-ROC, which took the midranks from scipy's
# `rankdata`. `auc_roc` must return the same float, NaN where this is NaN.

def auc_roc_rankdata_oracle(scores, labels):
    """Mann-Whitney AUC from the sum of the positives' `rankdata` midranks."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(np.int8)
    n_pos = int((labels == 1).sum())
    n_neg = len(labels) - n_pos
    ranks = rankdata(scores)
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0)
                 / (n_pos * n_neg))


# ---------------------------------------------------------------------------
# The package's previous prediction arithmetic, one model at a time, which
# the scorer of many models must match bit for bit. A gbtree model adds its
# trees' outputs to the base score in order. A gblinear model sums its deltas
# into one (`np.sum` over the deltas), then adds to the base score the
# learning rate times the bias plus each row's dot product, which sparse
# `csr.dot` took over the row's stored values in order, starting from 0.0.
# Leaf values come from a walk of the flat tree, one node at a time.

def flat_tree_walk_oracle(tree, row):
    """The leaf value a {feature: value} row reaches in a `DecisionTree`."""
    i = 0
    while tree.left[i] >= 0:
        f = int(tree.feature[i])
        go_left = (row[f] < tree.threshold[i] if f in row
                   else bool(tree.default_left[i]))
        i = int(tree.left[i]) + (0 if go_left else 1)
    return float(tree.value[i])


def gbm_prediction_oracle(model, dataset):
    """`predict_gbm(model, dataset)` as one model was scored on its own."""
    rows = [list(zip(dataset.indices[a:b].tolist(),
                     dataset.values[a:b].tolist()))
            for a, b in zip(dataset.indptr[:-1], dataset.indptr[1:])]
    lr, out = model.learning_rate, []
    if model.booster == GBTREE or not model.learners:
        for row in rows:
            raw = model.base_score
            for tree in model.learners:
                raw = raw + lr * flat_tree_walk_oracle(tree, dict(row))
            out.append(raw)
    else:
        bias = sum(d.bias for d in model.learners)
        weights = np.sum([d.weights for d in model.learners], axis=0)
        for row in rows:
            dot = 0.0
            for j, v in row:
                dot += v * float(weights[j])
            out.append(model.base_score + lr * (bias + dot))
    raw = np.array(out, dtype=float)
    return expit(raw) if model.loss == LOGISTIC else raw


# ---------------------------------------------------------------------------
# The package's previous boosting loop, one model at a time, which the
# lockstep trainer of K fold models must match bit for bit: trees, logs and
# the out-of-fold predictions of the cut models.

def per_model_boosting_oracle(train: SparseDataset, valid: SparseDataset,
                              params, loss, stop_metric: MetricSpec, *,
                              patience=100, max_rounds=2000, seed=0):
    """The per-model `train_gbm` that `train_folds` replaced, kept verbatim
    but for its name: one model boosted alone over its own subsets, each
    round one `build_tree` over a `_TrainMatrix` of the train split and two
    `predict_tree` walks, or one gblinear sweep and two CSR products.

    Boost until the valid metric stops improving for `patience` rounds.

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
            learner = per_fold_sweep_oracle(g, h, cols, params, cum_b, cum_w,
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
