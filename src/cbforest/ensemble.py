"""Two-layer stacking pipeline: hyper-parameter sampling, cross-validated
base-layer training producing out-of-fold score columns, dual-label fusion,
elastic-net candidate sweep, and two-stage prediction."""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError, RunConfig, draw, merge_ranges
from .data import (DataError, FoldAssignment, LabelMapping, SparseDataset,
                   binarize, load_csv, load_svmlight, stratified_kfold)
from .elastic_net import (MAX_ITER, TOL, ElasticNetParams, fit_elastic_net,
                          predict_proba)
from .gbm import (GBLINEAR, GBTREE, LOGISTIC, QUADRATIC, LinearHyperParams,
                  TreeHyperParams, _Scorer, predict_gbm, train_folds)
from .metrics import MetricError, MetricSpec, evaluate, reliability_bins


def derive_seed(*keys) -> int:
    """Deterministic child seed from a tuple of integer keys."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def _draw_unseen(rng, ranges, make, seen, what):
    """`make(**values)` of values drawn from `ranges` in their order, drawn
    again while the result is in `seen`, which it is then added to."""
    for _ in range(1000):
        sample = make(**{name: draw(rng, spec) for name, spec in ranges.items()})
        if sample not in seen:
            seen.add(sample)
            return sample
    raise ConfigError(f"could not draw a unique {what} after 1000 attempts; "
                      "sampling ranges are too narrow")


def sample_hyperparams(H, seed, booster_mix="alternate",
                       ranges=None) -> list:
    """Draw H pairwise-distinct hyper-parameter objects: `TreeHyperParams`
    for a gbtree sample, `LinearHyperParams` for a gblinear one.

    The default mix alternates gbtree/gblinear starting with gbtree; the
    draw sequence is deterministic for a fixed seed.
    """
    if H < 1:
        raise ValueError("H must be at least 1")
    merged = merge_ranges(ranges)
    rng = np.random.default_rng(seed)
    samples = []
    seen = set()
    for i in range(H):
        if booster_mix == "alternate":
            booster = GBTREE if i % 2 == 0 else GBLINEAR
        else:
            booster = booster_mix
        group, make = (("tree", TreeHyperParams) if booster == GBTREE
                       else ("linear", LinearHyperParams))
        samples.append(_draw_unseen(rng, merged[group], make, seen,
                                    "hyper-parameter sample"))
    return samples


@dataclass
class Layer1Bundle:
    """The base models for one label kind: models[h][k] was trained with
    fold k held out."""

    label_kind: str
    models: list          # [h][k] -> GbmModel


@dataclass
class Layer1Record:
    """What training one bundle learned besides its models.

    logs[h][k] is the `TrainingLog` of models[h][k]; oof_columns[n, h] is the
    prediction for row n by the model that did NOT see row n's fold.
    """

    label_kind: str
    samples: list         # [h] -> TreeHyperParams | LinearHyperParams
    logs: list            # [h][k] -> TrainingLog
    oof_columns: np.ndarray


def _fit_layer1_task(args):
    (dataset, folds, params, loss, stop_metric, patience, max_rounds,
     seeds) = args
    fits = train_folds(dataset, folds, params, loss, stop_metric,
                       patience=patience, max_rounds=max_rounds, seeds=seeds)
    return [(model, log, predict_gbm(model, dataset.subset(va)))
            for (model, log), (_, va) in zip(fits, folds)]


def train_layer1(dataset: SparseDataset, kinds, folds: FoldAssignment,
                 samples, stop_metric: MetricSpec, *, patience=100,
                 max_rounds=2000, master_seed=0, workers=1):
    """Train the H x K grid of base models of each label kind in `kinds`,
    binary labels by logistic loss and continuous ones by quadratic loss;
    returns their `Layer1Bundle`s and `Layer1Record`s, in `kinds` order.

    Model (kind, h, k) fits `samples[h]` with fold k held out. The K fold
    models of one (kind, h) train together by `train_folds`, as one task or,
    when there are fewer (kind, h) than `workers`, as up to
    ceil(workers / (kinds x H)) tasks of contiguous folds. All tasks are one
    list in (kind, h, k) order, run in one process pool of at most one
    worker per task when `workers > 1`. Each model derives its seed from
    (master_seed, position of its kind in `kinds`, h, k) and its bits do not
    depend on the folds it trains beside, so results are independent of
    worker count and schedule.
    """
    K, H = folds.K, len(samples)
    pairs = [(folds.train_rows(k), folds.valid_rows(k)) for k in range(K)]
    n_groups = min(K, -(-workers // max(1, len(kinds) * H)))
    groups = [ks.tolist() for ks in np.array_split(np.arange(K), n_groups)]
    tasks = [(dataset, [pairs[k] for k in ks], params,
              LOGISTIC if kind == "binary" else QUADRATIC, stop_metric,
              patience, max_rounds,
              [derive_seed(master_seed, tag, h, k) for k in ks])
             for tag, kind in enumerate(kinds)
             for h, params in enumerate(samples)
             for ks in groups]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            fits = list(pool.map(_fit_layer1_task, tasks, chunksize=1))
    else:
        fits = [_fit_layer1_task(t) for t in tasks]
    fits = [fit for task in fits for fit in task]
    # fits come in (kind, h, k) order
    bundles, records = [], []
    for tag, kind in enumerate(kinds):
        grid = [fits[(tag * H + h) * K:(tag * H + h + 1) * K]
                for h in range(H)]
        oof = np.empty((dataset.n_rows, H))
        for h, row in enumerate(grid):
            for k, (_, _, preds) in enumerate(row):
                oof[folds.valid_rows(k), h] = preds
        bundles.append(Layer1Bundle(
            label_kind=kind, models=[[r[0] for r in row] for row in grid]))
        records.append(Layer1Record(label_kind=kind, samples=list(samples),
                                    logs=[[r[1] for r in row] for row in grid],
                                    oof_columns=oof))
    return bundles, records


@dataclass
class Layer2Data:
    """Stacked design matrix of out-of-fold base scores plus binary label."""

    X: np.ndarray
    y: np.ndarray
    columns: list  # [(label_kind, h), ...]


def assemble_md(records, binary_labels) -> Layer2Data:
    """Concatenate the out-of-fold columns of the bundles' `Layer1Record`s
    horizontally, binary-label bundle first."""
    if not records:
        raise DataError("no bundles to assemble")
    y = np.asarray(binary_labels)
    ordered = sorted(records, key=lambda b: b.label_kind != "binary")
    n = len(y)
    cols, names = [], []
    for b in ordered:
        if b.oof_columns.shape[0] != n:
            raise DataError("bundle row counts differ")
        for h in range(b.oof_columns.shape[1]):
            cols.append(b.oof_columns[:, h])
            names.append((b.label_kind, h))
    return Layer2Data(X=np.column_stack(cols), y=y, columns=names)


@dataclass
class CvScore:
    """Per-candidate per-fold validation scores (natural metric values)."""

    per_fold: np.ndarray  # (H, K)

    @property
    def mean(self):
        return self.per_fold.mean(axis=1)


@dataclass
class Layer2Selection:
    candidates: list            # ElasticNetParams per candidate
    cv: CvScore
    selected_index: int
    fold_models: list           # winner's K fold fits (ElasticNetModel)


def sample_layer2_params(H, seed, ranges=None):
    merged = merge_ranges(ranges)
    rng = np.random.default_rng(seed)
    seen = set()
    return [_draw_unseen(rng, merged["layer2"], ElasticNetParams, seen,
                         "layer-2 candidate")
            for _ in range(H)]


def train_layer2(md: Layer2Data, folds: FoldAssignment, candidates,
                 metric: MetricSpec, *, max_iter=MAX_ITER,
                 tol=TOL) -> Layer2Selection:
    """Sweep the elastic-net candidates K-fold over the stacked matrix.

    Selects the candidate with the best mean cross-validation score (ties
    go to the lowest index) and keeps its K fold models, which prediction
    averages. Each candidate's fold fits start from the previous fold's
    solution: the problems differ by a third of their rows at most.
    `max_iter` and `tol` are passed to every `fit_elastic_net`.
    """
    per_fold = np.empty((len(candidates), folds.K))
    fold_models = []
    for h, params in enumerate(candidates):
        models_h = []
        init = None
        for k in range(folds.K):
            tr = folds.train_rows(k)
            va = folds.valid_rows(k)
            m = fit_elastic_net(md.X[tr], md.y[tr], params, init=init,
                                max_iter=max_iter, tol=tol)
            p = predict_proba(m.beta, md.X[va])
            per_fold[h, k] = evaluate(metric, p, md.y[va])
            models_h.append(m)
            init = m.beta
        fold_models.append(models_h)
    cv = CvScore(per_fold=per_fold)
    oriented = cv.mean if metric.greater_is_better else -cv.mean
    selected = int(np.argmax(oriented))
    return Layer2Selection(candidates=candidates, cv=cv,
                           selected_index=selected,
                           fold_models=fold_models[selected])


def layer1_cv(record: Layer1Record, folds: FoldAssignment, binary_labels,
              metric: MetricSpec) -> CvScore:
    """Cross-validation score of each base model from its out-of-fold column."""
    H = record.oof_columns.shape[1]
    per_fold = np.empty((H, folds.K))
    y = np.asarray(binary_labels)
    for h in range(H):
        for k in range(folds.K):
            va = folds.valid_rows(k)
            per_fold[h, k] = evaluate(metric, record.oof_columns[va, h], y[va])
    return CvScore(per_fold=per_fold)


@dataclass
class CbfModel:
    """A trained two-layer model: what `predict_cbf` reads and an archive
    stores, nothing else."""

    bundles: list                 # Layer1Bundle, binary-label bundle first
    layer2_betas: list            # winner's K fold coefficient vectors
    column_order: list            # [(label_kind, h), ...]
    # the `_Scorer` of every base model, built by the first prediction
    _scorer: object = field(default=None, init=False, repr=False,
                            compare=False)


@dataclass
class TrainingRecord:
    """What a run learned besides its model."""

    folds: FoldAssignment
    label_mapping: LabelMapping | None
    H: int
    seed: int
    bundles: list                 # Layer1Record, in the model's bundle order
    layer2: Layer2Selection


def layer1_feature_matrix(model: CbfModel, data: SparseDataset) -> np.ndarray:
    """Fold-averaged base-model scores for new rows, in manifest order.

    One `_Scorer` of every base model, kept on the model, scores the rows.
    Each bundle row holds one model per fold, K in all.
    """
    names = [(b.label_kind, h) for b in model.bundles
             for h in range(len(b.models))]
    if names != list(map(tuple, model.column_order)):
        raise DataError("column manifest mismatch between model and bundles")
    if model._scorer is None:
        model._scorer = _Scorer([m for b in model.bundles
                                 for row in b.models for m in row])
    K = len(model.bundles[0].models[0])
    scores = model._scorer(data).reshape(len(names), K, data.n_rows)
    # the K folds are added in order, also for a single row, where a mean
    # would add them pairwise and change the last bits
    return (np.add.accumulate(scores, axis=1)[:, -1] / K).T


def predict_cbf(model: CbfModel, data: SparseDataset) -> np.ndarray:
    """Calibrated probability for each row of new data.

    Every base model predicts on all rows; the K fold predictions per
    (bundle, h) are averaged into one column, then the layer-2 fold models
    on the probability scale. Both add in order, so a row alone gets its
    batch bits.
    """
    X = layer1_feature_matrix(model, data)
    probs = predict_proba(np.stack(model.layer2_betas), X)
    return np.add.accumulate(probs, axis=0)[-1] / len(probs)


@dataclass
class RunResult:
    model: CbfModel
    record: TrainingRecord
    train_data: SparseDataset
    test_data: SparseDataset | None
    train_pred: np.ndarray
    valid_pred: np.ndarray        # layer-2 out-of-fold predictions
    test_pred: np.ndarray | None
    metrics_report: dict          # {metric_label: {split: value_or_nan}}
    reliability: object           # ReliabilityBins on test (train if no test)
    reliability_split: str


REPORT_METRICS = (
    MetricSpec(kind="auc_roc"),
    MetricSpec(kind="auc_prc"),
    MetricSpec(kind="auc_bed", alpha=20.0),
    MetricSpec(kind="ef", t=0.01),
    MetricSpec(kind="logloss"),
    MetricSpec(kind="reliability_score"),
)


def _safe_eval(spec, scores, labels):
    try:
        return evaluate(spec, scores, labels)
    except MetricError:
        return float("nan")


def load_run_dataset(path, label_cfg, n_cols=None):
    """Load a train/test file per the label configuration of a run."""
    path = str(path)
    if path.endswith(".csv"):
        ds = load_csv(path, label_cfg.csv_label_column,
                      expect_label=label_cfg.file_label)
    else:
        ds = load_svmlight(path, expect_label=label_cfg.file_label,
                           n_cols=n_cols)
    if label_cfg.file_label == "continuous":
        # Base models regress on these labels; binarize rejects NaN.
        infinite = np.flatnonzero(np.isinf(ds.continuous_labels))
        if infinite.size:
            row = int(infinite[0])
            raise DataError(f"infinite label {ds.continuous_labels[row]} "
                            f"in row {row + 1} of {path}")
        ds.binary_labels = binarize(ds.continuous_labels, label_cfg.mapping)
    return ds


def _split_test(dataset, fraction, seed):
    rng = np.random.default_rng(derive_seed(seed, 3))
    y = dataset.binary_labels
    test_rows = []
    for cls in (1, 0):
        idx = np.flatnonzero(y == cls)
        k = int(round(fraction * len(idx)))
        if k > 0:
            test_rows.append(rng.choice(idx, size=k, replace=False))
    test_rows = np.sort(np.concatenate(test_rows)) if test_rows else np.array([], int)
    mask = np.ones(dataset.n_rows, dtype=bool)
    mask[test_rows] = False
    train_rows = np.flatnonzero(mask)
    return dataset.subset(train_rows), dataset.subset(test_rows)


def run_cbf(config: RunConfig) -> RunResult:
    """Execute the full pipeline from a validated run configuration.

    Every hyper-parameter sample is drawn first, so ranges too narrow for H
    distinct samples raise `ConfigError` before any data is read."""
    samples = sample_hyperparams(config.H, derive_seed(config.seed, 2),
                                 booster_mix=config.booster_mix,
                                 ranges=config.sampling_ranges)
    candidates = sample_layer2_params(config.H, derive_seed(config.seed, 4),
                                      config.sampling_ranges)
    label_cfg = config.label
    full = load_run_dataset(config.train_path, label_cfg)

    if config.test_path is not None:
        train = full
        test = load_run_dataset(config.test_path, label_cfg, n_cols=full.n_cols)
    elif config.test_fraction > 0:
        train, test = _split_test(full, config.test_fraction, config.seed)
    else:
        train, test = full, None

    folds = stratified_kfold(train.binary_labels, config.K,
                             derive_seed(config.seed, 1))

    bundles, records = train_layer1(
        train, [k for k in ("binary", "continuous") if k in label_cfg.kinds],
        folds, samples, config.stop_metric, patience=config.patience,
        max_rounds=config.max_rounds, master_seed=config.seed,
        workers=config.effective_workers())

    md = assemble_md(records, train.binary_labels)
    sel = train_layer2(md, folds, candidates, config.selection_metric,
                       max_iter=config.layer2.max_iter, tol=config.layer2.tol)

    model = CbfModel(bundles=bundles,
                     layer2_betas=[m.beta for m in sel.fold_models],
                     column_order=md.columns)
    record = TrainingRecord(folds=folds, label_mapping=label_cfg.mapping,
                            H=config.H, seed=config.seed, bundles=records,
                            layer2=sel)

    train_pred = predict_cbf(model, train)
    valid_pred = np.empty(train.n_rows)
    for k in range(folds.K):
        va = folds.valid_rows(k)
        valid_pred[va] = predict_proba(model.layer2_betas[k], md.X[va])
    test_pred = predict_cbf(model, test) if test is not None else None

    report = {}
    for spec in REPORT_METRICS:
        row = {"train": _safe_eval(spec, train_pred, train.binary_labels),
               "valid": _safe_eval(spec, valid_pred, train.binary_labels)}
        row["test"] = (_safe_eval(spec, test_pred, test.binary_labels)
                       if test is not None else float("nan"))
        report[spec.label()] = row

    if test is not None and test.n_rows >= 10:
        rel, rel_split = reliability_bins(test_pred, test.binary_labels), "test"
    else:
        rel, rel_split = reliability_bins(train_pred, train.binary_labels), "train"

    return RunResult(model=model, record=record, train_data=train,
                     test_data=test, train_pred=train_pred,
                     valid_pred=valid_pred, test_pred=test_pred,
                     metrics_report=report, reliability=rel,
                     reliability_split=rel_split)
